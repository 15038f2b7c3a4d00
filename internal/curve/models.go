// Package curve implements the probabilistic learning-curve prediction
// model that POP and the EarlyTerm baseline rely on (paper §3.1.1 and
// §5.2): a weighted combination of eleven parametric curve families
// (Domhan, Springenberg & Hutter, IJCAI 2015), with posterior inference
// by an affine-invariant ensemble MCMC sampler. Given the observed
// prefix of a training curve it answers
//
//	P(m, y) = P(y(m) >= y | y(1 : n))
//
// — the probability that the metric reaches y at future epoch m — plus
// posterior mean curves and credible bands.
//
// Metrics are expected on a [0, 1] scale (accuracy directly; rewards
// min-max normalized per §6.3 Eq. 4 before fitting).
package curve

import (
	"math"
)

// Epochs is a column of evaluation points with their log tables:
// Log[k] = log X[k] and Log1[k] = log(X[k]+1). Every family is written
// in terms of these, so a fit builds the tables once for the epochs it
// evaluates (see ensemble.column) instead of taking a math.Pow per
// point.
type Epochs struct {
	X, Log, Log1 []float64
}

// newEpochs builds the column for xs, computing its log tables.
func newEpochs(xs []float64) Epochs {
	ep := Epochs{X: xs, Log: make([]float64, len(xs)), Log1: make([]float64, len(xs))}
	for k, x := range xs {
		ep.Log[k] = math.Log(x)
		ep.Log1[k] = math.Log(x + 1)
	}
	return ep
}

// Model is one parametric learning-curve family f(x; theta), x >= 1.
type Model interface {
	// Name identifies the family.
	Name() string
	// NumParams returns the dimensionality of theta.
	NumParams() int
	// Kernel writes f(ep.X[k]; theta) to dst[k] for every point of the
	// column (len(dst) == len(ep.X)). Terms that depend only on theta
	// are computed once per call, and powers are taken as
	// exp(a * log x) from the column's log table. Implementations must
	// write NaN rather than panic for invalid parameters.
	Kernel(dst []float64, ep Epochs, theta []float64)
	// Init returns a heuristic starting theta for an observed curve
	// (y[i] is the metric after epoch i+1) targeting the given
	// asymptote. Samplers seed walkers with a spread of asymptote
	// hypotheses so the ensemble honestly represents extrapolation
	// uncertainty from short prefixes.
	Init(y []float64, asym float64) []float64
	// Scales returns per-parameter jitter scales used to spread the
	// initial walker ensemble.
	Scales() []float64
}

// Models returns the eleven families of Domhan et al. used by the
// paper's predictor, in a fixed order.
func Models() []Model {
	return []Model{
		vapModel{},
		pow3Model{},
		pow4Model{},
		logLogLinearModel{},
		logPowerModel{},
		mmfModel{},
		exp4Model{},
		janoschekModel{},
		weibullModel{},
		ilog2Model{},
		hill3Model{},
	}
}

// curveEnds summarizes an observed prefix for parameter initialization.
func curveEnds(y []float64) (y0, yn float64) {
	if len(y) == 0 {
		return 0.1, 0.5
	}
	return y[0], y[len(y)-1]
}

// DefaultAsym is a mildly optimistic asymptote hypothesis for an
// observed prefix: slightly above the last observation.
func DefaultAsym(y []float64) float64 {
	y0, yn := curveEnds(y)
	asym := yn + 0.1*(1-yn)
	if asym <= y0 {
		asym = y0 + 0.05
	}
	return asym
}

// halfLife estimates the epoch at which the curve crosses halfway
// between its first and last observed values; rate parameters are
// initialized from it so the starting ensemble already matches the
// observed time scale.
func halfLife(y []float64) float64 {
	if len(y) < 2 {
		return 10
	}
	y0, yn := y[0], y[len(y)-1]
	if yn <= y0+1e-9 {
		return float64(len(y)) // flat curve: no meaningful half-life
	}
	target := y0 + 0.5*(yn-y0)
	for i, v := range y {
		if v >= target {
			if i == 0 {
				return 1
			}
			return float64(i + 1)
		}
	}
	return float64(len(y))
}

// riseStats summarizes an observed prefix for an asymptote hypothesis
// A: the endpoints, the prefix length, and the implied exponential
// rate k solving A - (A-y0)e^{-kn} = yn — i.e., the rate at which a
// saturating curve through the data would approach A. Initializing
// each walker's rate consistently with its asymptote keeps the whole
// asymptote range alive under the likelihood, so the posterior
// honestly represents extrapolation uncertainty.
func riseStats(y []float64, asym float64) (y0, yn, n, k float64) {
	y0, yn = curveEnds(y)
	n = float64(len(y))
	if n < 1 {
		n = 1
	}
	if asym <= yn+0.01 {
		asym = yn + 0.01
	}
	num := asym - y0
	den := asym - yn
	if num <= 0 {
		num = 0.01
	}
	if den <= 0 {
		den = 0.005
	}
	ratio := num / den
	if ratio < 1.000001 {
		ratio = 1.000001
	}
	k = math.Log(ratio) / n
	return y0, yn, n, k
}

// point is a reusable width-1 column for evaluating one family at
// scattered x values without a prebuilt log table.
type point [4]float64 // x, log x, log(x+1), f(x)

// eval returns f(x; th): the width-1 kernel call.
func (p *point) eval(m Model, x float64, th []float64) float64 {
	p[0], p[1], p[2] = x, math.Log(x), math.Log(x+1)
	m.Kernel(p[3:4], Epochs{X: p[0:1], Log: p[1:2], Log1: p[2:3]}, th)
	return p[3]
}

// bestShape evaluates candidate parameter vectors (one per shape
// hypothesis) against the observed prefix and returns the one with the
// lowest squared error. Models use it to pick their shape parameter
// consistently with an externally imposed asymptote.
func bestShape(y []float64, m Model, cands [][]float64) []float64 {
	best := cands[0]
	bestSSE := math.Inf(1)
	pt := new(point)
	for _, th := range cands {
		var sse float64
		ok := true
		for i, obs := range y {
			v := pt.eval(m, float64(i+1), th)
			if math.IsNaN(v) || math.IsInf(v, 0) {
				ok = false
				break
			}
			d := obs - v
			sse += d * d
		}
		if ok && sse < bestSSE {
			bestSSE = sse
			best = th
		}
	}
	return best
}

// --- vapor pressure: exp(a + b/x + c*ln x) ---------------------------

type vapModel struct{}

func (vapModel) Name() string   { return "vap" }
func (vapModel) NumParams() int { return 3 }

func (vapModel) Kernel(dst []float64, ep Epochs, th []float64) {
	a, b, c := th[0], th[1], th[2]
	for k, x := range ep.X {
		dst[k] = math.Exp(a + b/x + c*ep.Log[k])
	}
}

func (vapModel) Init(y []float64, asym float64) []float64 {
	return []float64{math.Log(math.Max(asym, 1e-3)), -0.5, 0.01}
}

func (vapModel) Scales() []float64 { return []float64{0.2, 0.3, 0.05} }

// --- pow3: c - a*x^(-alpha) ------------------------------------------

type pow3Model struct{}

func (pow3Model) Name() string   { return "pow3" }
func (pow3Model) NumParams() int { return 3 }

func (pow3Model) Kernel(dst []float64, ep Epochs, th []float64) {
	c, a, alpha := th[0], th[1], th[2]
	for k, lx := range ep.Log {
		dst[k] = c - a*math.Exp(-alpha*lx)
	}
}

func (pow3Model) Init(y []float64, asym float64) []float64 {
	y0, yn, n, _ := riseStats(y, asym)
	// a = asym - y0 (fit at x=1); alpha from the endpoint at x=n.
	a := math.Max(asym-y0, 0.02)
	alpha := 0.5
	if n > 1.5 {
		alpha = math.Log(a/math.Max(asym-yn, 0.005)) / math.Log(n)
		if alpha < 0.05 {
			alpha = 0.05
		}
	}
	return []float64{asym, a, alpha}
}

func (pow3Model) Scales() []float64 { return []float64{0.1, 0.1, 0.2} }

// --- pow4: c - (a*x + b)^(-alpha) ------------------------------------

type pow4Model struct{}

func (pow4Model) Name() string   { return "pow4" }
func (pow4Model) NumParams() int { return 4 }

func (pow4Model) Kernel(dst []float64, ep Epochs, th []float64) {
	c, a, b, alpha := th[0], th[1], th[2], th[3]
	for k, x := range ep.X {
		base := a*x + b
		if base <= 0 {
			dst[k] = math.NaN()
			continue
		}
		dst[k] = c - math.Exp(-alpha*math.Log(base))
	}
}

func (pow4Model) Init(y []float64, asym float64) []float64 {
	y0, _ := curveEnds(y)
	// At x=1: asym - (a+b)^-alpha = y0  =>  (a+b)^-alpha = asym-y0.
	diff := math.Max(asym-y0, 0.02)
	return []float64{asym, 0.3, math.Pow(diff, -2) - 0.3, 0.5}
}

func (pow4Model) Scales() []float64 { return []float64{0.1, 0.2, 0.5, 0.2} }

// --- log log linear: ln(a*ln(x) + b) ---------------------------------

type logLogLinearModel struct{}

func (logLogLinearModel) Name() string   { return "logloglinear" }
func (logLogLinearModel) NumParams() int { return 2 }

func (logLogLinearModel) Kernel(dst []float64, ep Epochs, th []float64) {
	a, b := th[0], th[1]
	for k, lx := range ep.Log {
		v := a*lx + b
		if v <= 0 {
			dst[k] = math.NaN()
			continue
		}
		dst[k] = math.Log(v)
	}
}

func (logLogLinearModel) Init(y []float64, asym float64) []float64 {
	y0, _ := curveEnds(y)
	return []float64{0.2 * asym, math.Exp(math.Max(y0, 0.01))}
}

func (logLogLinearModel) Scales() []float64 { return []float64{0.1, 0.2} }

// --- log power: a / (1 + (x/e^b)^c) ----------------------------------

type logPowerModel struct{}

func (logPowerModel) Name() string   { return "logpower" }
func (logPowerModel) NumParams() int { return 3 }

// (x/e^b)^c = exp(c*(log x - b)): the e^b division folds into the
// exponent, so no per-call exp(b) is needed at all.
func (logPowerModel) Kernel(dst []float64, ep Epochs, th []float64) {
	a, b, c := th[0], th[1], th[2]
	for k, lx := range ep.Log {
		dst[k] = a / (1 + math.Exp(c*(lx-b)))
	}
}

func (logPowerModel) Init(y []float64, asym float64) []float64 {
	_, yn, n, _ := riseStats(y, asym)
	ratio := asym/math.Max(yn, 0.02) - 1
	if ratio <= 0 {
		ratio = 0.01
	}
	var cands [][]float64
	for _, c := range []float64{-1.0, -1.8, -3.0} { // negative exponent: increasing curve
		b := math.Log(n) - math.Log(ratio)/c
		cands = append(cands, []float64{asym, b, c})
	}
	return bestShape(y, logPowerModel{}, cands)
}

func (logPowerModel) Scales() []float64 { return []float64{0.1, 0.5, 0.2} }

// --- MMF: alpha - (alpha - beta) / (1 + (kappa*x)^delta) -------------

type mmfModel struct{}

func (mmfModel) Name() string   { return "mmf" }
func (mmfModel) NumParams() int { return 4 }

func (mmfModel) Kernel(dst []float64, ep Epochs, th []float64) {
	alpha, beta, kappa, delta := th[0], th[1], th[2], th[3]
	if kappa < 0 {
		fillNaN(dst)
		return
	}
	lk := powLogBase(kappa, delta)
	for k, lx := range ep.Log {
		dst[k] = alpha - (alpha-beta)/(1+math.Exp(delta*(lk+lx)))
	}
}

func (mmfModel) Init(y []float64, asym float64) []float64 {
	y0, yn, n, _ := riseStats(y, asym)
	ratio := math.Max(yn-y0, 0.01) / math.Max(asym-yn, 0.005)
	var cands [][]float64
	for _, delta := range []float64{0.8, 1.2, 1.8, 2.5} {
		kappa := math.Pow(ratio, 1/delta) / n
		cands = append(cands, []float64{asym, y0, kappa, delta})
	}
	return bestShape(y, mmfModel{}, cands)
}

func (mmfModel) Scales() []float64 { return []float64{0.1, 0.05, 0.03, 0.3} }

// --- exp4: c - exp(-a*x^alpha + b) -----------------------------------

type exp4Model struct{}

func (exp4Model) Name() string   { return "exp4" }
func (exp4Model) NumParams() int { return 4 }

func (exp4Model) Kernel(dst []float64, ep Epochs, th []float64) {
	c, a, b, alpha := th[0], th[1], th[2], th[3]
	for k, lx := range ep.Log {
		dst[k] = c - math.Exp(-a*math.Exp(alpha*lx)+b)
	}
}

func (exp4Model) Init(y []float64, asym float64) []float64 {
	y0, _, n, k := riseStats(y, asym)
	diff := math.Max(asym-y0, 0.02)
	lnRatio := math.Max(k*n, 1e-6)
	var cands [][]float64
	for _, alpha := range []float64{0.6, 1.0, 1.4} {
		den := math.Pow(n, alpha) - 1
		if den < 1e-6 {
			den = 1e-6
		}
		a := lnRatio / den
		cands = append(cands, []float64{asym, a, math.Log(diff) + a, alpha})
	}
	return bestShape(y, exp4Model{}, cands)
}

func (exp4Model) Scales() []float64 { return []float64{0.1, 0.03, 0.3, 0.2} }

// --- Janoschek: alpha - (alpha - beta)*exp(-kappa * x^delta) ---------

type janoschekModel struct{}

func (janoschekModel) Name() string   { return "janoschek" }
func (janoschekModel) NumParams() int { return 4 }

func (janoschekModel) Kernel(dst []float64, ep Epochs, th []float64) {
	alpha, beta, kappa, delta := th[0], th[1], th[2], th[3]
	for k, lx := range ep.Log {
		dst[k] = alpha - (alpha-beta)*math.Exp(-kappa*math.Exp(delta*lx))
	}
}

func (janoschekModel) Init(y []float64, asym float64) []float64 {
	y0, _, n, k := riseStats(y, asym)
	lnRatio := k * n
	var cands [][]float64
	for _, delta := range []float64{0.6, 0.8, 1.0, 1.25, 1.6} {
		kappa := lnRatio / math.Pow(n, delta)
		cands = append(cands, []float64{asym, y0, kappa, delta})
	}
	return bestShape(y, janoschekModel{}, cands)
}

func (janoschekModel) Scales() []float64 { return []float64{0.1, 0.05, 0.02, 0.2} }

// --- Weibull: alpha - (alpha - beta)*exp(-(kappa*x)^delta) -----------

type weibullModel struct{}

func (weibullModel) Name() string   { return "weibull" }
func (weibullModel) NumParams() int { return 4 }

func (weibullModel) Kernel(dst []float64, ep Epochs, th []float64) {
	alpha, beta, kappa, delta := th[0], th[1], th[2], th[3]
	if kappa < 0 {
		fillNaN(dst)
		return
	}
	lk := powLogBase(kappa, delta)
	for k, lx := range ep.Log {
		dst[k] = alpha - (alpha-beta)*math.Exp(-math.Exp(delta*(lk+lx)))
	}
}

func (weibullModel) Init(y []float64, asym float64) []float64 {
	y0, _, n, k := riseStats(y, asym)
	lnRatio := math.Max(k*n, 1e-6)
	var cands [][]float64
	for _, delta := range []float64{0.6, 0.8, 1.0, 1.25, 1.6} {
		kappa := math.Pow(lnRatio, 1/delta) / n
		cands = append(cands, []float64{asym, y0, kappa, delta})
	}
	return bestShape(y, weibullModel{}, cands)
}

func (weibullModel) Scales() []float64 { return []float64{0.1, 0.05, 0.02, 0.25} }

// --- ilog2: c - a / ln(x + 1) ----------------------------------------

type ilog2Model struct{}

func (ilog2Model) Name() string   { return "ilog2" }
func (ilog2Model) NumParams() int { return 2 }

func (ilog2Model) Kernel(dst []float64, ep Epochs, th []float64) {
	c, a := th[0], th[1]
	for k, l1 := range ep.Log1 {
		dst[k] = c - a/l1
	}
}

func (ilog2Model) Init(y []float64, asym float64) []float64 {
	_, yn, n, _ := riseStats(y, asym)
	// Pass through the endpoint: asym - a/ln(n+1) = yn.
	a := math.Max((asym-yn)*math.Log(n+1), 0.01)
	return []float64{asym, a}
}

func (ilog2Model) Scales() []float64 { return []float64{0.1, 0.1} }

// --- Hill3 (dose-response, zero background): theta*x^eta/(kappa^eta + x^eta)

type hill3Model struct{}

func (hill3Model) Name() string   { return "hill3" }
func (hill3Model) NumParams() int { return 3 }

func (hill3Model) Kernel(dst []float64, ep Epochs, th []float64) {
	theta, eta, kappa := th[0], th[1], th[2]
	// math.Pow keeps its sign rules for the once-per-call kappa^eta: a
	// negative kappa is valid for integral eta and NaN otherwise.
	ke := math.Pow(kappa, eta)
	for k, lx := range ep.Log {
		xe := math.Exp(eta * lx)
		den := ke + xe
		if den == 0 {
			dst[k] = math.NaN()
			continue
		}
		dst[k] = theta * xe / den
	}
}

func (hill3Model) Init(y []float64, asym float64) []float64 {
	_, yn, n, _ := riseStats(y, asym)
	ratio := math.Max(asym-yn, 0.005) / math.Max(yn, 0.02)
	var cands [][]float64
	for _, eta := range []float64{0.8, 1.3, 2.0} {
		kappa := n * math.Pow(ratio, 1/eta)
		cands = append(cands, []float64{asym, eta, kappa})
	}
	return bestShape(y, hill3Model{}, cands)
}

func (hill3Model) Scales() []float64 { return []float64{0.1, 0.2, 5} }

// powLogBase returns log kappa for a power (kappa*x)^delta taken as
// exp(delta*(log kappa + log x)), kappa >= 0. At kappa == 0 the log is
// -Inf, which reproduces math.Pow(0, delta) — 0 for delta > 0, +Inf
// for delta < 0 — except at delta == 0, where 0 * -Inf would be NaN;
// any finite log there yields math.Pow's 1.
func powLogBase(kappa, delta float64) float64 {
	if delta == 0 {
		return 0
	}
	return math.Log(kappa)
}

// fillNaN marks every point of a column invalid.
func fillNaN(dst []float64) {
	for k := range dst {
		dst[k] = math.NaN()
	}
}

// modelNames renders the model list for error messages and docs.
func modelNames(ms []Model) string {
	s := ""
	for i, m := range ms {
		if i > 0 {
			s += ","
		}
		s += m.Name()
	}
	return s
}
