package curve

import (
	"math"
	"sync"
)

// ensemble is the combined model y(x) = sum_k w_k f_k(x; theta_k) + eps,
// eps ~ N(0, sigma^2), over a fixed set of parametric families. The
// flat parameter vector is laid out as
//
//	[w_1 .. w_K, theta_1..., theta_2..., ..., logSigma]
//
// matching Domhan et al.'s joint model over weights, curve parameters,
// and noise.
type ensemble struct {
	models  []Model
	offsets []int // start of each model's theta within the flat vector
	dim     int   // total parameter count
	xlim    float64

	// table is the epoch column 1..xlim with its logs, built once per
	// fit: the likelihood, the sweep and the scalar queries all slice
	// their columns out of it.
	table Epochs
	// ends is the prior's two-point column {1, xlim}.
	ends Epochs
}

func newEnsemble(models []Model, xlim int) *ensemble {
	e := &ensemble{models: models, xlim: float64(xlim)}
	e.offsets = make([]int, len(models))
	off := len(models) // weights first
	for i, m := range models {
		e.offsets[i] = off
		off += m.NumParams()
	}
	e.dim = off + 1 // + logSigma
	xs := make([]float64, xlim)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	e.table = newEpochs(xs)
	e.ends = newEpochs([]float64{1, e.xlim})
	return e
}

// column returns the epoch column m = from..to, each m clamped to >= 1
// like every other query. A range inside 1..xlim is a view of the
// per-fit table; anything else is built here, computing the logs that
// the table does not cover.
func (e *ensemble) column(from, to int) Epochs {
	if from >= 1 && to <= len(e.table.X) {
		return Epochs{X: e.table.X[from-1 : to], Log: e.table.Log[from-1 : to], Log1: e.table.Log1[from-1 : to]}
	}
	xs := make([]float64, to-from+1)
	for k := range xs {
		xs[k] = float64(max(from+k, 1))
	}
	return newEpochs(xs)
}

// sigma extracts the noise standard deviation.
func (e *ensemble) sigma(th []float64) float64 { return math.Exp(th[e.dim-1]) }

// scratch is one evaluator's reusable workspace: the combined-curve
// accumulator, one family's kernel output, and initVector's
// per-family basis columns. Each walker and each sweep block holds its
// own, so evaluation allocates nothing once the buffers have grown to
// the widest column.
type scratch struct{ acc, fam, basis []float64 }

// scratchPool recycles workspaces across fits, sweeps and queries.
var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func getScratch() *scratch  { return scratchPool.Get().(*scratch) }
func putScratch(s *scratch) { scratchPool.Put(s) }

// eval computes the combined mean curve over the column ep into the
// scratch accumulator and returns it (valid until the next eval on s).
// Models are summed in family order and zero-weight models skipped; a
// point where any weighted family is NaN or infinite is NaN. Each
// point's sum is therefore the same whatever the column's width, so a
// width-1 query and a sweep agree bit for bit.
func (e *ensemble) eval(s *scratch, ep Epochs, th []float64) []float64 {
	n := len(ep.X)
	if cap(s.acc) < n {
		s.acc = make([]float64, n)
		s.fam = make([]float64, n)
	}
	acc, fam := s.acc[:n], s.fam[:n]
	for k := range acc {
		acc[k] = 0
	}
	for i, m := range e.models {
		w := th[i]
		if w == 0 {
			continue
		}
		m.Kernel(fam, ep, th[e.offsets[i]:e.offsets[i]+m.NumParams()])
		for k, v := range fam {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				acc[k] = math.NaN()
				continue
			}
			acc[k] += w * v
		}
	}
	return acc
}

// logPrior encodes the weak prior of Domhan et al.: non-negative
// weights, bounded noise, and a combined curve that stays on the metric
// scale and does not predict catastrophic collapse: y(1) within
// [-0.05, 1.05], y(xlim) within [0, 1.05], and y(xlim) >= y(1) - 0.05
// (learning curves trend upward on aggregate).
func (e *ensemble) logPrior(th []float64, s *scratch) float64 {
	var wsum float64
	for i := range e.models {
		w := th[i]
		if w < 0 {
			return math.Inf(-1)
		}
		wsum += w
	}
	if wsum < 0.5 || wsum > 2 {
		return math.Inf(-1)
	}
	ls := th[e.dim-1]
	if ls < math.Log(1e-4) || ls > math.Log(0.15) {
		return math.Inf(-1)
	}
	ends := e.eval(s, e.ends, th)
	y1, yl := ends[0], ends[1]
	if math.IsNaN(y1) || math.IsNaN(yl) {
		return math.Inf(-1)
	}
	if y1 < -0.05 || y1 > 1.05 || yl < 0 || yl > 1.05 {
		return math.Inf(-1)
	}
	if yl < y1-0.05 {
		return math.Inf(-1)
	}
	return 0
}

// logLikelihood is the Gaussian observation model over the observed
// prefix (y[i] observed at x = i+1).
func (e *ensemble) logLikelihood(y []float64, th []float64, s *scratch) float64 {
	sigma := e.sigma(th)
	inv2 := 1 / (2 * sigma * sigma)
	logNorm := -0.5*math.Log(2*math.Pi) - math.Log(sigma)
	preds := e.eval(s, e.column(1, len(y)), th)
	var ll float64
	for i, obs := range y {
		pred := preds[i]
		if math.IsNaN(pred) {
			return math.Inf(-1)
		}
		d := obs - pred
		ll += logNorm - d*d*inv2
	}
	return ll
}

// logPosterior is prior + likelihood, evaluated in the caller's
// scratch.
func (e *ensemble) logPosterior(y []float64, th []float64, s *scratch) float64 {
	lp := e.logPrior(th, s)
	if math.IsInf(lp, -1) {
		return lp
	}
	return lp + e.logLikelihood(y, th, s)
}

// initVector builds a starting parameter vector from the per-model
// heuristics targeting the given asymptote hypothesis: heuristic
// thetas per family, family weights fitted to the observations by
// non-negative least squares (the cheap stand-in for Domhan et al.'s
// per-model maximum-likelihood initialization), and the residual scale
// as noise. Samplers call it with a spread of asymptotes so the
// initial walker ensemble covers the genuinely unconstrained "where
// does this curve top out" direction.
func (e *ensemble) initVector(y []float64, asym float64, s *scratch) []float64 {
	th := make([]float64, e.dim)
	k := len(e.models)
	for i, m := range e.models {
		copy(th[e.offsets[i]:], m.Init(y, asym))
	}

	// Basis matrix: each family's init curve at the observed epochs.
	n := len(y)
	obs := e.column(1, n)
	if cap(s.basis) < k*n {
		s.basis = make([]float64, k*n)
	}
	basis := make([][]float64, k)
	for i, m := range e.models {
		col := s.basis[i*n : (i+1)*n]
		m.Kernel(col, obs, th[e.offsets[i]:e.offsets[i]+m.NumParams()])
		for _, v := range col {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				col = nil
				break
			}
		}
		basis[i] = col
	}
	w := nnls(basis, y, 1/float64(k))
	copy(th, w)

	// Keep the weight sum inside the prior's support.
	var wsum float64
	for _, v := range w {
		wsum += v
	}
	if wsum < 0.5 || wsum > 2 {
		scale := 1.0
		if wsum > 0 {
			scale = 1 / wsum
		}
		for i := 0; i < k; i++ {
			th[i] = math.Max(w[i]*scale, 0)
		}
	}

	// Residual noise scale from the fitted combination.
	preds := e.eval(s, obs, th)
	var ss float64
	for j, v := range y {
		d := v - preds[j]
		ss += d * d
	}
	sigma := math.Sqrt(ss / float64(len(y)))
	if sigma < 0.005 {
		sigma = 0.005
	}
	if sigma > 0.14 {
		sigma = 0.14
	}
	th[e.dim-1] = math.Log(sigma)
	return th
}

// nnls solves min ||sum_k w_k basis_k - y||^2 subject to w >= 0 by
// cyclic coordinate descent. Families whose basis is nil (invalid init)
// get weight zero. def is the fallback weight when everything is
// degenerate.
func nnls(basis [][]float64, y []float64, def float64) []float64 {
	k := len(basis)
	w := make([]float64, k)
	norms := make([]float64, k)
	usable := false
	for i, col := range basis {
		if col == nil {
			continue
		}
		var n float64
		for _, v := range col {
			n += v * v
		}
		norms[i] = n
		if n > 1e-12 {
			usable = true
			w[i] = def
		}
	}
	if !usable {
		for i := range w {
			w[i] = def
		}
		return w
	}
	resid := make([]float64, len(y))
	for j := range y {
		var pred float64
		for i, col := range basis {
			if col != nil {
				pred += w[i] * col[j]
			}
		}
		resid[j] = y[j] - pred
	}
	for pass := 0; pass < 60; pass++ {
		for i, col := range basis {
			if col == nil || norms[i] <= 1e-12 {
				continue
			}
			var dot float64
			for j, v := range col {
				dot += v * resid[j]
			}
			next := w[i] + dot/norms[i]
			if next < 0 {
				next = 0
			}
			delta := next - w[i]
			if delta == 0 {
				continue
			}
			w[i] = next
			for j, v := range col {
				resid[j] -= delta * v
			}
		}
	}
	return w
}

// scales returns per-dimension jitter scales aligned with the flat
// vector.
func (e *ensemble) scales() []float64 {
	s := make([]float64, e.dim)
	k := len(e.models)
	for i := 0; i < k; i++ {
		s[i] = 0.5 / float64(k)
	}
	for i, m := range e.models {
		copy(s[e.offsets[i]:], m.Scales())
	}
	s[e.dim-1] = 0.5
	return s
}
