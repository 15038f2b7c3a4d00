package curve

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/hyperdrive-ml/hyperdrive/internal/obs"
)

// MinObservations is the shortest curve prefix the predictor accepts:
// with fewer points the posterior is vacuous.
const MinObservations = 4

// ErrTooFewObservations is returned by Fit for over-short prefixes.
var ErrTooFewObservations = errors.New("curve: need more observations to fit")

// Config sets the MCMC budget.
type Config struct {
	// Walkers is the ensemble size (paper §5.2: 100).
	Walkers int
	// Iters is the number of ensemble iterations (paper §5.2: 700
	// after their 2500 -> 700 reduction).
	Iters int
	// BurnFrac is the fraction of iterations discarded as burn-in.
	BurnFrac float64
	// MaxSamples caps the kept posterior samples (thinned uniformly);
	// bounds downstream prediction cost.
	MaxSamples int
	// StretchA is the stretch-move parameter a (conventionally 2).
	StretchA float64
	// Seed makes the sampler deterministic.
	Seed int64
	// Workers sizes the worker pool the sampler fans logPosterior
	// evaluations across; 0 uses GOMAXPROCS, 1 runs fully serial.
	// The posterior is bit-identical for every value: parallelism
	// changes wall-clock time, never results.
	Workers int
}

// PaperConfig returns the configuration the paper runs in production:
// 100 walkers x 700 iterations = 70,000 samples (§5.2).
func PaperConfig() Config {
	return Config{Walkers: 100, Iters: 700, BurnFrac: 0.5, MaxSamples: 2000, StretchA: 2, Seed: 1}
}

// OriginalConfig returns the unreduced configuration of the reference
// implementation (100 x 2500), used by the MCMC-budget ablation.
func OriginalConfig() Config {
	c := PaperConfig()
	c.Iters = 2500
	return c
}

// FastConfig returns a reduced budget suitable for simulation sweeps
// and unit tests, trading posterior resolution for speed the same way
// §5.2 trades 2500 iterations for 700.
func FastConfig() Config {
	return Config{Walkers: 30, Iters: 120, BurnFrac: 0.5, MaxSamples: 600, StretchA: 2, Seed: 1}
}

func (c Config) validate() error {
	if c.Walkers < 4 {
		return fmt.Errorf("curve: need >= 4 walkers, got %d", c.Walkers)
	}
	if c.Iters < 2 {
		return fmt.Errorf("curve: need >= 2 iterations, got %d", c.Iters)
	}
	if c.BurnFrac < 0 || c.BurnFrac >= 1 {
		return fmt.Errorf("curve: burn fraction %v out of [0, 1)", c.BurnFrac)
	}
	if c.StretchA <= 1 {
		return fmt.Errorf("curve: stretch parameter must exceed 1, got %v", c.StretchA)
	}
	if c.Workers < 0 {
		return fmt.Errorf("curve: negative worker count %d", c.Workers)
	}
	return nil
}

// workers resolves the effective sampler worker-pool size.
func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Predictor fits the ensemble learning-curve model to curve prefixes.
// It is safe for concurrent use; each Fit runs an independent chain.
type Predictor struct {
	cfg    Config
	models []Model

	// Observability handles (nil-safe no-ops when uninstrumented).
	fitDur     *obs.Histogram
	fitErrors  *obs.Counter
	acceptRate *obs.Gauge
	workersG   *obs.Gauge
}

// NewPredictor builds a predictor over the standard eleven families.
func NewPredictor(cfg Config) (*Predictor, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Predictor{cfg: cfg, models: Models()}, nil
}

// MustPredictor is NewPredictor for known-good configs.
func MustPredictor(cfg Config) *Predictor {
	p, err := NewPredictor(cfg)
	if err != nil {
		panic(err)
	}
	return p
}

// ModelNames lists the families in the ensemble.
func (p *Predictor) ModelNames() string { return modelNames(p.models) }

// Instrument binds the predictor's fit telemetry (wall-clock fit
// duration, error count, last acceptance rate) to a registry. Call
// once at setup, before any concurrent Fit.
func (p *Predictor) Instrument(r *obs.Registry) {
	p.fitDur = r.Histogram(obs.MCMCFitDurationSeconds)
	p.fitErrors = r.Counter(obs.MCMCFitErrorsTotal)
	p.acceptRate = r.Gauge(obs.MCMCAcceptRate)
	p.workersG = r.Gauge(obs.MCMCParallelWorkers)
	p.workersG.Set(float64(p.cfg.workers()))
}

// Fit samples the posterior over curve parameters given the observed
// prefix y (y[i] is the metric after epoch i+1, on a [0, 1] scale) and
// the horizon xlim (the largest epoch predictions will be requested
// for; typically the job's max epoch). The seed is mixed into the
// sampler so per-job chains differ deterministically.
func (p *Predictor) Fit(y []float64, xlim int, seed int64) (*Posterior, error) {
	// Real wall-clock time is the quantity being exported here
	// (hyperdrive_mcmc_fit_duration_seconds, the §5.2 prediction-cost
	// telemetry): operators tune OverlapPrediction against measured fit
	// latency. It feeds only the histogram, never a scheduling decision,
	// so fit results — and replays — are unaffected by it.
	t0 := time.Now() //hdlint:ignore detclock measured wall-clock fit latency is the telemetry itself; see above
	post, err := p.fit(y, xlim, seed)
	p.fitDur.Observe(time.Since(t0).Seconds()) //hdlint:ignore detclock measured wall-clock fit latency is the telemetry itself; see above
	if err != nil {
		p.fitErrors.Inc()
	} else {
		p.acceptRate.Set(post.acceptRate)
	}
	return post, err
}

// fit is the uninstrumented fit body.
func (p *Predictor) fit(y []float64, xlim int, seed int64) (*Posterior, error) {
	if len(y) < MinObservations {
		return nil, fmt.Errorf("%w: have %d, need %d", ErrTooFewObservations, len(y), MinObservations)
	}
	if xlim <= len(y) {
		xlim = len(y) + 1
	}
	for i, v := range y {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("curve: observation %d is not finite", i)
		}
	}

	e := newEnsemble(p.models, xlim)
	sampleSeed := p.cfg.Seed ^ seed ^ int64(len(y))*0x9e37
	rng := rand.New(rand.NewSource(sampleSeed))

	// Initialize each walker from its own asymptote hypothesis spread
	// over [slightly-below-current, 1.02]: short prefixes genuinely do
	// not constrain where the curve tops out, and the ensemble must
	// represent that uncertainty for P(m, y) to be honest.
	yn := y[len(y)-1]
	sc := getScratch()
	defer putScratch(sc)
	defaultInit := e.initVector(y, DefaultAsym(y), sc)
	scales := e.scales()
	walkers := make([][]float64, p.cfg.Walkers)
	logps := make([]float64, p.cfg.Walkers)
	for i := range walkers {
		w := make([]float64, e.dim)
		for attempt := 0; ; attempt++ {
			lo := yn - 0.05
			if lo < 0.02 {
				lo = 0.02
			}
			asym := lo + rng.Float64()*(1.02-lo)
			init := e.initVector(y, asym, sc)
			jitter := 0.05 + 0.10*float64(attempt%5)
			for d := range w {
				w[d] = init[d] + jitter*scales[d]*rng.NormFloat64()
				// Weights must stay non-negative.
				if d < len(p.models) && w[d] < 0 {
					w[d] = -w[d]
				}
			}
			lp := e.logPosterior(y, w, sc)
			if !math.IsInf(lp, -1) {
				logps[i] = lp
				break
			}
			if attempt > 200 {
				// Fall back to the exact heuristic vector.
				copy(w, defaultInit)
				logps[i] = e.logPosterior(y, w, sc)
				break
			}
		}
		walkers[i] = w
	}

	burn := int(float64(p.cfg.Iters) * p.cfg.BurnFrac)
	total := (p.cfg.Iters - burn) * p.cfg.Walkers
	stride := 1
	if p.cfg.MaxSamples > 0 && total > p.cfg.MaxSamples {
		// Ceiling division: a floor stride keeps up to ~2x MaxSamples
		// (e.g. total=2999, cap=2000 -> stride 1 -> 2999 kept), which
		// inflates every downstream prediction pass.
		stride = (total + p.cfg.MaxSamples - 1) / p.cfg.MaxSamples
	}

	// Kept draws share one backing array sized up front: one allocation
	// per fit instead of one per draw plus the slice's regrowth.
	kept := (total + stride - 1) / stride
	post := &Posterior{ens: e, horizon: xlim, workers: p.cfg.workers(), samples: make([][]float64, 0, kept)}
	backing := make([]float64, kept*e.dim)
	count := 0
	s := &sampler{logProb: func(th []float64, s *scratch) float64 { return e.logPosterior(y, th, s) }, dim: e.dim, a: p.cfg.StretchA, workers: p.cfg.workers()}
	accepted := s.run(walkers, logps, p.cfg.Iters, burn, sampleSeed, func(th []float64, lp float64) {
		if count%stride == 0 {
			cp := backing[:len(th):len(th)]
			backing = backing[len(th):]
			copy(cp, th)
			post.samples = append(post.samples, cp)
		}
		count++
	})
	post.acceptRate = float64(accepted) / float64(p.cfg.Iters*p.cfg.Walkers)
	if len(post.samples) == 0 {
		return nil, errors.New("curve: sampler kept no samples")
	}
	return post, nil
}

// Posterior is a sampled posterior over learning curves.
type Posterior struct {
	ens        *ensemble
	samples    [][]float64
	horizon    int
	acceptRate float64
	workers    int // sweep fan-out width, inherited from Config

	mu     sync.Mutex
	cache  map[int][2]float64 // epoch -> (mean, std) of the mean curve
	sorted map[int][]float64  // epoch -> ascending finite sample values
}

// NumSamples reports the kept posterior sample count.
func (p *Posterior) NumSamples() int { return len(p.samples) }

// AcceptRate reports the MCMC acceptance rate (diagnostic).
func (p *Posterior) AcceptRate() float64 { return p.acceptRate }

// Horizon returns the xlim the posterior was fitted for.
func (p *Posterior) Horizon() int { return p.horizon }

// ProbAtLeast returns P(y(m) >= y | observations): the posterior
// probability that the metric is at least y at epoch m, marginalizing
// over curves and observation noise. It is a width-1 ProbSweep, so the
// scalar and batch paths share one summation tree and agree bit for
// bit.
func (p *Posterior) ProbAtLeast(m int, y float64) float64 {
	return p.ProbSweep(m, m, y)[0]
}

// sweepBlock is the fixed sample-block size of the sweep summation
// tree: contributions are accumulated serially within each block and
// the block partials combined in block order. The tree shape is part
// of the result — independent of worker count and GOMAXPROCS — so
// sweeps stay bit-identical however they are scheduled.
const sweepBlock = 256

// sweepParallelWork is the epochs x samples product below which a
// sweep runs on the calling goroutine: fanning a pool out over less
// work than this costs more than it saves.
const sweepParallelWork = 1 << 14

// ProbSweep returns P(y(m) >= target | observations) for every epoch
// m in [from, to] inclusive (element k corresponds to m = from+k) in
// one sample-major pass: each posterior sample's curve is evaluated
// once over the whole epoch column and its noise scale once in total,
// instead of once per (epoch, query) as repeated ProbAtLeast calls
// would, and sample blocks fan out across the fit's worker pool when
// the range is wide enough to pay for it. Element k is bit-identical
// to ProbAtLeast(from+k, target) — the scalar path is a width-1 sweep
// over the same fixed summation tree.
func (p *Posterior) ProbSweep(from, to int, target float64) []float64 {
	if to < from {
		to = from
	}
	width := to - from + 1
	col := p.ens.column(from, to) // epochs below 1 clamp like the scalar path
	n := len(p.samples)
	nb := (n + sweepBlock - 1) / sweepBlock
	sums := make([][]float64, nb)
	counts := make([][]int, nb)
	p.forBlocks(nb, width*n, func(b int) {
		lo, hi := b*sweepBlock, (b+1)*sweepBlock
		if hi > n {
			hi = n
		}
		bs := make([]float64, width)
		bc := make([]int, width)
		sc := getScratch()
		defer putScratch(sc)
		for _, th := range p.samples[lo:hi] {
			sigma := p.ens.sigma(th)
			for k, pred := range p.ens.eval(sc, col, th) {
				if math.IsNaN(pred) {
					continue
				}
				bs[k] += gaussCDF((pred - target) / sigma)
				bc[k]++
			}
		}
		sums[b], counts[b] = bs, bc
	})
	out := make([]float64, width)
	outc := make([]int, width)
	for b := 0; b < nb; b++ {
		for k := 0; k < width; k++ {
			out[k] += sums[b][k]
			outc[k] += counts[b][k]
		}
	}
	for k := range out {
		if outc[k] == 0 {
			out[k] = 0
			continue
		}
		out[k] /= float64(outc[k])
	}
	return out
}

// forBlocks invokes fn(0 .. nb-1), striding the blocks across the
// worker pool when the total work justifies goroutines. Blocks write
// disjoint slots, so scheduling never affects results.
func (p *Posterior) forBlocks(nb, work int, fn func(b int)) {
	workers := p.workers
	if workers > nb {
		workers = nb
	}
	if workers <= 1 || work < sweepParallelWork {
		for b := 0; b < nb; b++ {
			fn(b)
		}
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := w; b < nb; b += workers {
				fn(b)
			}
		}(w)
	}
	wg.Wait()
}

// Predict returns the posterior mean and standard deviation of the
// mean curve at epoch m. The standard deviation is the paper's
// "prediction accuracy" PA (§3.1.1): the std across MCMC samples.
//
// The O(samples) computation runs while the posterior mutex is held,
// which doubles as a single-flight: concurrent boundary estimates for
// the same epoch wait for the first computation instead of duplicating
// it (the previous check-unlock-recompute-lock pattern stampeded).
func (p *Posterior) Predict(m int) (mean, std float64) {
	if m < 1 {
		m = 1
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.predictLocked(m)
}

// predictLocked computes (or returns the cached) mean/std at epoch m.
// Callers hold p.mu; m is already clamped to >= 1.
func (p *Posterior) predictLocked(m int) (mean, std float64) {
	if v, ok := p.cache[m]; ok {
		return v[0], v[1]
	}
	col := p.ens.column(m, m)
	sc := getScratch()
	defer putScratch(sc)
	var sum, sumsq float64
	n := 0
	for _, th := range p.samples {
		pred := p.ens.eval(sc, col, th)[0]
		if math.IsNaN(pred) {
			continue
		}
		sum += pred
		sumsq += pred * pred
		n++
	}
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	mean = sum / float64(n)
	variance := sumsq/float64(n) - mean*mean
	if variance < 0 {
		variance = 0
	}
	std = math.Sqrt(variance)
	if p.cache == nil {
		p.cache = make(map[int][2]float64)
	}
	p.cache[m] = [2]float64{mean, std}
	return mean, std
}

// PredictRange returns Predict(m) for every m in [from, to] inclusive
// under a single lock hold, filling the shared (mean, std) cache as it
// goes: one mutex round trip and one cache pass per epoch range
// instead of one per epoch.
func (p *Posterior) PredictRange(from, to int) (means, stds []float64) {
	if from < 1 {
		from = 1
	}
	if to < from {
		to = from
	}
	means = make([]float64, 0, to-from+1)
	stds = make([]float64, 0, to-from+1)
	p.mu.Lock()
	defer p.mu.Unlock()
	for m := from; m <= to; m++ {
		mu, sd := p.predictLocked(m)
		means = append(means, mu)
		stds = append(stds, sd)
	}
	return means, stds
}

// Band returns the predicted mean curve and +/- one posterior std band
// for epochs from (1-based) to (inclusive); used to draw Figures 2c
// and 3.
func (p *Posterior) Band(from, to int) (means, stds []float64) {
	return p.PredictRange(from, to)
}

// gaussCDF is the standard normal CDF.
func gaussCDF(z float64) float64 {
	return 0.5 * math.Erfc(-z/math.Sqrt2)
}

// Quantile returns the q-quantile (0..1) of the posterior mean-curve
// distribution at epoch m — the credible bands of Figures 2c and 3.
// The per-epoch sorted sample values are cached, so repeated quantile
// queries at one epoch (CredibleBand issues two) evaluate and sort the
// samples once instead of per call.
func (p *Posterior) Quantile(m int, q float64) float64 {
	if m < 1 {
		m = 1
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	p.mu.Lock()
	vals := p.sortedLocked(m)
	p.mu.Unlock()
	if len(vals) == 0 {
		return math.NaN()
	}
	idx := q * float64(len(vals)-1)
	lo := int(idx)
	if lo >= len(vals)-1 {
		return vals[len(vals)-1]
	}
	frac := idx - float64(lo)
	return vals[lo]*(1-frac) + vals[lo+1]*frac
}

// sortedLocked returns the ascending finite sample values at epoch m,
// computing and caching them on first use. Callers hold p.mu; the
// returned slice is never mutated after insertion, so reading it after
// the unlock is safe.
func (p *Posterior) sortedLocked(m int) []float64 {
	if v, ok := p.sorted[m]; ok {
		return v
	}
	col := p.ens.column(m, m)
	sc := getScratch()
	defer putScratch(sc)
	vals := make([]float64, 0, len(p.samples))
	for _, th := range p.samples {
		v := p.ens.eval(sc, col, th)[0]
		if !math.IsNaN(v) {
			vals = append(vals, v)
		}
	}
	sort.Float64s(vals)
	if p.sorted == nil {
		p.sorted = make(map[int][]float64)
	}
	p.sorted[m] = vals
	return vals
}

// CredibleBand returns the [lo, hi] quantile band at epoch m, e.g.
// (0.05, 0.95) for a 90% band.
func (p *Posterior) CredibleBand(m int, lo, hi float64) (low, high float64) {
	return p.Quantile(m, lo), p.Quantile(m, hi)
}
