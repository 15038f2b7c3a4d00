package curve

import (
	"math"
	"math/rand"
	"sync"
)

// sampler runs Goodman & Weare's affine-invariant ensemble MCMC
// ("stretch move", the algorithm behind emcee, which the reference
// pylearningcurvepredictor uses). Each walker is updated by stretching
// toward a randomly chosen complementary walker:
//
//	Y = X_j + z (X_i - X_j),  z ~ g(z) ∝ 1/sqrt(z) on [1/a, a]
//
// accepted with probability min(1, z^(d-1) p(Y)/p(X_i)).
//
// The ensemble is parallelized with the red/black half-ensemble scheme
// of Foreman-Mackey et al. (the emcee §3 parallelization): walkers are
// split into two fixed halves, and each half is updated as a block
// with every proposal stretching toward a walker of the *frozen*
// complementary half. Within a half, walker i mutates only its own
// state and draws every random number (complement index, stretch z,
// accept u) from its own seeded stream, so the accept/reject sequence
// depends only on (walker index, iteration) — never on goroutine
// scheduling. Posterior draws are therefore bit-identical for any
// worker count and any GOMAXPROCS.
type sampler struct {
	// logProb evaluates a position in the calling walker's scratch.
	logProb func(th []float64, s *scratch) float64
	dim     int
	a       float64 // stretch parameter, conventionally 2
	workers int     // parallel evaluators per half; <= 1 runs serial
}

// walker is the per-chain state: position, cached log-probability, a
// private RNG stream, a reusable proposal buffer, and the evaluation
// scratch its logProb calls run in.
type walker struct {
	pos      []float64
	logp     float64
	rng      *rand.Rand
	proposal []float64
	scratch  *scratch
	accepted int
}

// walkerSeed derives walker i's RNG stream from the fit seed by
// splitmix64-style mixing, so streams are decorrelated from each other
// and from the initialization RNG.
func walkerSeed(seed int64, i int) int64 {
	z := uint64(seed) ^ 0x9e3779b97f4a7c15
	z += uint64(i+1) * 0xbf58476d1ce4e5b9
	z ^= z >> 30
	z *= 0x94d049bb133111eb
	z ^= z >> 27
	return int64(z)
}

// drawZ samples from g(z) ∝ 1/sqrt(z) on [1/a, a] via inverse CDF:
// z = ((a-1)u + 1)^2 / a.
func drawZ(a float64, rng *rand.Rand) float64 {
	u := rng.Float64()
	v := (math.Sqrt(a)-1/math.Sqrt(a))*u + 1/math.Sqrt(a)
	return v * v
}

// run advances an ensemble of walkers for iters steps, invoking keep
// with every walker position (in walker order) after each step past
// burn. Positions passed to keep must not be retained without copying;
// run reuses buffers. seed roots the per-walker RNG streams. It
// returns the number of accepted moves (for diagnostics).
func (s *sampler) run(positions [][]float64, logps []float64, iters, burn int, seed int64, keep func(th []float64, logp float64)) int {
	n := len(positions)
	ws := make([]walker, n)
	for i := range ws {
		ws[i] = walker{
			pos:      positions[i],
			logp:     logps[i],
			rng:      rand.New(rand.NewSource(walkerSeed(seed, i))),
			proposal: make([]float64, s.dim),
			scratch:  getScratch(),
		}
	}
	defer func() {
		for i := range ws {
			putScratch(ws[i].scratch)
		}
	}()
	half := n / 2
	for it := 0; it < iters; it++ {
		// First half proposes against the frozen second half, then the
		// second half against the just-updated (now frozen) first half.
		s.updateHalf(ws, 0, half, half, n)
		s.updateHalf(ws, half, n, 0, half)
		if it >= burn {
			for i := range ws {
				keep(ws[i].pos, ws[i].logp)
			}
		}
	}
	accepted := 0
	for i := range ws {
		accepted += ws[i].accepted
	}
	return accepted
}

// updateHalf steps every walker in [lo, hi) against the frozen
// complementary block [clo, chi), fanning the independent walker
// updates (and their logProb evaluations) across the worker pool.
// Each walker touches only its own state, so the fan-out is race-free
// and, because all randomness is per-walker, order-independent.
func (s *sampler) updateHalf(ws []walker, lo, hi, clo, chi int) {
	count := hi - lo
	workers := s.workers
	if workers > count {
		workers = count
	}
	if workers <= 1 {
		for i := lo; i < hi; i++ {
			s.step(ws, i, clo, chi)
		}
		return
	}
	var wg sync.WaitGroup
	chunk := (count + workers - 1) / workers
	for start := lo; start < hi; start += chunk {
		end := start + chunk
		if end > hi {
			end = hi
		}
		wg.Add(1)
		go func(start, end int) {
			defer wg.Done()
			for i := start; i < end; i++ {
				s.step(ws, i, clo, chi)
			}
		}(start, end)
	}
	wg.Wait()
}

// step advances one walker: draw a complement from the frozen block,
// stretch, evaluate, accept/reject. All three draws come from the
// walker's own stream in a fixed order, so the outcome is a pure
// function of (walker state, iteration).
func (s *sampler) step(ws []walker, i, clo, chi int) {
	w := &ws[i]
	j := clo + w.rng.Intn(chi-clo)
	z := drawZ(s.a, w.rng)
	u := w.rng.Float64()
	xj := ws[j].pos
	for d := 0; d < s.dim; d++ {
		w.proposal[d] = xj[d] + z*(w.pos[d]-xj[d])
	}
	lp := s.logProb(w.proposal, w.scratch)
	logAccept := float64(s.dim-1)*math.Log(z) + lp - w.logp
	if lp > math.Inf(-1) && (logAccept >= 0 || math.Log(u+1e-300) < logAccept) {
		w.pos, w.proposal = w.proposal, w.pos
		w.logp = lp
		w.accepted++
	}
}
