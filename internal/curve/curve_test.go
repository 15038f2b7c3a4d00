package curve

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestModelsCount(t *testing.T) {
	if got := len(Models()); got != 11 {
		t.Fatalf("Models() returned %d families, want 11 (paper §3.1.1)", got)
	}
	seen := make(map[string]bool)
	for _, m := range Models() {
		if seen[m.Name()] {
			t.Fatalf("duplicate model name %q", m.Name())
		}
		seen[m.Name()] = true
		if m.NumParams() != len(m.Scales()) {
			t.Fatalf("%s: NumParams %d != len(Scales) %d", m.Name(), m.NumParams(), len(m.Scales()))
		}
	}
}

// TestModelInitFinite checks every family's heuristic initialization
// produces finite, roughly on-scale values over the whole horizon.
func TestModelInitFinite(t *testing.T) {
	y := []float64{0.12, 0.2, 0.3, 0.35, 0.42, 0.45, 0.5, 0.52}
	for _, m := range Models() {
		th := m.Init(y, DefaultAsym(y))
		if len(th) != m.NumParams() {
			t.Fatalf("%s: Init returned %d params, want %d", m.Name(), len(th), m.NumParams())
		}
		for x := 1; x <= 200; x++ {
			v := evalAt(m, float64(x), th)
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%s: f(%d) not finite with Init params", m.Name(), x)
			}
			if v < -2 || v > 3 {
				t.Fatalf("%s: f(%d) = %v wildly off metric scale", m.Name(), x, v)
			}
		}
	}
}

func TestModelInvalidParamsReturnNaN(t *testing.T) {
	if v := evalAt(pow4Model{}, 1, []float64{0.5, -2, 0, 0.5}); !math.IsNaN(v) {
		t.Fatalf("pow4 with non-positive base = %v, want NaN", v)
	}
	if v := evalAt(logLogLinearModel{}, 1, []float64{0, -1}); !math.IsNaN(v) {
		t.Fatalf("logloglinear with non-positive arg = %v, want NaN", v)
	}
}

func TestEnsembleLayout(t *testing.T) {
	e := newEnsemble(Models(), 120)
	wantDim := len(Models()) + 1 // weights + logSigma
	for _, m := range Models() {
		wantDim += m.NumParams()
	}
	if e.dim != wantDim {
		t.Fatalf("dim = %d, want %d", e.dim, wantDim)
	}
	y := []float64{0.1, 0.2, 0.3, 0.4}
	th := e.initVector(y, DefaultAsym(y), new(scratch))
	if len(th) != e.dim {
		t.Fatalf("initVector len = %d, want %d", len(th), e.dim)
	}
	if lp := e.logPosterior(y, th, new(scratch)); math.IsInf(lp, -1) || math.IsNaN(lp) {
		t.Fatalf("init vector has invalid posterior %v", lp)
	}
}

func TestEnsemblePriorRejects(t *testing.T) {
	e := newEnsemble(Models(), 120)
	y := []float64{0.1, 0.2, 0.3, 0.4}
	th := e.initVector(y, DefaultAsym(y), new(scratch))

	bad := append([]float64(nil), th...)
	bad[0] = -0.1 // negative weight
	if !math.IsInf(e.logPrior(bad, new(scratch)), -1) {
		t.Fatal("prior accepted negative weight")
	}

	bad = append([]float64(nil), th...)
	for i := range Models() {
		bad[i] = 0 // zero weight sum
	}
	if !math.IsInf(e.logPrior(bad, new(scratch)), -1) {
		t.Fatal("prior accepted zero weight sum")
	}

	bad = append([]float64(nil), th...)
	bad[len(bad)-1] = math.Log(5) // absurd noise
	if !math.IsInf(e.logPrior(bad, new(scratch)), -1) {
		t.Fatal("prior accepted sigma > 0.5")
	}
}

func TestSamplerDrawZBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 10000; i++ {
		z := drawZ(2, rng)
		if z < 0.5-1e-12 || z > 2+1e-12 {
			t.Fatalf("drawZ = %v out of [1/a, a]", z)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	tests := []struct {
		name string
		mut  func(*Config)
	}{
		{"few walkers", func(c *Config) { c.Walkers = 1 }},
		{"few iters", func(c *Config) { c.Iters = 1 }},
		{"bad burn", func(c *Config) { c.BurnFrac = 1.0 }},
		{"bad stretch", func(c *Config) { c.StretchA = 1.0 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := FastConfig()
			tt.mut(&cfg)
			if _, err := NewPredictor(cfg); err == nil {
				t.Fatal("NewPredictor accepted invalid config")
			}
		})
	}
	if _, err := NewPredictor(PaperConfig()); err != nil {
		t.Fatal(err)
	}
}

func TestFitRejectsShortAndBadInput(t *testing.T) {
	p := MustPredictor(FastConfig())
	if _, err := p.Fit([]float64{0.1, 0.2}, 120, 1); !errors.Is(err, ErrTooFewObservations) {
		t.Fatalf("err = %v, want ErrTooFewObservations", err)
	}
	if _, err := p.Fit([]float64{0.1, 0.2, math.NaN(), 0.3}, 120, 1); err == nil {
		t.Fatal("Fit accepted NaN observation")
	}
}

// synthCurve generates a noisy Janoschek-style rising curve.
func synthCurve(n int, final, rate, noise float64, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	y := make([]float64, n)
	for i := range y {
		x := float64(i + 1)
		y[i] = 0.1 + (final-0.1)*(1-math.Exp(-rate*x)) + noise*rng.NormFloat64()
	}
	return y
}

func TestFitRisingCurve(t *testing.T) {
	p := MustPredictor(FastConfig())
	obs := synthCurve(30, 0.80, 0.035, 0.008, 42)
	post, err := p.Fit(obs, 120, 7)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("samples=%d accept=%.2f", post.NumSamples(), post.AcceptRate())
	if post.AcceptRate() < 0.02 || post.AcceptRate() > 0.95 {
		t.Errorf("acceptance rate %.3f looks pathological", post.AcceptRate())
	}

	// In-sample fit: posterior mean near the observations.
	mean, _ := post.Predict(30)
	if math.Abs(mean-obs[29]) > 0.08 {
		t.Errorf("Predict(30) = %.3f, observed %.3f", mean, obs[29])
	}

	// A curve racing to 0.8 should look likely to clear 0.5 by the
	// horizon and unlikely to clear 0.95.
	if pr := post.ProbAtLeast(120, 0.5); pr < 0.6 {
		t.Errorf("P(y(120) >= 0.5) = %.3f, want high for a strong riser", pr)
	}
	if pr := post.ProbAtLeast(120, 0.97); pr > 0.5 {
		t.Errorf("P(y(120) >= 0.97) = %.3f, want low", pr)
	}
}

func TestFitFlatCurvePessimistic(t *testing.T) {
	p := MustPredictor(FastConfig())
	rng := rand.New(rand.NewSource(9))
	obs := make([]float64, 30)
	for i := range obs {
		obs[i] = 0.10 + 0.008*rng.NormFloat64()
	}
	post, err := p.Fit(obs, 120, 3)
	if err != nil {
		t.Fatal(err)
	}
	if pr := post.ProbAtLeast(120, 0.77); pr > 0.25 {
		t.Errorf("P(non-learner reaches 0.77) = %.3f, want small", pr)
	}
}

func TestProbAtLeastMonotoneInTarget(t *testing.T) {
	p := MustPredictor(FastConfig())
	post, err := p.Fit(synthCurve(25, 0.7, 0.04, 0.01, 5), 120, 5)
	if err != nil {
		t.Fatal(err)
	}
	prev := 1.1
	for _, y := range []float64{0.2, 0.4, 0.6, 0.8, 0.95} {
		pr := post.ProbAtLeast(120, y)
		if pr > prev+1e-9 {
			t.Fatalf("ProbAtLeast not monotone: P(>=%v) = %v after %v", y, pr, prev)
		}
		if pr < 0 || pr > 1 {
			t.Fatalf("ProbAtLeast out of [0,1]: %v", pr)
		}
		prev = pr
	}
}

func TestFitDeterministicGivenSeed(t *testing.T) {
	p := MustPredictor(FastConfig())
	obs := synthCurve(20, 0.6, 0.05, 0.01, 11)
	a, err := p.Fit(obs, 120, 99)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Fit(obs, 120, 99)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumSamples() != b.NumSamples() {
		t.Fatalf("sample counts differ: %d vs %d", a.NumSamples(), b.NumSamples())
	}
	pa, pb := a.ProbAtLeast(120, 0.6), b.ProbAtLeast(120, 0.6)
	if pa != pb {
		t.Fatalf("same seed gave different posteriors: %v vs %v", pa, pb)
	}
}

func TestPosteriorBand(t *testing.T) {
	p := MustPredictor(FastConfig())
	post, err := p.Fit(synthCurve(20, 0.6, 0.05, 0.01, 2), 120, 2)
	if err != nil {
		t.Fatal(err)
	}
	means, stds := post.Band(1, 50)
	if len(means) != 50 || len(stds) != 50 {
		t.Fatalf("band lengths = %d, %d, want 50", len(means), len(stds))
	}
	for i := range means {
		if math.IsNaN(means[i]) || stds[i] < 0 {
			t.Fatalf("band[%d] = (%v, %v)", i, means[i], stds[i])
		}
	}
	// Uncertainty should generally grow with extrapolation distance.
	if stds[49] < stds[5]*0.2 {
		t.Errorf("band std at 50 (%v) unexpectedly tiny vs at 6 (%v)", stds[49], stds[5])
	}
}

func TestPredictCacheConsistent(t *testing.T) {
	p := MustPredictor(FastConfig())
	post, err := p.Fit(synthCurve(20, 0.6, 0.05, 0.01, 4), 120, 4)
	if err != nil {
		t.Fatal(err)
	}
	m1, s1 := post.Predict(80)
	m2, s2 := post.Predict(80)
	if m1 != m2 || s1 != s2 {
		t.Fatal("cached Predict differs from first call")
	}
}

func TestFitClampsSmallHorizon(t *testing.T) {
	p := MustPredictor(FastConfig())
	obs := synthCurve(20, 0.6, 0.05, 0.01, 8)
	post, err := p.Fit(obs, 5 /* smaller than prefix */, 8)
	if err != nil {
		t.Fatal(err)
	}
	if post.Horizon() <= len(obs) {
		t.Fatalf("horizon %d not clamped past prefix %d", post.Horizon(), len(obs))
	}
}

func TestGaussCDF(t *testing.T) {
	tests := []struct {
		z, want float64
	}{
		{0, 0.5},
		{1.6448536269514722, 0.95},
		{-1.6448536269514722, 0.05},
	}
	for _, tt := range tests {
		if got := gaussCDF(tt.z); math.Abs(got-tt.want) > 1e-9 {
			t.Errorf("gaussCDF(%v) = %v, want %v", tt.z, got, tt.want)
		}
	}
}

func TestPredictorModelNames(t *testing.T) {
	p := MustPredictor(FastConfig())
	if p.ModelNames() == "" {
		t.Fatal("empty model names")
	}
}

// TestProbSweepMatchesProbAtLeast pins the batch API's contract:
// every element is bit-identical to the scalar call (both run the same
// fixed block-summation tree) and both agree with a plain serial
// marginalization oracle up to summation-order rounding.
func TestProbSweepMatchesProbAtLeast(t *testing.T) {
	p := MustPredictor(FastConfig())
	post, err := p.Fit(synthCurve(25, 0.7, 0.04, 0.01, 13), 120, 13)
	if err != nil {
		t.Fatal(err)
	}
	// Independent oracle: a straight sample loop over the raw draws.
	oracle := func(m int, target float64) float64 {
		if m < 1 {
			m = 1
		}
		ens := PosteriorEnsembleForTest(post)
		sc := new(scratch)
		var sum float64
		n := 0
		for _, th := range post.RawSamples() {
			pred := ens.eval(sc, ens.column(m, m), th)[0]
			if math.IsNaN(pred) {
				continue
			}
			sum += gaussCDF((pred - target) / ens.sigma(th))
			n++
		}
		if n == 0 {
			return 0
		}
		return sum / float64(n)
	}
	for _, target := range []float64{0.3, 0.6, 0.9} {
		sweep := post.ProbSweep(0, 120, target)
		if len(sweep) != 121 {
			t.Fatalf("sweep length %d, want 121", len(sweep))
		}
		for m := 0; m <= 120; m++ {
			if want := post.ProbAtLeast(m, target); sweep[m] != want {
				t.Fatalf("ProbSweep[%d] = %v, ProbAtLeast = %v (target %v)", m, sweep[m], want, target)
			}
			if want := oracle(m, target); math.Abs(sweep[m]-want) > 1e-12 {
				t.Fatalf("ProbSweep[%d] = %v, oracle = %v (target %v)", m, sweep[m], want, target)
			}
		}
	}
	// Degenerate range clamps like the scalar path.
	if got := post.ProbSweep(5, 3, 0.5); len(got) != 1 || got[0] != post.ProbAtLeast(5, 0.5) {
		t.Fatalf("inverted range: got %v", got)
	}
}

// TestPredictRangeMatchesPredict pins the batch mean/std path and its
// interaction with the shared cache.
func TestPredictRangeMatchesPredict(t *testing.T) {
	p := MustPredictor(FastConfig())
	post, err := p.Fit(synthCurve(25, 0.7, 0.04, 0.01, 17), 120, 17)
	if err != nil {
		t.Fatal(err)
	}
	// Warm part of the cache through the scalar path first.
	post.Predict(40)
	means, stds := post.PredictRange(1, 80)
	if len(means) != 80 || len(stds) != 80 {
		t.Fatalf("range lengths = %d, %d, want 80", len(means), len(stds))
	}
	for m := 1; m <= 80; m++ {
		wm, ws := post.Predict(m)
		if means[m-1] != wm || stds[m-1] != ws {
			t.Fatalf("PredictRange[%d] = (%v, %v), Predict = (%v, %v)", m, means[m-1], stds[m-1], wm, ws)
		}
	}
}

func TestPosteriorQuantiles(t *testing.T) {
	p := MustPredictor(FastConfig())
	post, err := p.Fit(synthCurve(20, 0.6, 0.05, 0.01, 6), 120, 6)
	if err != nil {
		t.Fatal(err)
	}
	q05, q95 := post.CredibleBand(100, 0.05, 0.95)
	med := post.Quantile(100, 0.5)
	if math.IsNaN(q05) || math.IsNaN(q95) || math.IsNaN(med) {
		t.Fatal("NaN quantiles")
	}
	if !(q05 <= med && med <= q95) {
		t.Fatalf("quantiles out of order: %v %v %v", q05, med, q95)
	}
	mean, _ := post.Predict(100)
	if mean < q05-0.05 || mean > q95+0.05 {
		t.Fatalf("mean %v far outside the 90%% band [%v, %v]", mean, q05, q95)
	}
	// Degenerate inputs clamp.
	if post.Quantile(100, -1) > post.Quantile(100, 2) {
		t.Fatal("clamped quantiles out of order")
	}
}

// TestScalarQueriesMatchSweepKernel pins the single evaluation path:
// Predict's mean, Quantile and ProbAtLeast (width-1 kernel calls) must
// equal, bit for bit, values recomputed here from one kernel pass per
// sample over ProbSweep's whole epoch range.
func TestScalarQueriesMatchSweepKernel(t *testing.T) {
	post, err := MustPredictor(FastConfig()).Fit(synthCurve(25, 0.7, 0.04, 0.01, 21), 120, 21)
	if err != nil {
		t.Fatal(err)
	}
	ens := PosteriorEnsembleForTest(post)
	samples := post.RawSamples()
	const from, to = 1, 120
	sweeps := map[float64][]float64{0.5: post.ProbSweep(from, to, 0.5), 0.75: post.ProbSweep(from, to, 0.75)}

	// One kernel pass per sample over the sweep's column.
	col := ens.column(from, to)
	sc := new(scratch)
	rows := make([][]float64, len(samples))
	for i, th := range samples {
		rows[i] = append([]float64(nil), ens.eval(sc, col, th)...)
	}

	for _, m := range []int{1, 7, 25, 26, 60, 119, 120} {
		k := m - from
		var sum float64
		var vals []float64
		for _, row := range rows {
			if v := row[k]; !math.IsNaN(v) {
				sum += v
				vals = append(vals, v)
			}
		}
		if mean, _ := post.Predict(m); mean != sum/float64(len(vals)) {
			t.Fatalf("Predict(%d) mean = %v, sweep kernel gives %v", m, mean, sum/float64(len(vals)))
		}

		sort.Float64s(vals)
		for _, q := range []float64{0.05, 0.5, 0.95} {
			idx := q * float64(len(vals)-1)
			lo := int(idx)
			frac := idx - float64(lo)
			want := vals[lo]*(1-frac) + vals[lo+1]*frac
			if got := post.Quantile(m, q); got != want {
				t.Fatalf("Quantile(%d, %v) = %v, sweep kernel gives %v", m, q, got, want)
			}
		}

		for target, sweep := range sweeps {
			// The sweep's fixed summation tree: serial within each
			// sweepBlock-sample block, block partials in block order.
			var total float64
			count := 0
			for lo := 0; lo < len(rows); lo += sweepBlock {
				var bs float64
				bc := 0
				for i := lo; i < len(rows) && i < lo+sweepBlock; i++ {
					if v := rows[i][k]; !math.IsNaN(v) {
						bs += gaussCDF((v - target) / ens.sigma(samples[i]))
						bc++
					}
				}
				total += bs
				count += bc
			}
			want := total / float64(count)
			if got := post.ProbAtLeast(m, target); got != want {
				t.Fatalf("ProbAtLeast(%d, %v) = %v, sweep kernel gives %v", m, target, got, want)
			}
			if sweep[k] != want {
				t.Fatalf("ProbSweep[%d] (target %v) = %v, sweep kernel gives %v", k, target, sweep[k], want)
			}
		}
	}
}

// TestLogPosteriorAllocatesNothing pins the sampler's hot path: once a
// walker's scratch has grown, a logPosterior evaluation allocates
// nothing.
func TestLogPosteriorAllocatesNothing(t *testing.T) {
	e := newEnsemble(Models(), 120)
	y := synthCurve(30, 0.7, 0.04, 0.01, 3)
	s := new(scratch)
	th := e.initVector(y, DefaultAsym(y), s)
	if lp := e.logPosterior(y, th, s); math.IsInf(lp, -1) {
		t.Fatalf("init vector has zero posterior density")
	}
	if allocs := testing.AllocsPerRun(200, func() { e.logPosterior(y, th, s) }); allocs != 0 {
		t.Fatalf("logPosterior allocates %v times per call, want 0", allocs)
	}
}
