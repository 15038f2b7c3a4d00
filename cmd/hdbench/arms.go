package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// armStats summarises one arm's timed reps. Min is the gate
// statistic: scheduler and co-tenant noise only ever adds time, so the
// minimum is the robust estimate of true cost on a busy host. Median
// and IQR record how far the reps spread around it.
type armStats struct {
	Name     string  `json:"name"`
	Reps     int     `json:"reps"`
	MinMS    float64 `json:"min_ms"`
	MedianMS float64 `json:"median_ms"`
	IQRMS    float64 `json:"iqr_ms"`
}

// armSet is the per-arm result of one measureArms call, in arm order.
type armSet []armStats

// get returns the named arm (zero stats when absent).
func (s armSet) get(name string) armStats {
	for _, a := range s {
		if a.Name == name {
			return a
		}
	}
	return armStats{Name: name}
}

// pct is the arm's min-over-reps cost relative to base's, in percent.
func (s armSet) pct(arm, base string) float64 {
	b := s.get(base).MinMS
	if b == 0 {
		return 0
	}
	return (s.get(arm).MinMS - b) / b * 100
}

// ratio is base's min over the arm's min: the arm's speedup.
func (s armSet) ratio(base, arm string) float64 {
	a := s.get(arm).MinMS
	if a == 0 {
		return 0
	}
	return s.get(base).MinMS / a
}

// measureArms is the one arm runner every comparison in hdbench goes
// through. run executes one rep of the named arm and returns its own
// timed window, so per-rep setup (building a pool, booting a server)
// stays outside the measurement. Each call starts from a collected
// heap; every arm runs once untimed to warm up, then each rep runs all
// arms with the order rotated by one, so slow host drift lands on
// every arm alike instead of on whichever arm runs last. The first run
// error aborts the measurement.
func measureArms(arms []string, reps int, run func(arm string) (time.Duration, error)) (armSet, error) {
	call := func(arm string) (time.Duration, error) {
		runtime.GC()
		return run(arm)
	}
	for _, a := range arms {
		if _, err := call(a); err != nil {
			return nil, fmt.Errorf("%s warm-up: %w", a, err)
		}
	}
	samples := make([][]float64, len(arms))
	for r := 0; r < reps; r++ {
		for j := range arms {
			k := (r + j) % len(arms)
			d, err := call(arms[k])
			if err != nil {
				return nil, fmt.Errorf("%s rep %d: %w", arms[k], r, err)
			}
			samples[k] = append(samples[k], d.Seconds()*1e3)
		}
	}
	out := make(armSet, len(arms))
	for k, a := range arms {
		sorted := samples[k]
		sort.Float64s(sorted)
		out[k] = armStats{
			Name:     a,
			Reps:     reps,
			MinMS:    quantile(sorted, 0),
			MedianMS: quantile(sorted, 0.5),
			IQRMS:    quantile(sorted, 0.75) - quantile(sorted, 0.25),
		}
	}
	return out, nil
}

// quantile is the nearest-rank order statistic of an ascending sample:
// always an observed value, never an interpolation. q=0 is the minimum.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// host records where a report was measured. Every report embeds it,
// so writeReport can stamp it.
type host struct {
	Cores      int    `json:"cores"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

func (h *host) stamp() {
	*h = host{Cores: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
}

// writeReport stamps the host into rep and writes it to path as
// indented JSON.
func writeReport(path string, rep interface{ stamp() }) error {
	rep.stamp()
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("report written to %s\n", path)
	return nil
}

// scaleOf validates the shared -scale flag for the benches: full is
// the committed-baseline scale, fast the smoke scale check.sh runs.
func scaleOf(scale string) (full bool, err error) {
	switch scale {
	case "full":
		return true, nil
	case "fast":
		return false, nil
	}
	return false, fmt.Errorf("unknown -scale %q (want fast or full)", scale)
}
