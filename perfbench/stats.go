package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// samples is a set of raw observations. Every quantile the benchmark
// reports is an order statistic of these, never a histogram estimate.
type samples []float64

func (s *samples) add(v float64) { *s = append(*s, v) }

func (s *samples) addDur(d time.Duration) { *s = append(*s, float64(d)/float64(time.Millisecond)) }

func (s samples) sorted() []float64 {
	c := append([]float64(nil), s...)
	sort.Float64s(c)
	return c
}

// median is the middle order statistic (the mean of the two middle
// ones for an even count); 0 for no samples.
func (s samples) median() float64 {
	c := s.sorted()
	n := len(c)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return c[n/2]
	default:
		return (c[n/2-1] + c[n/2]) / 2
	}
}

func (s samples) sum() float64 {
	t := 0.0
	for _, v := range s {
		t += v
	}
	return t
}

func (s samples) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	return s.sum() / float64(len(s))
}

// tailRanks are the percentiles a tail is chosen from, highest last.
var tailRanks = []float64{50, 75, 90, 95, 99, 99.9, 99.99}

// tail returns the highest percentile in tailRanks with at least ten
// samples beyond it (nearest-rank), its value, and whether any rank
// qualified. Fewer than eleven samples have no tail.
func (s samples) tail() (rank, value float64, ok bool) {
	c := s.sorted()
	n := len(c)
	for _, p := range tailRanks {
		k := int(math.Ceil(p / 100 * float64(n))) // 1-based nearest rank
		if k < 1 {
			k = 1
		}
		if n-k < 10 {
			break
		}
		rank, value, ok = p, c[k-1], true
	}
	return rank, value, ok
}

// describe renders a sample set for the report: count, median, tail.
func (s samples) describe(unit string) string {
	if len(s) == 0 {
		return "n=0"
	}
	out := fmt.Sprintf("n=%d p50=%.4g%s", len(s), s.median(), unit)
	if p, v, ok := s.tail(); ok {
		out += fmt.Sprintf(" p%g=%.4g%s", p, v, unit)
	} else {
		c := s.sorted()
		out += fmt.Sprintf(" max=%.4g%s (no tail: <11 samples)", c[len(c)-1], unit)
	}
	return out
}

// tailOr0 is the tail value, or the maximum when too few samples exist
// for a tail, or 0 for no samples.
func (s samples) tailOr0() float64 {
	if _, v, ok := s.tail(); ok {
		return v
	}
	if len(s) == 0 {
		return 0
	}
	c := s.sorted()
	return c[len(c)-1]
}

// geomean is the geometric mean of positive values (0 when empty).
func geomean(vs ...float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	lg := 0.0
	for _, v := range vs {
		if v <= 0 {
			return 0
		}
		lg += math.Log(v)
	}
	return math.Exp(lg / float64(len(vs)))
}

// setupMedian times fn reps times and returns the median seconds; the
// value fn returns on the last call is kept, earlier ones are released
// through their cleanup.
func setupMedian[T any](reps int, fn func() (T, func(), error)) (T, func(), samples, error) {
	var times samples
	var last T
	var lastClean func()
	for i := 0; i < reps; i++ {
		if lastClean != nil {
			lastClean()
		}
		t0 := time.Now()
		v, clean, err := fn()
		if err != nil {
			return last, func() {}, times, err
		}
		times.add(time.Since(t0).Seconds())
		last, lastClean = v, clean
	}
	return last, lastClean, times, nil
}
