package main

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"
)

// scriptedRun returns a run func that records every call and answers
// each arm with the next of its scripted durations (in ms).
func scriptedRun(script map[string][]float64, calls *[]string) func(string) (time.Duration, error) {
	next := map[string]int{}
	return func(arm string) (time.Duration, error) {
		*calls = append(*calls, arm)
		ms := script[arm][next[arm]]
		next[arm]++
		return time.Duration(ms * float64(time.Millisecond)), nil
	}
}

func TestMeasureArmsOrderAndStats(t *testing.T) {
	// The first value of each script is the warm-up, which must not
	// reach the statistics: it is far out of range on purpose.
	script := map[string][]float64{
		"a": {1000, 5, 1, 4, 2, 3},
		"b": {1000, 10, 30, 20, 50, 40},
		"c": {1000, 7, 7, 7, 7, 7},
	}
	var calls []string
	got, err := measureArms([]string{"a", "b", "c"}, 5, scriptedRun(script, &calls))
	if err != nil {
		t.Fatal(err)
	}

	want := []string{
		"a", "b", "c", // one warm-up per arm
		"a", "b", "c", // rep 0
		"b", "c", "a", // rep 1: rotated by one
		"c", "a", "b", // rep 2
		"a", "b", "c", // rep 3
		"b", "c", "a", // rep 4
	}
	if !reflect.DeepEqual(calls, want) {
		t.Fatalf("call order\n got %v\nwant %v", calls, want)
	}

	// Nearest-rank statistics over the five timed reps of each arm.
	wantStats := []armStats{
		{Name: "a", Reps: 5, MinMS: 1, MedianMS: 3, IQRMS: 4 - 2},
		{Name: "b", Reps: 5, MinMS: 10, MedianMS: 30, IQRMS: 40 - 20},
		{Name: "c", Reps: 5, MinMS: 7, MedianMS: 7, IQRMS: 0},
	}
	if !reflect.DeepEqual([]armStats(got), wantStats) {
		t.Fatalf("stats\n got %+v\nwant %+v", got, wantStats)
	}
	if p := got.pct("b", "a"); p != 900 {
		t.Fatalf("pct(b, a) = %v, want 900", p)
	}
	if r := got.ratio("b", "a"); r != 10 {
		t.Fatalf("ratio(b, a) = %v, want 10", r)
	}
}

func TestMeasureArmsAbortsOnFirstError(t *testing.T) {
	boom := errors.New("boom")
	var calls []string
	_, err := measureArms([]string{"a", "b"}, 3, func(arm string) (time.Duration, error) {
		calls = append(calls, arm)
		if len(calls) == 4 { // rep 0, arm b
			return 0, boom
		}
		return time.Millisecond, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if !strings.Contains(err.Error(), "b rep 0") {
		t.Fatalf("err %q does not name the failing arm and rep", err)
	}
	if len(calls) != 4 {
		t.Fatalf("%d runs after the error, want none (calls %v)", len(calls)-4, calls)
	}
}

func TestQuantileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.25, 1}, {0.5, 2}, {0.75, 3}, {0.99, 4}, {1, 4},
	} {
		if got := quantile(s, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of empty sample = %v, want 0", got)
	}
}
