package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
	"time"
)

// lastLine parses the result line a run printed last.
func lastLine(t *testing.T, out string) (map[string]json.RawMessage, map[string]metric) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var top map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &top); err != nil {
		t.Fatalf("last line is not a JSON object: %v\n%s", err, out)
	}
	var ms map[string]metric
	if err := json.Unmarshal(top["metrics"], &ms); err != nil {
		t.Fatalf("metrics: %v", err)
	}
	return top, ms
}

// TestWorkloadsTiny runs every workload once per mode at tiny scale and
// checks the result line: exactly the four keys, a passing run, and
// every named metric with its unit.
func TestWorkloadsTiny(t *testing.T) {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, wl := range names {
		for _, traced := range []bool{false, true} {
			wl, traced := wl, traced
			t.Run(wl+map[bool]string{false: "/e2e", true: "/traced"}[traced], func(t *testing.T) {
				var buf bytes.Buffer
				ok, err := execute(config{Workload: wl, Seed: 1, Seconds: 0.5, Trace: traced, tiny: true}, &buf)
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					t.Fatalf("run failed its checks:\n%s", buf.String())
				}
				top, ms := lastLine(t, buf.String())
				keys := make([]string, 0, len(top))
				for k := range top {
					keys = append(keys, k)
				}
				sort.Strings(keys)
				if got := strings.Join(keys, ","); got != "attempted,correct,failed,metrics" {
					t.Errorf("result keys %s", got)
				}
				want, unit := e2eNames, func(n string) string { return e2eUnits[n] }
				if traced {
					want, unit = layerNames, layerUnit
				}
				if len(ms) != len(want) {
					t.Errorf("%d metrics printed, want %d", len(ms), len(want))
				}
				for _, n := range want {
					m, found := ms[n]
					if !found {
						t.Errorf("metric %s missing", n)
						continue
					}
					if m.Unit != unit(n) {
						t.Errorf("metric %s has unit %q, want %q", n, m.Unit, unit(n))
					}
					if !traced && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want positive", n, m.Value)
					}
				}
				if !strings.Contains(buf.String(), "nproc=") || !strings.Contains(buf.String(), "seed=1") {
					t.Errorf("report lacks provenance:\n%s", buf.String())
				}
			})
		}
	}
}

// TestCorruptDigestFails: a replay whose digest differs from the first
// replay of its population must fail the run.
func TestCorruptDigestFails(t *testing.T) {
	for _, wl := range []string{"sim-pop", "sim-baselines"} {
		var buf bytes.Buffer
		ok, err := execute(config{Workload: wl, Seed: 2, Seconds: 0.2, tiny: true, corruptDigest: true}, &buf)
		if err != nil {
			t.Fatal(err)
		}
		if ok || !strings.Contains(buf.String(), "CHECK FAILED") {
			t.Errorf("%s: corrupted digest passed:\n%s", wl, buf.String())
		}
		if top, _ := lastLine(t, buf.String()); string(top["correct"]) != "false" {
			t.Errorf("%s: result line says correct=%s", wl, top["correct"])
		}
	}
}

// TestBudgetStopFails: a live experiment cut short by its time budget
// must fail the fixed-work guard.
func TestBudgetStopFails(t *testing.T) {
	var buf bytes.Buffer
	ok, err := execute(config{Workload: "live-barrier", Seed: 3, Seconds: 0.2, tiny: true, liveMaxDuration: time.Hour}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if ok || !strings.Contains(buf.String(), "budget") {
		t.Errorf("budget stop passed:\n%s", buf.String())
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the program in step:
// every gated workload is implemented, and the metric names and units
// agree.
func TestBenchmarkJSONMatches(t *testing.T) {
	body, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(body, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) < 2 {
		t.Errorf("BENCHMARK.json names %d workloads, want at least 2", len(b.Workloads))
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s is not implemented", w.Name)
		}
	}
	if len(b.EndToEnd) != len(e2eNames) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(b.EndToEnd), len(e2eNames))
	}
	for i, m := range b.EndToEnd {
		if i < len(e2eNames) && (m.Name != e2eNames[i] || m.Unit != e2eUnits[m.Name]) {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %s/%s, program %s/%s", i, m.Name, m.Unit, e2eNames[i], e2eUnits[e2eNames[i]])
		}
	}
	if len(b.PerLayer) != len(layerNames) {
		t.Errorf("BENCHMARK.json has %d per-layer metrics, the program %d", len(b.PerLayer), len(layerNames))
	}
	for i, m := range b.PerLayer {
		if i < len(layerNames) && (m.Name != layerNames[i] || m.Unit != layerUnit(m.Name)) {
			t.Errorf("per-layer metric %d: BENCHMARK.json %s/%s, program %s/%s", i, m.Name, m.Unit, layerNames[i], layerUnit(layerNames[i]))
		}
	}
}

func TestTailAndMedian(t *testing.T) {
	var s samples
	for i := 1; i <= 100; i++ {
		s.add(float64(i))
	}
	if m := s.median(); m != 50.5 {
		t.Errorf("median %v, want 50.5", m)
	}
	// p90 is the highest rank with at least ten samples beyond it.
	if p, v, ok := s.tail(); !ok || p != 90 || v != 90 {
		t.Errorf("tail p%v=%v ok=%v, want p90=90", p, v, ok)
	}
	if _, _, ok := samples([]float64{1, 2, 3}).tail(); ok {
		t.Error("three samples have no tail")
	}
}

func TestFrameCounter(t *testing.T) {
	frame := func(body string) []byte {
		n := len(body)
		return append([]byte{byte(n >> 24), byte(n >> 16), byte(n >> 8), byte(n)}, body...)
	}
	stream := append(append(frame("hello"), frame("")...), frame("a longer body")...)
	var fc frameCounter
	var got int64
	for _, b := range stream { // one byte at a time: split headers too
		got += fc.feed([]byte{b})
	}
	if got != 3 {
		t.Errorf("counted %d frames, want 3", got)
	}
}
