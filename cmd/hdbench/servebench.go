package main

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hyperdrive-ml/hyperdrive/internal/checkpoint"
	"github.com/hyperdrive-ml/hyperdrive/internal/clock"
	"github.com/hyperdrive-ml/hyperdrive/internal/cluster"
	"github.com/hyperdrive-ml/hyperdrive/internal/obs"
	"github.com/hyperdrive-ml/hyperdrive/internal/serve"
	"github.com/hyperdrive-ml/hyperdrive/internal/workload"
)

// serveLatencyReport is the submit→first-decision half of
// BENCH_serve.json: how long a tenant waits between POSTing an
// experiment and the scheduler's first recorded decision for it, over
// the full HTTP path (admission, broker lease, experiment boot, slot
// reservation, first training epoch, decision event). The quantiles
// are order statistics over every experiment's own firstDecisionMs.
type serveLatencyReport struct {
	Experiments int     `json:"experiments"`
	SlotsTotal  int     `json:"slots_total"`
	MaxJobsEach int     `json:"max_jobs_each"`
	Samples     int     `json:"samples"`
	P50MS       float64 `json:"p50_ms"`
	P99MS       float64 `json:"p99_ms"`
	WallMS      float64 `json:"wall_ms"`
}

// serveRateReport is the throughput-under-rate-limit half: a client
// pool hammers the API as one tenant and the token bucket must hold
// the accepted rate near the configured refill while 429s carry a
// Retry-After hint.
type serveRateReport struct {
	RatePerSec     float64 `json:"rate_per_sec"`
	Clients        int     `json:"clients"`
	WallMS         float64 `json:"wall_ms"`
	Accepted       int64   `json:"accepted"`
	Rejected       int64   `json:"rejected"`
	AcceptedPerSec float64 `json:"accepted_per_sec"`
	RetryAfterOK   bool    `json:"retry_after_ok"`
	Pass           bool    `json:"pass"`
}

// serveBenchReport is the BENCH_serve.json schema.
type serveBenchReport struct {
	host
	Scale   string             `json:"scale"`
	Latency serveLatencyReport `json:"latency"`
	Rate    serveRateReport    `json:"rate"`
	Pass    bool               `json:"pass"`
}

// bootServeBench starts an in-process hyperdrived (worker-pool
// executor, loopback HTTP) and returns its base URL and a shutdown
// func.
func bootServeBench(slots, maxExps int, rate float64, seed int64) (string, func(), error) {
	clk := clock.NewScaled(time.Date(2017, 12, 11, 0, 0, 0, 0, time.UTC), 200000)
	events := make(chan cluster.Event, 4096)
	wreg := workload.NewRegistry()
	capturer, err := checkpoint.NewCapturer(checkpoint.Framework, seed+1)
	if err != nil {
		return "", nil, err
	}
	pool, err := cluster.NewWorkerPool(slots, wreg, clk, capturer, events)
	if err != nil {
		return "", nil, err
	}
	srv, err := serve.NewServer(serve.Options{
		Executor:       pool,
		Events:         events,
		Clock:          clk,
		Registry:       wreg,
		MaxExperiments: maxExps,
		Rate:           rate,
		Obs:            obs.NewRegistry(),
	})
	if err != nil {
		pool.Close()
		return "", nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		pool.Close()
		return "", nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	shutdown := func() {
		hs.Close()
		ln.Close()
		srv.Close()
		pool.Close()
	}
	return "http://" + ln.Addr().String(), shutdown, nil
}

// runServeLatency submits experiments over HTTP, polls them to
// completion, and collects each one's submit→first-decision latency
// from its final status.
func runServeLatency(experiments, slots, maxJobs int, seed int64) (serveLatencyReport, error) {
	rep := serveLatencyReport{Experiments: experiments, SlotsTotal: slots, MaxJobsEach: maxJobs}
	// Rate limiting is the other phase's subject; stay far from it here.
	base, shutdown, err := bootServeBench(slots, experiments, 1e6, seed)
	if err != nil {
		return rep, err
	}
	defer shutdown()
	client := &http.Client{Timeout: 30 * time.Second}

	t0 := time.Now()
	ids := make([]string, 0, experiments)
	for i := 0; i < experiments; i++ {
		body := fmt.Sprintf(`{"tenant":"t%d","workload":"cifar10","maxJobs":%d,"seed":%d}`, i, maxJobs, seed+int64(i))
		resp, err := client.Post(base+"/v1/experiments", "application/json", strings.NewReader(body))
		if err != nil {
			return rep, err
		}
		var out struct {
			ID string `json:"id"`
		}
		jerr := json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			return rep, fmt.Errorf("submit %d: HTTP %d", i, resp.StatusCode)
		}
		if jerr != nil {
			return rep, jerr
		}
		ids = append(ids, out.ID)
	}

	deadline := time.Now().Add(180 * time.Second)
	var firstMS []float64
	for _, id := range ids {
		for {
			if time.Now().After(deadline) {
				return rep, fmt.Errorf("%s did not finish in time", id)
			}
			resp, err := client.Get(base + "/v1/experiments/" + id)
			if err != nil {
				return rep, err
			}
			var st struct {
				State           string  `json:"state"`
				Error           string  `json:"error"`
				FirstDecisionMs float64 `json:"firstDecisionMs"`
			}
			jerr := json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			if jerr != nil {
				return rep, jerr
			}
			if st.State == "done" {
				if st.FirstDecisionMs > 0 {
					firstMS = append(firstMS, st.FirstDecisionMs)
				}
				break
			}
			if st.State == "failed" || st.State == "canceled" {
				return rep, fmt.Errorf("%s ended %s: %s", id, st.State, st.Error)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	rep.WallMS = time.Since(t0).Seconds() * 1e3

	sort.Float64s(firstMS)
	rep.Samples = len(firstMS)
	rep.P50MS = quantile(firstMS, 0.5)
	rep.P99MS = quantile(firstMS, 0.99)
	return rep, nil
}

// runServeRate hammers a fresh server's list endpoint as one tenant
// and checks the token bucket: sustained acceptance near the refill
// rate, the rest bounced as 429 with a Retry-After hint.
func runServeRate(rate float64, clients int, wall time.Duration, seed int64) (serveRateReport, error) {
	rep := serveRateReport{RatePerSec: rate, Clients: clients}
	base, shutdown, err := bootServeBench(2, 1, rate, seed)
	if err != nil {
		return rep, err
	}
	defer shutdown()

	var accepted, rejected, retryOK, other atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	stop := t0.Add(wall)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{Timeout: 10 * time.Second}
			for time.Now().Before(stop) {
				req, err := http.NewRequest(http.MethodGet, base+"/v1/experiments", nil)
				if err != nil {
					other.Add(1)
					return
				}
				req.Header.Set("X-Tenant", "hammer")
				resp, err := client.Do(req)
				if err != nil {
					other.Add(1)
					continue
				}
				switch resp.StatusCode {
				case http.StatusOK:
					accepted.Add(1)
				case http.StatusTooManyRequests:
					rejected.Add(1)
					if resp.Header.Get("Retry-After") != "" {
						retryOK.Add(1)
					}
				default:
					other.Add(1)
				}
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(t0)

	rep.WallMS = elapsed.Seconds() * 1e3
	rep.Accepted = accepted.Load()
	rep.Rejected = rejected.Load()
	if elapsed > 0 {
		rep.AcceptedPerSec = float64(rep.Accepted) / elapsed.Seconds()
	}
	rep.RetryAfterOK = rep.Rejected > 0 && retryOK.Load() == rep.Rejected
	// The bucket admits burst (≈rate) up front plus refill for the
	// window; anything past 2x that means the limiter leaks.
	limit := rate * (elapsed.Seconds() + 1) * 2
	rep.Pass = rep.Rejected > 0 && rep.RetryAfterOK && float64(rep.Accepted) <= limit && other.Load() == 0
	return rep, nil
}

// runServeBench measures the multi-tenant service path and writes
// BENCH_serve.json: submit→first-decision latency over the full HTTP
// stack, and API throughput under the per-tenant rate limit.
func runServeBench(path, scale string, seed int64) error {
	full, err := scaleOf(scale)
	if err != nil {
		return err
	}
	rep := &serveBenchReport{Scale: scale}
	if full {
		rep.Latency, err = runServeLatency(12, 32, 8, seed)
	} else {
		rep.Latency, err = runServeLatency(4, 8, 4, seed)
	}
	if err != nil {
		return err
	}
	if rep.Latency.Samples != rep.Latency.Experiments {
		return fmt.Errorf("%d of %d experiments reported a first decision", rep.Latency.Samples, rep.Latency.Experiments)
	}

	if full {
		rep.Rate, err = runServeRate(300, 4, time.Second, seed)
	} else {
		rep.Rate, err = runServeRate(100, 2, 500*time.Millisecond, seed)
	}
	if err != nil {
		return err
	}
	rep.Pass = rep.Rate.Pass
	if err := writeReport(path, rep); err != nil {
		return err
	}
	fmt.Printf("submit→first-decision over HTTP, %d experiments on %d slots: p50 %.1fms p99 %.1fms (%d samples, wall %.0fms)\n",
		rep.Latency.Experiments, rep.Latency.SlotsTotal, rep.Latency.P50MS, rep.Latency.P99MS, rep.Latency.Samples, rep.Latency.WallMS)
	fmt.Printf("api under %g req/s tenant limit, %d clients: %d accepted (%.0f/s), %d rejected with Retry-After, pass=%v\n",
		rep.Rate.RatePerSec, rep.Rate.Clients, rep.Rate.Accepted, rep.Rate.AcceptedPerSec, rep.Rate.Rejected, rep.Rate.Pass)
	if !rep.Pass {
		return fmt.Errorf("serve bench gate failed: rate limiter did not hold (accepted %d, rejected %d)", rep.Rate.Accepted, rep.Rate.Rejected)
	}
	return nil
}
