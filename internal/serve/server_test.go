package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/hyperdrive-ml/hyperdrive/internal/checkpoint"
	"github.com/hyperdrive-ml/hyperdrive/internal/clock"
	"github.com/hyperdrive-ml/hyperdrive/internal/cluster"
	"github.com/hyperdrive-ml/hyperdrive/internal/obs"
	"github.com/hyperdrive-ml/hyperdrive/internal/workload"
)

// bootServer starts an in-process server over a worker-pool executor.
// reg may be nil (fleet observability disabled).
func bootServer(t *testing.T, slots, maxExps int, reg *obs.Registry) (*Server, *httptest.Server) {
	t.Helper()
	clk := clock.NewScaled(time.Date(2017, 12, 11, 0, 0, 0, 0, time.UTC), 200000)
	events := make(chan cluster.Event, 4096)
	wreg := workload.NewRegistry()
	capturer, err := checkpoint.NewCapturer(checkpoint.Framework, 1)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := cluster.NewWorkerPool(slots, wreg, clk, capturer, events)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(Options{
		Executor:       pool,
		Events:         events,
		Clock:          clk,
		Registry:       wreg,
		MaxExperiments: maxExps,
		Rate:           100000,
		Obs:            reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		srv.Close()
		pool.Close()
	})
	return srv, hs
}

func submitExp(t *testing.T, hs *httptest.Server, body string, header map[string]string) string {
	t.Helper()
	id, _, err := trySubmit(hs, body, header)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// trySubmit posts one experiment. It returns the new ID on 201, the
// server's Retry-After hint on 429 (with the refusal as the error), and
// an error for anything else; it never touches a testing.T, so it is
// safe off the test goroutine.
func trySubmit(hs *httptest.Server, body string, header map[string]string) (id string, retryAfter time.Duration, err error) {
	req, err := http.NewRequest("POST", hs.URL+"/v1/experiments", strings.NewReader(body))
	if err != nil {
		return "", 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range header {
		req.Header.Set(k, v)
	}
	resp, err := hs.Client().Do(req)
	if err != nil {
		return "", 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		b, _ := io.ReadAll(resp.Body)
		err := fmt.Errorf("submit: HTTP %d: %s", resp.StatusCode, b)
		if resp.StatusCode == http.StatusTooManyRequests {
			secs, perr := strconv.Atoi(resp.Header.Get("Retry-After"))
			if perr != nil || secs <= 0 {
				return "", 0, fmt.Errorf("%v (unusable Retry-After %q)", err, resp.Header.Get("Retry-After"))
			}
			return "", time.Duration(secs) * time.Second, err
		}
		return "", 0, err
	}
	var out struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return "", 0, err
	}
	return out.ID, 0, nil
}

func getBody(t *testing.T, hs *httptest.Server, path string) (int, string) {
	t.Helper()
	code, body, err := tryGet(hs, path)
	if err != nil {
		t.Fatal(err)
	}
	return code, body
}

// tryGet is getBody without a testing.T, for use off the test
// goroutine.
func tryGet(hs *httptest.Server, path string) (int, string, error) {
	resp, err := hs.Client().Get(hs.URL + path)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, "", err
	}
	return resp.StatusCode, string(b), nil
}

// Satellite: the /metrics rollup must be safe (and race-clean) against
// experiments being created and canceled concurrently — live
// registries are snapshotted under the server lock, finished ones are
// never rolled up.
//
// The experiment cap is deliberately reachable here: the uncanceled
// half of the churn runs to completion while new submissions keep
// arriving. A full cap is admission control working, so the churner
// paces itself on the server's Retry-After, and every submission must
// eventually be admitted. Failures travel back to the test goroutine.
func TestMetricsRollupUnderChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("churn test skipped in -short mode")
	}
	reg := obs.NewRegistry()
	_, hs := bootServer(t, 8, 8, reg)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	// One slot per goroutine (the churner and four scrapers), each of
	// which reports at most one failure and then returns.
	errs := make(chan error, 5)
	// submit retries a refused submission after the server's
	// Retry-After, a bounded number of times.
	submit := func(body string) (string, error) {
		for attempt := 0; ; attempt++ {
			id, retryAfter, err := trySubmit(hs, body, nil)
			if err == nil {
				return id, nil
			}
			if retryAfter == 0 || attempt == 3 {
				return "", err
			}
			time.Sleep(retryAfter)
		}
	}
	// Churner: submit short experiments and cancel half of them.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			id, err := submit(fmt.Sprintf(`{"tenant":"t%d","maxJobs":2,"seed":%d,"maxDurationSec":7776000}`, i%3, i))
			if err != nil {
				errs <- fmt.Errorf("churn submission %d: %w", i, err)
				return
			}
			if i%2 == 0 {
				resp, err := hs.Client().Post(hs.URL+"/v1/experiments/"+id+"/cancel", "application/json", nil)
				if err == nil {
					resp.Body.Close()
				}
			}
			// Let some finish naturally so teardown overlaps the scrapes.
			time.Sleep(5 * time.Millisecond)
		}
	}()
	// Scrapers: hammer the rollup and health endpoints meanwhile.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				code, body, err := tryGet(hs, "/metrics")
				if err == nil && (code != 200 || !strings.Contains(body, "hyperdrive_serve_experiments_total")) {
					err = fmt.Errorf("HTTP %d", code)
				}
				if err != nil {
					errs <- fmt.Errorf("/metrics under churn: %w", err)
					return
				}
				code, _, err = tryGet(hs, "/healthz")
				if err == nil && code != 200 && code != 503 {
					err = fmt.Errorf("HTTP %d", code)
				}
				if err != nil {
					errs <- fmt.Errorf("/healthz under churn: %w", err)
					return
				}
			}
		}()
	}
	time.Sleep(2 * time.Second)
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestHealthAndReadyEndpoints(t *testing.T) {
	reg := obs.NewRegistry()
	srv, hs := bootServer(t, 4, 2, reg)

	code, body := getBody(t, hs, "/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz: HTTP %d", code)
	}
	var rep HealthReport
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatalf("/healthz body: %v\n%s", err, body)
	}
	if rep.Status != healthOK {
		t.Fatalf("idle server health = %q, want ok (%+v)", rep.Status, rep)
	}
	names := map[string]bool{}
	for _, c := range rep.Checks {
		names[c.Name] = true
	}
	for _, want := range []string{"slots", "broker_starvation", "event_drops", "admission"} {
		if !names[want] {
			t.Errorf("healthz missing check %q", want)
		}
	}

	if code, _ := getBody(t, hs, "/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz: HTTP %d", code)
	}

	// A closed server is no longer ready.
	srv.Close()
	if code, _ := getBody(t, hs, "/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz after Close: HTTP %d, want 503", code)
	}
}

// An inbound X-Trace-Id must reach the experiment's tracer: the
// api_submit span joins the caller's trace and the job decision spans
// parent under it, end to end.
func TestSubmitTracePropagation(t *testing.T) {
	if testing.Short() {
		t.Skip("trace e2e skipped in -short mode")
	}
	reg := obs.NewRegistry()
	_, hs := bootServer(t, 4, 2, reg)

	const inbound = "0mytrace00000001"
	id := submitExp(t, hs, `{"tenant":"alice","maxJobs":3,"seed":5,"maxDurationSec":7776000}`,
		map[string]string{"X-Trace-Id": inbound})

	deadline := time.Now().Add(60 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("experiment did not finish")
		}
		_, body := getBody(t, hs, "/v1/experiments/"+id)
		var st ExperimentStatus
		if err := json.Unmarshal([]byte(body), &st); err != nil {
			t.Fatal(err)
		}
		if st.State == stateDone {
			break
		}
		if st.State == stateFailed || st.State == stateCanceled {
			t.Fatalf("experiment ended %q: %s", st.State, st.Error)
		}
		time.Sleep(10 * time.Millisecond)
	}

	_, body := getBody(t, hs, "/v1/experiments/"+id+"/obs/spans")
	var views []obs.View
	if err := json.Unmarshal([]byte(body), &views); err != nil {
		t.Fatalf("spans: %v", err)
	}
	var submitSeen, decisionSeen bool
	for _, v := range views {
		if v.TraceID != inbound {
			continue
		}
		if v.Name == "api_submit" {
			submitSeen = true
		} else {
			decisionSeen = true
		}
	}
	if !submitSeen {
		t.Error("api_submit span did not join the inbound trace")
	}
	if !decisionSeen {
		t.Error("no scheduler span joined the inbound trace: propagation broken")
	}
}

// The middleware must count every API hit; with Obs nil the routes are
// served unwrapped and nothing panics.
func TestHTTPMiddleware(t *testing.T) {
	reg := obs.NewRegistry()
	_, hs := bootServer(t, 2, 2, reg)

	if code, _ := getBody(t, hs, "/v1/experiments"); code != http.StatusOK {
		t.Fatalf("list: HTTP %d", code)
	}
	if code, _ := getBody(t, hs, "/v1/experiments/nope"); code != http.StatusNotFound {
		t.Fatalf("missing id: HTTP %d", code)
	}
	if got := reg.Counter(obs.ServeHTTPResponsesTotal("2xx")).Value(); got != 1 {
		t.Errorf("2xx counter = %d, want 1", got)
	}
	if got := reg.Counter(obs.ServeHTTPResponsesTotal("4xx")).Value(); got != 1 {
		t.Errorf("4xx counter = %d, want 1", got)
	}
	if got := reg.Histogram(obs.ServeHTTPRequestSeconds("list"), latencyBuckets...).Count(); got != 1 {
		t.Errorf("list latency observations = %d, want 1", got)
	}
	if got := reg.Gauge(obs.ServeHTTPInFlight).Value(); got != 0 {
		t.Errorf("in-flight gauge = %v after requests drained, want 0", got)
	}

	// Disabled path: no registry, same API behavior.
	_, hsOff := bootServer(t, 2, 2, nil)
	if code, _ := getBody(t, hsOff, "/v1/experiments"); code != http.StatusOK {
		t.Fatalf("disabled list: HTTP %d", code)
	}
	if code, body := getBody(t, hsOff, "/metrics"); code != http.StatusOK || strings.TrimSpace(body) != "" {
		t.Fatalf("disabled /metrics: HTTP %d, body %q (want empty)", code, body)
	}
	if code, _ := getBody(t, hsOff, "/healthz"); code != http.StatusOK {
		t.Fatalf("disabled /healthz: HTTP %d", code)
	}
}
