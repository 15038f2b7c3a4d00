package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"github.com/hyperdrive-ml/hyperdrive/internal/clock"
	"github.com/hyperdrive-ml/hyperdrive/internal/cluster"
	"github.com/hyperdrive-ml/hyperdrive/internal/curve"
	"github.com/hyperdrive-ml/hyperdrive/internal/obs"
	"github.com/hyperdrive-ml/hyperdrive/internal/sched"
	"github.com/hyperdrive-ml/hyperdrive/internal/serve"
	"github.com/hyperdrive-ml/hyperdrive/internal/workload"
)

// fleet-pop load: three tenants with fair-share weights 2:1:1 submit
// small POP experiments open loop, while a second connection reads
// status and tenant endpoints at a fixed rate.
const (
	fleetSpeedup = 1000
	// fleetMaxJobs configs per submitted experiment.
	fleetMaxJobs = 2
	// fleetMaxDurationSec is each experiment's Tmax on the experiment
	// clock (2.4 s of wall time): it bounds how long a submission holds
	// its share, so the pool's load follows the schedule rather than
	// which populations the seed drew.
	fleetMaxDurationSec = 1500
	// fleetGap is the mean gap between scheduled submissions; each gap
	// is drawn uniformly from [0.5, 1.5) times it.
	fleetGap = 1500 * time.Millisecond
	// fleetReadEvery is the reader's fixed request interval: 40 reads/s
	// spread over three tenants, under the 50/s per-tenant rate limit.
	fleetReadEvery = 25 * time.Millisecond
	// fleetDrain bounds how long the run waits for submitted
	// experiments to finish after the window.
	fleetDrain = 120 * time.Second
)

// fleetSpeedupFor is the experiment-clock compression: the self-test's
// tiny scale runs its single-job experiments faster.
func fleetSpeedupFor(cfg config) float64 {
	if cfg.tiny {
		return 20000
	}
	return fleetSpeedup
}

var fleetTenants = []struct {
	name   string
	weight float64
}{{"alice", 2}, {"bob", 1}, {"carol", 1}}

// fleetEnv is an in-process hyperdrived over in-process agents.
type fleetEnv struct {
	agents *agentEnv
	multi  *cluster.MultiExecutor
	srv    *serve.Server
	hs     *http.Server
	base   string
	stop   chan struct{}
	relay  sync.WaitGroup
	// stopHistory ends the server registry's history sampler.
	stopHistory func()
	st          *clusterStats // nil unless traced
	tr          *tracer
	wire        *wireStats
}

// bootFleet starts agents, dials them supervised, and serves the API
// configured as cmd/hyperdrived configures it. With traced set, the
// executor and the event channel are wrapped.
func bootFleet(seed int64, speedup float64, traced bool) (*fleetEnv, error) {
	agents, err := bootAgents(liveAgents, liveSlotsPerAgent, speedup, seed)
	if err != nil {
		return nil, err
	}
	env := &fleetEnv{agents: agents, stop: make(chan struct{})}
	serverReg := obs.NewRegistry()
	serverReg.EnableHistory(512)
	env.stopHistory = obs.StartHistorySampler(serverReg, 2*time.Second)
	events := make(chan cluster.Event, 4096)
	raw := events
	if traced {
		env.st = newClusterStats()
		env.tr = newTracer()
		env.wire = &wireStats{}
		agents.setWireStats(env.wire)
		raw = make(chan cluster.Event, 4096)
		env.relay.Add(1)
		go func() {
			defer env.relay.Done()
			interpose(raw, events, env.stop, env.st, env.tr, 0, 0)
		}()
	}
	var execs []cluster.Executor
	for _, addr := range agents.addrs {
		c, err := cluster.DialAgentSupervised(addr, raw, cluster.SupervisorOptions{Obs: serverReg})
		if err != nil {
			for _, ex := range execs {
				ex.Close()
			}
			env.closeAgents()
			return nil, fmt.Errorf("agent %s: %w", addr, err)
		}
		execs = append(execs, c)
	}
	if env.multi, err = cluster.NewMultiExecutor(execs...); err != nil {
		env.closeAgents()
		return nil, err
	}
	var exec cluster.Executor = env.multi
	if traced {
		exec = &tracedExec{inner: env.multi, st: env.st, tr: env.tr, seen: map[sched.JobID]bool{}}
	}
	env.srv, err = serve.NewServer(serve.Options{
		Executor:       exec,
		Events:         events,
		Clock:          clock.NewScaled(time.Now(), speedup),
		Registry:       workload.NewRegistry(),
		MaxExperiments: 16,
		Rate:           50,
		Obs:            serverReg,
	})
	if err != nil {
		env.multi.Close()
		env.closeAgents()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		env.close()
		return nil, err
	}
	env.hs = &http.Server{Handler: env.srv.Handler()}
	go env.hs.Serve(ln)
	env.base = "http://" + ln.Addr().String()
	return env, nil
}

func (env *fleetEnv) closeAgents() {
	close(env.stop)
	env.relay.Wait()
	env.stopHistory()
	env.agents.close()
}

// close shuts the API, the server, the executor and the agents down, in
// the order cmd/hyperdrived's deferred calls do.
func (env *fleetEnv) close() {
	if env.hs != nil {
		env.hs.Close()
	}
	env.srv.Close()
	env.multi.Close()
	env.closeAgents()
}

// newClient is one keep-alive client connection.
func newClient() *http.Client {
	return &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
	}
}

// submission is one scheduled experiment submission and what the
// clients observed of it.
type submission struct {
	due      time.Time
	tenant   string
	workload string
	seed     int64

	id            string
	refused       bool
	failed        bool
	firstStart    time.Duration
	firstDecision time.Duration
	done          time.Duration
	// From the finished experiment's own registry.
	epochs, fits int64
	trainSimS    float64
	state        string
	cursor       uint64
}

// fleetLoad is what one load phase measured.
type fleetLoad struct {
	subs                     []*submission
	submitMs, statusMs       samples
	eventsMs, tenantMs       samples
	lateMs                   samples
	poolBusy                 samples
	busySlotTime             time.Duration
	readFailures             int
	readErr                  error
	eventFailures            int // written by the submitter only
	eventErr                 error
	wall                     time.Duration
	alloc                    uint64
	idle, busy, offline, tot int
	starvedWorst             time.Duration
	starvedCount             int
	attainment               samples
}

// fleetSchedule draws the open-loop submission schedule from the seed.
func fleetSchedule(seed int64, start time.Time, window, gap time.Duration) []*submission {
	rng := rand.New(rand.NewSource(seed))
	order := []int{0, 1, 0, 2} // alice twice per round: weight 2
	var subs []*submission
	t := start
	for i := 0; ; i++ {
		t = t.Add(time.Duration((0.5 + rng.Float64()) * float64(gap)))
		if t.Sub(start) >= window {
			return subs
		}
		// Workloads alternate rather than being drawn, so every run
		// offers the same mix.
		wl := "cifar10"
		if i%2 == 1 {
			wl = "lunarlander"
		}
		subs = append(subs, &submission{
			due: t, tenant: fleetTenants[order[i%len(order)]].name, workload: wl, seed: rng.Int63n(1 << 30),
		})
	}
}

// runFleetLoad drives one phase of open-loop load against env.
func runFleetLoad(env *fleetEnv, cfg config, window time.Duration, phaseSeed int64) (*fleetLoad, error) {
	gap, maxJobs := fleetGap, fleetMaxJobs
	if cfg.tiny {
		gap, maxJobs = window/2, 1
	}
	ld := &fleetLoad{}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	ld.subs = fleetSchedule(phaseSeed, start, window, gap)
	submitter, reader := newClient(), newClient()
	defer submitter.CloseIdleConnections()
	defer reader.CloseIdleConnections()

	var mu sync.Mutex // guards the submissions' observed fields
	submittedAll := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer close(submittedAll)
		submitAndWatch(env, submitter, ld, &mu, maxJobs)
	}()
	go func() {
		defer wg.Done()
		readLoop(env, reader, ld, &mu, start, window, submittedAll)
	}()
	wg.Wait()
	ld.wall = time.Since(start)
	runtime.ReadMemStats(&m1)
	ld.alloc = m1.TotalAlloc - m0.TotalAlloc
	ld.idle, ld.busy, ld.offline = env.srv.Pool().Counts()
	ld.tot = env.srv.Pool().Total()
	ld.starvedWorst, ld.starvedCount = env.srv.Broker().Starvation()
	return ld, nil
}

// submitAndWatch is the first connection: it submits on schedule and,
// between submissions, long-polls the newest experiments' event feeds
// for their first decision record.
func submitAndWatch(env *fleetEnv, c *http.Client, ld *fleetLoad, mu *sync.Mutex, maxJobs int) {
	var watching []*submission
	watch := func(until time.Time) {
		for len(watching) > 0 && time.Now().Before(until) {
			s := watching[0]
			wait := time.Until(until)
			if wait > 200*time.Millisecond {
				wait = 200 * time.Millisecond
			}
			t0 := time.Now()
			kinds, state, err := pollFeed(c, env.base, s, wait)
			now := time.Now()
			ld.eventsMs.addDur(now.Sub(t0))
			found := kinds["decision"]
			mu.Lock()
			if (kinds["start"] || found) && s.firstStart == 0 {
				s.firstStart = now.Sub(s.due)
			}
			if found && s.firstDecision == 0 {
				s.firstDecision = now.Sub(s.due)
			}
			mu.Unlock()
			if err != nil {
				ld.eventFailures++
				ld.eventErr = err
			}
			if err != nil || found || state == "done" || state == "failed" || state == "canceled" {
				watching = watching[1:]
			}
		}
	}
	for _, s := range ld.subs {
		watch(s.due)
		if now := time.Now(); now.After(s.due) {
			ld.lateMs.addDur(now.Sub(s.due))
		} else {
			time.Sleep(time.Until(s.due))
			ld.lateMs.add(0)
		}
		body := fmt.Sprintf(`{"tenant":%q,"weight":%g,"workload":%q,"policy":"pop","predictor":"fast","maxJobs":%d,"maxDurationSec":%d,"seed":%d}`,
			s.tenant, tenantWeight(s.tenant), s.workload, maxJobs, fleetMaxDurationSec, s.seed)
		req, _ := http.NewRequest(http.MethodPost, env.base+"/v1/experiments", strings.NewReader(body))
		req.Header.Set("X-Tenant", s.tenant)
		id, refused, err := submit(c, req)
		ld.submitMs.addDur(time.Since(s.due))
		mu.Lock()
		switch {
		case refused:
			s.refused = true
		case err != nil:
			s.failed = true
		default:
			s.id = id
			watching = append(watching, s)
		}
		mu.Unlock()
	}
	watch(time.Now().Add(fleetDrain))
}

// submit posts one experiment and returns its id, or whether it was
// refused with 429.
func submit(c *http.Client, req *http.Request) (id string, refused bool, err error) {
	resp, err := c.Do(req)
	if err != nil {
		return "", false, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusCreated:
		var out struct {
			ID string `json:"id"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			return "", false, err
		}
		if out.ID == "" {
			return "", false, fmt.Errorf("submit: no experiment id")
		}
		return out.ID, false, nil
	case http.StatusTooManyRequests:
		io.Copy(io.Discard, resp.Body)
		return "", true, nil
	default:
		io.Copy(io.Discard, resp.Body)
		return "", false, fmt.Errorf("submit: HTTP %d", resp.StatusCode)
	}
}

func tenantWeight(name string) float64 {
	for _, t := range fleetTenants {
		if t.name == name {
			return t.weight
		}
	}
	return 1
}

// pollFeed reads the experiment's event feed past its cursor and
// reports which record kinds arrived.
func pollFeed(c *http.Client, base string, s *submission, wait time.Duration) (map[string]bool, string, error) {
	url := fmt.Sprintf("%s/v1/experiments/%s/events?after=%d&waitMs=%d", base, s.id, s.cursor, wait.Milliseconds())
	req, _ := http.NewRequest(http.MethodGet, url, nil)
	req.Header.Set("X-Tenant", s.tenant)
	resp, err := c.Do(req)
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, "", fmt.Errorf("events: HTTP %d", resp.StatusCode)
	}
	var feed struct {
		State  string `json:"state"`
		Cursor uint64 `json:"cursor"`
		Events []struct {
			Event json.RawMessage `json:"event"`
		} `json:"events"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&feed); err != nil {
		return nil, "", err
	}
	s.cursor = feed.Cursor
	kinds := map[string]bool{}
	for _, e := range feed.Events {
		var rec struct {
			Kind string `json:"kind"`
		}
		if json.Unmarshal(e.Event, &rec) == nil {
			kinds[rec.Kind] = true
		}
	}
	return kinds, feed.State, nil
}

// readLoop is the second connection: at a fixed rate it reads the
// status of one unfinished experiment or one tenant, in rotation, timed
// from each read's scheduled send time. It ends once every submission
// has been made and every accepted experiment has been seen to finish.
func readLoop(env *fleetEnv, c *http.Client, ld *fleetLoad, mu *sync.Mutex, start time.Time, window time.Duration, submittedAll <-chan struct{}) {
	deadline := start.Add(window + fleetDrain)
	next := start
	tick := 0
	for {
		next = next.Add(fleetReadEvery)
		time.Sleep(time.Until(next))
		tick++
		mu.Lock()
		var open []*submission
		joined := map[string]bool{}
		for _, s := range ld.subs {
			if s.id != "" {
				joined[s.tenant] = true
				if s.done == 0 {
					open = append(open, s)
				}
			}
		}
		mu.Unlock()
		select {
		case <-submittedAll:
			if len(open) == 0 {
				return
			}
		default:
		}
		if time.Now().After(deadline) {
			return
		}
		idle, busy, offline := env.srv.Pool().Counts()
		ld.busySlotTime += time.Duration(busy) * fleetReadEvery
		if tot := idle + busy + offline; tot > 0 && time.Since(start) < window {
			ld.poolBusy.add(float64(busy) / float64(tot))
			for _, t := range fleetTenants {
				if ts, ok := env.srv.Broker().Tenant(t.name); ok && ts.ShareSlots > 0 {
					ld.attainment.add(float64(ts.HeldSlots) / ts.ShareSlots)
				}
			}
		}
		if tick%4 == 0 || len(open) == 0 {
			t := fleetTenants[(tick/4)%len(fleetTenants)].name
			if !joined[t] {
				continue
			}
			if _, err := getJSON(c, env.base+"/v1/tenants/"+t, t, &serve.TenantStatus{}); err != nil {
				ld.readFailures++
				ld.readErr = err
			}
			ld.tenantMs.addDur(time.Since(next))
			continue
		}
		s := open[tick%len(open)]
		var st serve.ExperimentStatus
		if _, err := getJSON(c, env.base+"/v1/experiments/"+s.id, s.tenant, &st); err != nil {
			ld.readFailures++
			ld.readErr = err
		}
		ld.statusMs.addDur(time.Since(next))
		switch st.State {
		case "done", "failed", "canceled":
			doneAt := time.Since(s.due)
			var snap obs.Snapshot
			if _, err := getJSON(c, env.base+"/v1/experiments/"+s.id+"/obs/metrics.json", s.tenant, &snap); err != nil {
				ld.readFailures++
				ld.readErr = err
			}
			mu.Lock()
			s.state = st.State
			s.done = doneAt
			s.epochs = snap.Counters[obs.EpochsTotal]
			s.fits = snap.Counters[obs.MCMCFitsTotal]
			s.trainSimS = snap.Histograms[obs.EpochDurationSeconds].Sum
			mu.Unlock()
		}
	}
}

func getJSON(c *http.Client, url, tenant string, v interface{}) (int, error) {
	req, _ := http.NewRequest(http.MethodGet, url, nil)
	req.Header.Set("X-Tenant", tenant)
	resp, err := c.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return resp.StatusCode, json.NewDecoder(resp.Body).Decode(v)
}

// warmFleet runs one single-job experiment with a 120 s budget to
// completion over a fresh connection.
func warmFleet(env *fleetEnv) error {
	c := newClient()
	defer c.CloseIdleConnections()
	req, _ := http.NewRequest(http.MethodPost, env.base+"/v1/experiments", strings.NewReader(
		`{"tenant":"warmup","workload":"cifar10","policy":"default","maxJobs":1,"maxDurationSec":120,"seed":1}`))
	req.Header.Set("X-Tenant", "warmup")
	id, refused, err := submit(c, req)
	if err != nil || refused {
		return fmt.Errorf("warm-up submit: refused=%v: %v", refused, err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var st serve.ExperimentStatus
		if _, err := getJSON(c, env.base+"/v1/experiments/"+id, "warmup", &st); err != nil {
			return err
		}
		switch st.State {
		case "done":
			return nil
		case "failed", "canceled":
			return fmt.Errorf("warm-up experiment ended %s: %s", st.State, st.Error)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("warm-up experiment did not finish")
}

// checkFleet applies fleet-pop's correctness checks to one phase.
func checkFleet(res *result, ld *fleetLoad) (accepted int) {
	for _, s := range ld.subs {
		res.attempted++
		if s.failed {
			res.failed++
			res.check(false, "submission for %s failed", s.tenant)
			continue
		}
		if s.refused {
			continue
		}
		accepted++
		res.check(s.state == "done", "experiment %s ended %q, want done", s.id, s.state)
	}
	res.check(ld.readFailures == 0, "%d status or tenant reads failed, last: %v", ld.readFailures, ld.readErr)
	res.check(ld.eventFailures == 0, "%d event feed polls failed, last: %v", ld.eventFailures, ld.eventErr)
	res.check(ld.idle+ld.busy+ld.offline == ld.tot, "shared pool idle %d + busy %d + offline %d != total %d", ld.idle, ld.busy, ld.offline, ld.tot)
	res.check(ld.busy == 0, "shared pool has %d busy slots after every experiment finished", ld.busy)
	res.check(accepted > 0, "no experiment was accepted")
	return accepted
}

func runFleetPop(cfg config) (*result, error) {
	res := newResult()
	env, cleanup, setupTimes, err := setupMedian(3, func() (*fleetEnv, func(), error) {
		env, err := bootFleet(cfg.Seed, fleetSpeedupFor(cfg), false)
		if err != nil {
			return nil, nil, err
		}
		// Warm-up: one curve fit, as every POP decision makes, and one
		// short experiment through submit, lease, agent and drain.
		if _, err := curve.MustPredictor(curve.FastConfig()).Fit(warmCurve(), 120, cfg.Seed); err != nil {
			env.close()
			return nil, nil, err
		}
		if err := warmFleet(env); err != nil {
			env.close()
			return nil, nil, err
		}
		return env, env.close, nil
	})
	if err != nil {
		cleanup()
		return nil, err
	}
	window := seconds(cfg.Seconds)
	if cfg.Trace {
		window /= 2
	}
	ld, err := runFleetLoad(env, cfg, window, cfg.Seed)
	cleanup()
	if err != nil {
		return nil, err
	}
	accepted := checkFleet(res, ld)
	var wallMs, firstMs, startMs samples
	var epochs, fits int64
	var trainS float64
	refused := 0
	for _, s := range ld.subs {
		if s.refused {
			refused++
		}
		if s.state == "done" {
			wallMs.addDur(s.done)
		}
		if s.firstDecision > 0 {
			firstMs.addDur(s.firstDecision)
		}
		if s.firstStart > 0 {
			startMs.addDur(s.firstStart)
		}
		epochs += s.epochs
		fits += s.fits
		trainS += s.trainSimS
	}
	// slot_util: of the slot time experiments held, the share spent
	// training. The pool's busy share itself follows the offered load.
	trainShare := 0.0
	if ld.busySlotTime > 0 {
		trainShare = trainS / fleetSpeedupFor(cfg) / ld.busySlotTime.Seconds()
	}
	api := append(append(samples(nil), ld.statusMs...), ld.tenantMs...)
	allocMB := 0.0
	if accepted > 0 {
		allocMB = float64(ld.alloc) / 1e6 / float64(accepted)
	}
	res.e2e["setup_s"] = metric{setupTimes.median(), "s"}
	res.e2e["op_ms"] = metric{api.median(), "ms"}
	res.note("setup_s %s", setupTimes.describe("s"))
	res.note("op_ms = api_ms (status and tenant reads, timed from their scheduled send) %s", api.describe("ms"))
	res.note("first_decision_ms (scheduled submit to first decision record on the feed) %s", firstMs.describe("ms"))
	res.note("first_start_ms (scheduled submit to first job start on the feed) %s", startMs.describe("ms"))
	res.note("exp_wall_ms (scheduled submit to observed done; Tmax %ds on the experiment clock) %s", fleetMaxDurationSec, wallMs.describe("ms"))
	res.note("submit_ms %s; events_ms %s", ld.submitMs.describe("ms"), ld.eventsMs.describe("ms"))
	res.note("alloc_mb = %.4g MB per accepted experiment (%d epochs, %d fits in all)", allocMB, epochs, fits)
	res.note("slot_util = %.4g training share of held slot time; pool busy share %s", trainShare, ld.poolBusy.describe(""))
	res.note("submissions attempted=%d accepted=%d refused(429)=%d failed=%d; generator lateness %s",
		len(ld.subs), accepted, refused, res.failed, ld.lateMs.describe("ms"))
	if cfg.Trace {
		if err := fleetTraced(res, cfg, window, api.median()); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// fleetTraced runs the traced phase on a freshly booted, wrapped fleet
// and fills the per-layer metrics.
func fleetTraced(res *result, cfg config, window time.Duration, untracedMs float64) error {
	env, err := bootFleet(cfg.Seed, fleetSpeedupFor(cfg), true)
	if err != nil {
		return err
	}
	ld, err := runFleetLoad(env, cfg, window, cfg.Seed)
	env.close()
	if err != nil {
		return err
	}
	checkFleet(res, ld)
	refused := 0
	for _, s := range ld.subs {
		if s.refused {
			refused++
		}
	}
	L := res.layers
	L["serve.submit_ms"] = metric{ld.submitMs.median(), "ms"}
	L["serve.status_ms"] = metric{ld.statusMs.median(), "ms"}
	L["serve.events_ms"] = metric{ld.eventsMs.median(), "ms"}
	L["serve.refused"] = metric{float64(refused), "count"}
	L["serve.starved_s"] = metric{ld.starvedWorst.Seconds(), "s"}
	L["serve.share_attainment"] = metric{ld.attainment.mean(), "ratio"}
	L["serve.pool_busy"] = metric{ld.poolBusy.mean(), "ratio"}
	lt := &liveTrace{st: env.st}
	clusterLayers(res, lt, 0)
	wireLayers(res, env.wire, env.st.images)
	checkpointLayers(res, env.st)
	zeroLayers(res, "curve.", "core.", "sim.", "policy.")
	slotTime := time.Duration(ld.tot) * ld.wall
	env.st.mu.Lock()
	train := time.Duration(env.st.trainSimSeconds / fleetSpeedupFor(cfg) * float64(time.Second))
	env.st.mu.Unlock()
	slotAccount(res, env.st, slotTime, train, slotTime-ld.busySlotTime, fleetSpeedupFor(cfg))
	res.note("serve: submit %s; status %s; events %s", ld.submitMs.describe("ms"), ld.statusMs.describe("ms"), ld.eventsMs.describe("ms"))
	res.note("serve: refused %d; worst starvation %.3fs over %d episodes; share attainment %s", refused, ld.starvedWorst.Seconds(), ld.starvedCount, ld.attainment.describe(""))
	overhead(res, untracedMs, append(append(samples(nil), ld.statusMs...), ld.tenantMs...).median())
	dumpSpans(res, cfg, env.tr)
	return nil
}
