GO ?= go

.PHONY: build test lint check fuzz-smoke bench-overhead bench-fit bench-sched bench-serve bench-fleet trace-demo report-demo

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# lint: the domain analyzers (determinism, metric names, lock safety,
# error handling, float equality). See DESIGN.md "Static analysis".
lint:
	$(GO) run ./cmd/hdlint ./...

# check: vet + hdlint + full test suite under the race detector.
check:
	sh scripts/check.sh

# fuzz-smoke: run each native fuzz target briefly against its checked-in
# seed corpus plus fresh mutations. Crashers land in testdata/fuzz/ —
# check them in as regression inputs. See DESIGN.md "Whole-program
# analysis & fuzzing".
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime $(FUZZTIME) ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzCheckpointDecode$$' -fuzztime $(FUZZTIME) ./internal/checkpoint
	$(GO) test -run '^$$' -fuzz '^FuzzReadQualityLog$$' -fuzztime $(FUZZTIME) ./internal/obs
	$(GO) test -run '^$$' -fuzz '^FuzzValidateTraceEvents$$' -fuzztime $(FUZZTIME) ./internal/obs

# The bench-* targets measure one subsystem at full scale and refresh
# its committed BENCH_*.json baseline (scripts/check.sh smokes the same
# benches at -scale fast).

# bench-overhead: measure what the obs registry, trace export and
# quality audit cost the simulator hot path (registry-vs-off gate < 3%
# on the POP scenario).
bench-overhead:
	$(GO) run ./cmd/hdbench -overhead-bench BENCH_overhead.json -scale full

# bench-fit: measure serial-vs-parallel MCMC fit latency and the
# batch-sweep speedup at the paper's MCMC budget.
bench-fit:
	$(GO) run ./cmd/hdbench -fit-bench BENCH_fit.json -scale full

# bench-sched: measure scheduler-core scale-out at fleet scale (1k
# agents, 16k slots): sharded vs single-lock slot pool under churn
# (speedup gate >= 5x) plus e2e decision latency over real sockets.
bench-sched:
	$(GO) run ./cmd/hdbench -sched-bench BENCH_sched.json -scale full

# bench-serve: measure the multi-tenant service path (hyperdrived):
# submit→first-decision latency over the full HTTP stack and API
# throughput under the per-tenant rate limit (429 + Retry-After gate).
bench-serve:
	$(GO) run ./cmd/hdbench -serve-bench BENCH_serve.json -scale full

# bench-fleet: measure the fleet observability layer's overhead on the
# broker lease hot path (disabled-path gate < 3%) and the instrumented
# API request path.
bench-fleet:
	$(GO) run ./cmd/hdbench -fleet-bench BENCH_fleet.json -scale full

# report-demo: replay a deterministic simulated POP experiment with the
# quality audit on and render its calibration report into results/.
report-demo:
	$(GO) run ./cmd/hdsim -gen cifar10 -gen-jobs 24 -gen-seed 3 -policies pop \
		-machines 4 -quality-out results/demo_quality.jsonl
	$(GO) run ./cmd/hdreport -o results/sample_quality_report.md results/demo_quality.jsonl

# trace-demo: run a small live experiment with trace export, rebuild a
# second trace from its event log, and validate both — then load
# demo.trace.json in Perfetto (ui.perfetto.dev) to browse it.
trace-demo:
	$(GO) run ./cmd/hyperdrive -policy pop -machines 2 -jobs 6 -speedup 200000 \
		-log demo.jsonl -trace-out demo.trace.json
	$(GO) run ./cmd/hdlog -in demo.jsonl -trace demo.log.trace.json
	$(GO) run ./cmd/hdlog -check-trace demo.trace.json
	$(GO) run ./cmd/hdlog -check-trace demo.log.trace.json
