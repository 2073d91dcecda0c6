# BlastFunction reproduction build targets.
GO ?= go

.PHONY: all build test test-benchmark fuzz-smoke vet race allocs bench bench-dataplane bench-scale bench-obs trace-overhead check experiments examples sched-ablation clean

all: build test

build:
	$(GO) build ./...

test: vet race fuzz-smoke test-benchmark
	$(GO) test ./...

# benchmark/ is a nested module, so `go test ./...` above never compiles
# it: an internal/ change that breaks bfbench has to fail here, in the
# normal developer loop, not when the benchmark driver next runs.
test-benchmark:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# Ten seconds of mutation per native fuzz target (the wire decoders and the
# streaming notification decoder, the flag grammars and the metrics
# exposition parser), starting from the seeds in the test files and the
# corpora committed under testdata/fuzz. A failing input is written
# there too; commit it with the fix.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzReadFrame$$' -fuzztime 10s ./internal/rpc/
	$(GO) test -run '^$$' -fuzz '^FuzzDecoders$$' -fuzztime 10s ./internal/wire/
	$(GO) test -run '^$$' -fuzz '^FuzzNotificationStream$$' -fuzztime 10s ./internal/wire/
	$(GO) test -run '^$$' -fuzz '^FuzzParseWeights$$' -fuzztime 10s ./internal/sched/
	$(GO) test -run '^$$' -fuzz '^FuzzParseAdmission$$' -fuzztime 10s ./internal/gateway/
	$(GO) test -run '^$$' -fuzz '^FuzzParseObjective$$' -fuzztime 10s ./internal/slo/
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 10s ./internal/metrics/

# The second vet compiles for a non-Linux system, which keeps the
# time.Sleep fallback of fpga.SleepUntil (sleep_other.go) building. Any
# file gofmt would rewrite fails the target, and is named.
vet:
	$(GO) vet ./...
	GOOS=darwin GOARCH=arm64 $(GO) vet ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then echo "gofmt -l:"; echo "$$unformatted"; exit 1; fi

race:
	$(GO) test -race ./...

# Every allocation-budget test, by name. Most are built !race (sync.Pool
# drops Puts at random under the race detector), so `make race` never
# runs them; this is the one command that shows them all.
allocs:
	$(GO) test -count=1 -run 'Allocat' -v ./...

# Run the scheduling fairness experiment: the two-tenant skew workload on
# the real Device Manager under fifo vs drr, checked against the
# discrete-event ablation's prediction, the Sobel high-load scenario under
# both disciplines (fifo, drr), plus the queue microbenchmarks.
sched-ablation:
	$(GO) test -race -v ./internal/simcluster/ -run Fairness
	$(GO) test -run '^$$' -bench BenchmarkAblationScheduling -benchtime 1x .
	$(GO) test -bench BenchmarkPushPop -benchmem ./internal/sched/

bench: trace-overhead
	$(GO) test -bench=. -benchmem ./...

# Record the data-plane reuse trajectory into BENCH_dataplane.json:
# bytes-moved/op and us/op for the repeated-input (CNN weights) and
# chained-pipeline workloads, content cache on vs off, next to the
# transport round-trip baselines.
bench-dataplane:
	BF_BENCH_DATAPLANE=1 $(GO) test -run TestBenchDataplaneArtifact -count=1 -v .

# Record the cluster-scale front-door trajectory into BENCH_scale.json:
# p50/p99 and rejection rate at 100 boards / 500 tenants past saturation,
# bare round-robin vs admission + least-inflight (the gateway's own
# Admission and Router under the DES clock), plus the placement pass's
# Gatherer query cost.
bench-scale:
	BF_BENCH_SCALE=1 $(GO) test -run TestBenchScaleArtifact -count=1 -v .

# Record the observability tax into BENCH_obs.json: the three histogram
# observation paths (plain, unsampled exemplar, sampled exemplar), the
# runtime collector's sampling cost, the scrape render with exemplars
# on vs off, one ingest (render, parse, append) of 500 histogram series
# into a TSDB that holds them, and the always-on flight recorder's per-task cost against
# the live 4K round trip. Two gates fail the run on regression: the
# unsampled exemplar path — what every request pays at default
# sampling — must stay within 2% of a plain Observe, and the flight
# recorder's per-task work must stay within 2% of the recorder-free
# round trip.
bench-obs:
	BF_BENCH_OBS=1 $(GO) test -run TestBenchObsArtifact -count=1 -v .

# Measure the distributed-tracing tax on the hot RPC path: the 4K gRPC
# round trip with tracing off, sampling 1% and sampling 100%, next to the
# untouched baseline benchmark. The sampling-off budget is <2%.
trace-overhead:
	$(GO) test -run '^$$' -bench 'BenchmarkTraceOverhead|BenchmarkLiveRoundTripGRPC4K$$' -benchmem .

# Verify the paper's qualitative claims hold.
check:
	$(GO) run ./cmd/blastbench -check

# Regenerate every figure and table of the paper.
experiments:
	$(GO) run ./cmd/blastbench -exp all

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/matrixservice
	$(GO) run ./examples/cnninference
	$(GO) run ./examples/imagepipeline

clean:
	$(GO) clean ./...
