GO ?= go

.PHONY: build test race cli-smoke bench bench-sim bench-smoke vet ci cover fuzz-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# test runs the test suite, then vets and tests perfbench: it is its own
# module (perfbench/go.mod), so the root commands skip it, and it calls the
# server and gateway APIs.
test:
	$(GO) test ./...
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# race runs the full test suite under the race detector, without -short, so
# gliderd's TestSoak load run is included. The experiment harness fans
# simulations out across goroutines (internal/simrunner), the server and
# gateway share one mutex-coordinated request front, and most tests run with
# t.Parallel(), so this exercises the concurrent paths for real: the
# simrunner pool and parallel training, the trace store and its consumers,
# the oracle walls, the server's front, queue and drain, the gateway's
# routing, chaos and cluster-differential suites, the workload spec schemes,
# the surrogate and sweep pruning walls, and the ledger with its recording
# suites. Expect it to take several times longer than `make test`.
race:
	$(GO) test -race -count 1 ./...

# cli-smoke drives the CLIs end to end, in this order:
#   - a scenario-zoo sweep over workload spec strings;
#   - the observability pipeline: glidersim with -metrics for glider and
#     both reuse-distance policies, frd and msa, whose obs hooks live in one
#     shared core, plus an experiment run, each emitting JSONL that
#     obsreport must aggregate. Each glidersim file must hold exactly one
#     obs/snapshot event, and obsreport must render the frd and msa runs'
#     snapshots as two sections, each with its own 77-PC table;
#   - the ledger loop: anchor a real zoo run to a disk ledger with
#     cmd/experiments, then audit the file with a process that never trusted
#     the writer and re-simulate the anchored zoo bit for bit;
#   - a ChampSim file that cmd/tracegen writes from a workload spec and
#     summarises back through champsim(file=...), replayed by cmd/glidersim
#     and used by cmd/offline to train every offline model;
#   - cmd/glidersim on four cores, one policy and then a comparison, both
#     replaying one capture of the trace. The one-policy run's output goes to
#     a file first, so a failing glidersim cannot hide behind a pipe, and no
#     IPC it prints may be zero;
#   - cmd/glidersim and cmd/tracegen refusing the empty trace that
#     -accesses 0 gives a generated workload (0 means the whole file only for
#     champsim(file=...));
#   - gliderd as a process: loadgen sends it real simulation traffic and
#     exits 1 on any failed request, then SIGTERM must drain it to exit
#     status 0. gliderd starts as a bare command, so $! is its PID.
cli-smoke:
	$(GO) run ./cmd/experiments -quick -accesses 20000 -zoo-spec 'zipf(objects=65536,skew=0.9)' -zoo-spec 'mix(rr,zipf(objects=49152,skew=1.1),mcf)' zoo
	$(GO) run ./cmd/glidersim -bench omnetpp -policy glider -accesses 100000 -metrics /tmp/glider-metrics.jsonl -metrics-summary
	$(GO) run ./cmd/obsreport /tmp/glider-metrics.jsonl
	$(GO) run ./cmd/glidersim -bench omnetpp -policy frd -accesses 100000 -metrics /tmp/frd-metrics.jsonl -metrics-summary
	$(GO) run ./cmd/glidersim -bench omnetpp -policy msa -accesses 100000 -metrics /tmp/msa-metrics.jsonl -metrics-summary
	for f in /tmp/glider-metrics.jsonl /tmp/frd-metrics.jsonl /tmp/msa-metrics.jsonl; do \
		test "$$(grep -c '"component":"obs","event":"snapshot"' $$f)" = 1 || { echo "$$f: want one obs/snapshot event"; exit 1; }; \
	done
	$(GO) run ./cmd/obsreport /tmp/frd-metrics.jsonl /tmp/msa-metrics.jsonl > /tmp/glider-obsreport.txt
	cat /tmp/glider-obsreport.txt
	test "$$(grep -cF 'cache.LLC.pc (77 PCs' /tmp/glider-obsreport.txt)" = 2
	$(GO) run ./cmd/experiments -quick -metrics /tmp/glider-exp.jsonl table2
	$(GO) run ./cmd/obsreport -top 5 /tmp/glider-metrics.jsonl /tmp/glider-exp.jsonl
	rm -f /tmp/glider-ledger-smoke.ledger
	$(GO) run ./cmd/experiments -quick -accesses 20000 -ledger /tmp/glider-ledger-smoke.ledger zoo
	$(GO) run ./cmd/audit verify -ledger /tmp/glider-ledger-smoke.ledger
	$(GO) run ./cmd/audit verify -ledger /tmp/glider-ledger-smoke.ledger -artifact "$$($(GO) run ./cmd/audit list -ledger /tmp/glider-ledger-smoke.ledger | awk '$$2=="zoo"{print $$1}')" -resim
	$(GO) run ./cmd/audit root -ledger /tmp/glider-ledger-smoke.ledger
	$(GO) run ./cmd/tracegen -bench mcf -accesses 60000 -o /tmp/glider-mcf.champsim
	$(GO) run ./cmd/tracegen -bench 'champsim(file=/tmp/glider-mcf.champsim)' -accesses 0 -stats -reuse
	$(GO) run ./cmd/glidersim -bench 'champsim(file=/tmp/glider-mcf.champsim)' -policy glider -accesses 60000
	$(GO) run ./cmd/offline -bench 'champsim(file=/tmp/glider-mcf.champsim)' -accesses 60000 -models all -epochs 1 -lstm-epochs 1
	$(GO) run ./cmd/glidersim -bench mcf -cores 4 -timing -policy hawkeye -accesses 80000 > /tmp/glider-4core.txt
	cat /tmp/glider-4core.txt
	! grep -E 'IPC +0\.000' /tmp/glider-4core.txt
	$(GO) run ./cmd/glidersim -bench mcf -cores 4 -timing -policy lru,hawkeye -accesses 80000
	! $(GO) run ./cmd/glidersim -bench mcf -accesses 0
	! $(GO) run ./cmd/tracegen -bench mcf -accesses 0 -stats
	$(GO) build -o /tmp/glider-gliderd ./cmd/gliderd
	$(GO) build -o /tmp/glider-loadgen ./cmd/loadgen
	/tmp/glider-gliderd -addr 127.0.0.1:18099 -workers 2 & pid=$$!; \
	for i in $$(seq 50); do curl -sf http://127.0.0.1:18099/healthz > /dev/null && break; sleep 0.2; done; \
	/tmp/glider-loadgen -target http://127.0.0.1:18099 -duration 3s -rate 20 -accesses 20000 -slo-p99 30s -slo-error-rate 0 || { kill $$pid; exit 1; }; \
	kill -TERM $$pid; wait $$pid

# bench runs the training/kernel benchmarks at full fidelity and records
# the results as JSON in BENCH_train.json (see cmd/benchjson). The raw
# benchmark stream still prints to the terminal.
bench: bench-sim
	$(GO) test -run XXX -bench . -benchmem ./internal/ml/ ./internal/offline/ | $(GO) run ./cmd/benchjson -o BENCH_train.json

# bench-sim runs the simulator-side benchmarks (full sweeps, the
# hierarchy/trace-generation microbenchmarks, and every policy alone on a
# captured LLC stream) and records BENCH_sim.json — the evidence file for
# hot-path optimization claims. The microbenchmarks run five times each
# (-count 5) and benchjson records each one's median, because single
# one-second samples of one binary spread by more than 10%; the sweeps run
# for minutes and once.
bench-sim:
	$(GO) test -run XXX -bench 'BenchmarkRunTable2Parallel|BenchmarkFig11Sweep|BenchmarkSweepPruned|BenchmarkSweepExhaustive' -benchmem -timeout 60m . > /tmp/bench_sim_root.txt
	$(GO) test -run XXX -bench 'BenchmarkHierarchyAccess|BenchmarkTraceGenerate' -benchmem -count 5 . >> /tmp/bench_sim_root.txt
	$(GO) test -run XXX -bench 'BenchmarkFRDAccess|BenchmarkMSAAccess|BenchmarkHawkeyeAccess|BenchmarkGliderAccess|BenchmarkLLCPolicy' -benchmem -count 5 ./internal/policy/ > /tmp/bench_sim_policy.txt
	cat /tmp/bench_sim_root.txt /tmp/bench_sim_policy.txt | $(GO) run ./cmd/benchjson -o BENCH_sim.json

# bench-smoke compiles and runs every benchmark exactly once — a fast check
# that the benchmark code compiles and executes, with no timing claims, so
# BENCH_train.json and BENCH_sim.json stay producible on every commit.
bench-smoke:
	$(GO) test -run XXX -bench . -benchtime 1x ./...

# cover runs the per-package coverage ratchet: any package falling below its
# floor in coverage.txt, or a new package with no floor, fails. Raise floors
# with `go run ./cmd/covcheck -profile cover.out -update` after an
# intentional coverage change.
cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) run ./cmd/covcheck -profile cover.out -floors coverage.txt

# fuzz-smoke gives each fuzz target a short budget on top of the checked-in
# seed corpus (which plain `go test` already replays). -fuzzminimizetime 20x
# caps the minimization of each new input: at Go's default of 60 s, a target
# that finds one new input spends the rest of its 10 s minimizing it.
fuzz-smoke:
	$(GO) test ./internal/trace/ -run '^FuzzReadChampSim$$' -fuzz '^FuzzReadChampSim$$' -fuzztime 10s -fuzzminimizetime 20x
	$(GO) test ./internal/workload/ -run '^FuzzParseSpec$$' -fuzz '^FuzzParseSpec$$' -fuzztime 10s -fuzzminimizetime 20x
	$(GO) test ./internal/workload/ -run '^FuzzZipfSearch$$' -fuzz '^FuzzZipfSearch$$' -fuzztime 10s -fuzzminimizetime 20x
	$(GO) test ./internal/server/ -run '^FuzzJobSpecDecode$$' -fuzz '^FuzzJobSpecDecode$$' -fuzztime 10s -fuzzminimizetime 20x
	$(GO) test ./internal/server/ -run '^FuzzJobHash$$' -fuzz '^FuzzJobHash$$' -fuzztime 10s -fuzzminimizetime 20x
	$(GO) test ./internal/gateway/ -run '^FuzzRingChurn$$' -fuzz '^FuzzRingChurn$$' -fuzztime 10s -fuzzminimizetime 20x
	$(GO) test ./internal/policy/ -run '^FuzzFRDAccess$$' -fuzz '^FuzzFRDAccess$$' -fuzztime 10s -fuzzminimizetime 20x
	$(GO) test ./internal/policy/ -run '^FuzzMSAAccess$$' -fuzz '^FuzzMSAAccess$$' -fuzztime 10s -fuzzminimizetime 20x
	$(GO) test ./internal/opt/ -run '^FuzzTableMatchesMap$$' -fuzz '^FuzzTableMatchesMap$$' -fuzztime 10s -fuzzminimizetime 20x
	$(GO) test ./internal/cpu/ -run '^FuzzReplayMatchesReference$$' -fuzz '^FuzzReplayMatchesReference$$' -fuzztime 10s -fuzzminimizetime 20x
	$(GO) test ./internal/cache/ -run '^FuzzCacheMatchesReference$$' -fuzz '^FuzzCacheMatchesReference$$' -fuzztime 10s -fuzzminimizetime 20x
	$(GO) test ./internal/ledger/ -run '^FuzzCanonicalize$$' -fuzz '^FuzzCanonicalize$$' -fuzztime 10s -fuzzminimizetime 20x
	$(GO) test ./internal/ledger/ -run '^FuzzRecordScan$$' -fuzz '^FuzzRecordScan$$' -fuzztime 10s -fuzzminimizetime 20x
	$(GO) test ./internal/ledger/ -run '^FuzzProofVerify$$' -fuzz '^FuzzProofVerify$$' -fuzztime 10s -fuzzminimizetime 20x

# ci runs the CI tiers in order: vet, build and test (with perfbench), race,
# cli-smoke, the coverage ratchet, fuzz-smoke and bench-smoke.
ci: vet build test race cli-smoke cover fuzz-smoke bench-smoke
