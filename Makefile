GO ?= go

.PHONY: check build fmt vet lint fuzz test race allocs purego crossbuild bench benchmodule loc loccheck apicheck apigen loadsmoke clustersmoke distsmoke

# check is the CI gate: formatting, static analysis (go vet plus the
# fdavet invariant analyzers), the public-API surface diff, the size
# ratchet, the full test suite under the race detector, the
# zero-allocation regressions (which must run without -race, where they
# self-skip), and the benchmark module's own vet and tests. It writes no
# tracked file.
check: fmt vet lint apicheck loccheck race allocs benchmodule

# benchmark/ is a nested module (repro/benchmark), invisible to the
# root ./... patterns above; -short skips its plumbing smoke run.
benchmodule:
	cd benchmark && $(GO) vet ./... && $(GO) test -short ./...

# loc prints the non-test, non-comment, non-blank Go line count outside
# benchmark/ — the size the consolidation work is measured by.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' | xargs cat | grep -v '^\s*//' | grep -v '^\s*$$' | wc -l

# loccheck gates the size the way apicheck gates the public surface:
# docs/loc.txt holds the committed `make loc`, and a tree that counts
# more fails. Growth is therefore an explicit, reviewed edit of that
# file — a PR that earns its lines raises the number, one that deletes
# lowers it to keep the ratchet tight — and never a side effect.
loccheck:
	@have=$$($(MAKE) -s --no-print-directory loc); want=$$(cat docs/loc.txt); \
	if [ "$$have" -gt "$$want" ]; then \
		echo "make loc = $$have, above the committed $$want; delete the growth or raise docs/loc.txt in this change and say why"; \
		exit 1; \
	fi; \
	echo "make loc = $$have (docs/loc.txt: $$want)"

# lint runs the fdavet suite (DESIGN.md §12): detmap, wallclock,
# floatsum, obswrite and noalloc enforce the determinism, zero-alloc
# and telemetry-non-interference invariants on every package. Exits
# non-zero on any finding, including unused //fda:allow annotations.
lint:
	$(GO) run ./cmd/fdavet ./...

# fuzz gives each native fuzz target a short adversarial run on top of
# its always-on seed corpus (the seeds run as plain tests under
# `go test`). Targets: the checkpoint v2 container decoder (anything it
# accepts must re-marshal to the same bytes), the socket fabric's frame
# reader and rendezvous parsers (the assignment's peer table, the peer
# hello), the Prometheus exposition validator, the tracev1 reader, the
# gateway's submission classifier (request body → job
# spec → dedupe key) and its id rewriter (replica body → namespaced
# body, every other value byte-equal), the job table's journal recovery
# (internal/jobs, fdaserve's jobs)
# and the run registry's manifest check, planted in a run and a
# snapshot alike (one entry format) — parsers that consume bytes
# from disk, socket or an HTTP peer — and the kernel-vs-scalar-loop
# equality of internal/tensor, where the fuzzer picks lengths,
# misalignments, aliasing and raw float bits for every kernel that has
# an assembly body, and of internal/nn's convolution and 2×2 max-pool
# layers, where it picks the geometry, the sample or plane count and
# the float bits and the layer must match the direct convolution and
# its pre-GEMM form, or the strict-> window scan, bit for bit.
FUZZTIME ?= 30s
fuzz:
	$(GO) test ./internal/checkpoint -fuzz FuzzUnmarshal -fuzztime $(FUZZTIME)
	$(GO) test ./internal/comm -fuzz FuzzReadFrame -fuzztime $(FUZZTIME)
	$(GO) test ./internal/comm -fuzz FuzzRendezvousParsers -fuzztime $(FUZZTIME)
	$(GO) test ./internal/obs -fuzz FuzzValidatePrometheusText -fuzztime $(FUZZTIME)
	$(GO) test ./internal/workload -fuzz FuzzReadTrace -fuzztime $(FUZZTIME)
	$(GO) test ./internal/cluster -fuzz FuzzAffinityAddress -fuzztime $(FUZZTIME)
	$(GO) test ./internal/cluster -fuzz FuzzRewriteID -fuzztime $(FUZZTIME)
	$(GO) test ./internal/tensor -fuzz FuzzKernelsMatchScalar -fuzztime $(FUZZTIME)
	$(GO) test ./internal/nn -fuzz FuzzConvMatchesDirectReference -fuzztime $(FUZZTIME)
	$(GO) test ./internal/nn -fuzz FuzzMaxPoolMatchesScalar -fuzztime $(FUZZTIME)
	$(GO) test ./internal/jobs -fuzz FuzzJournalRecover -fuzztime $(FUZZTIME)
	$(GO) test ./internal/runstore -fuzz FuzzStoreManifest -fuzztime $(FUZZTIME)

# The public surface of the fda package is pinned in docs/fda-api.txt
# (a go doc -all dump). apicheck fails when a change alters it without
# regenerating the golden file (make apigen), so API breaks are always
# an explicit, reviewed diff — never a silent side effect.
apicheck:
	@$(GO) doc -all ./fda > .fda-api.tmp || { rm -f .fda-api.tmp; exit 1; }
	@if ! diff -u docs/fda-api.txt .fda-api.tmp; then \
		rm -f .fda-api.tmp; \
		echo "public fda API changed; review the diff above and run 'make apigen'"; \
		exit 1; \
	fi
	@rm -f .fda-api.tmp

apigen:
	@mkdir -p docs
	@$(GO) doc -all ./fda > docs/fda-api.txt
	@echo "wrote docs/fda-api.txt"

# The AllocsPerRun assertions guard the steady-state zero-allocation
# contract (DESIGN.md §7) — the batched loss-gradient pass on its own,
# the whole training step and asynchronous FDA's event step (one pop, a
# local step, a state, an estimate, a push) — the telemetry layer's
# zero-alloc hot path
# in both enabled and disabled states (DESIGN.md §11) and the socket
# fabric's steady state, two workers, their writer and watcher
# goroutines and the coordinator together (DESIGN.md §9); race instrumentation allocates, so they skip themselves under
# -race and need this separate uninstrumented run.
allocs:
	$(GO) test ./internal/nn/ ./internal/core/ ./internal/obs/ ./internal/comm/ -run ZeroAllocs -v | grep -v '^=== RUN'

# purego runs the numeric core with the assembly compiled out, so the
# portable Go loops — the specification the AVX2 kernels are pinned to,
# and the only path off amd64 — cannot rot. internal/models carries the
# trajectory digests and internal/core every strategy's pinned digest
# (TestStrategyDigestsMatchPinnedBuild), which must match in both
# builds; internal/comm's
# socket fabric folds and encodes its wire bytes with the little-endian
# byte kernels, so its tests run the wire fold's Go specification and
# the encoded send of builds without tensor.ViewLE's memory view.
purego:
	$(GO) test -tags purego ./internal/tensor ./internal/nn ./internal/opt ./internal/models ./internal/core ./internal/comm

# crossbuild checks the build-tag split on non-amd64 targets: the
# kernels and their callers in the optimizer and the socket fabric. s390x
# is big-endian, where a float64's memory image is not its wire encoding,
# so the socket fabric must build there without tensor.ViewLE's view.
crossbuild:
	GOARCH=arm64 $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./internal/tensor ./internal/opt ./internal/comm
	GOARCH=s390x $(GO) build ./...
	GOARCH=s390x $(GO) vet ./internal/tensor ./internal/comm

build:
	$(GO) build ./...

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The explicit timeout keeps the race-instrumented figure sweeps from
# tripping go test's 10m default on small (1–2 core) machines.
race:
	$(GO) test -race -timeout 45m ./...

# bench prints the paper's artefacts — the Table 2 / Figure 3–13 /
# ablation series at Tiny scale, once each — and the workload engine's
# schedule-generation series. It writes no file and times no code path
# a claim may cite: speed is measured with
# `go run -C benchmark repro/benchmark` (BENCHMARK.json) only.
bench:
	$(GO) test -run '^$$' -bench '^Benchmark(Table2|Figure|Ablation)' \
		-benchtime 1x -benchmem -timeout 0 .
	$(GO) test -run '^$$' -bench '^BenchmarkWorkload' \
		-benchtime 100x -benchmem -timeout 0 ./internal/workload

# loadsmoke is the load-path CI gate (DESIGN.md §13): boot a real
# fdaserve with the admission cap armed, drive two seconds of Poisson
# traffic from the committed spec docs/workloads/loadsmoke.json, and
# validate the report — nonzero completed work, zero unexpected errors
# (-check exits non-zero otherwise). Its restart leg then trains one
# fixed spec to done, kills fdaserve with -9, restarts it on the same
# store and resubmits: the records (job id aside) must compare equal,
# and the restarted process must have taken no training step (no
# fda_steps_total sample above 0).
LOADSMOKE_ADDR = http://127.0.0.1:18091
LOADSMOKE_TRAIN = {"model":"lenet5s","strategy":"LinearFDA","k":2,"steps":20,"eval_every":10,"seed":8675309}
loadsmoke:
	@rm -rf .loadsmoke && mkdir -p .loadsmoke
	@$(GO) build -o .loadsmoke/ ./cmd/fdaserve ./cmd/fdaload
	@serve() { \
		./.loadsmoke/fdaserve -store .loadsmoke/store -addr 127.0.0.1:18091 \
			-max-queue 256 >>.loadsmoke/server.log 2>&1 & \
		pid=$$!; \
		for i in $$(seq 1 50); do \
			curl -sf $(LOADSMOKE_ADDR)/healthz >/dev/null 2>&1 && break; sleep 0.2; \
		done; \
	}; \
	train() { \
		id=$$(curl -sf -X POST $(LOADSMOKE_ADDR)/v1/train -d '$(LOADSMOKE_TRAIN)' | \
			sed -n 's/^{"id":"\([^"]*\)".*/\1/p'); \
		for i in $$(seq 1 300); do \
			curl -sf $(LOADSMOKE_ADDR)/v1/runs/$$id | grep -q '"status":"running"' || break; sleep 0.1; \
		done; \
		curl -sf $(LOADSMOKE_ADDR)/v1/runs/$$id/records | sed 's/^{"id":"[^"]*",//' >$$1; \
	}; \
	pid=; trap 'kill $$pid 2>/dev/null; wait' EXIT; \
	serve; \
	./.loadsmoke/fdaload -addr $(LOADSMOKE_ADDR) -spec docs/workloads/loadsmoke.json \
		-out .loadsmoke/report.json -check || exit 1; \
	train .loadsmoke/records1.json; \
	kill -9 $$pid; wait $$pid 2>/dev/null; \
	serve; \
	train .loadsmoke/records2.json; \
	grep -q '"records"' .loadsmoke/records1.json || { echo "loadsmoke: the restart leg's train did not finish"; exit 1; }; \
	cmp .loadsmoke/records1.json .loadsmoke/records2.json || { echo "loadsmoke: records differ after a restart"; exit 1; }; \
	curl -sf $(LOADSMOKE_ADDR)/metrics | awk '$$1 ~ /^fda_steps_total/ && $$2 > 0 { bad = 1 } END { exit bad }' || \
		{ echo "loadsmoke: the restarted fdaserve retrained a stored result"; exit 1; }; \
	echo "loadsmoke: restart ok (the resubmission was a store hit)"
	@rm -rf .loadsmoke

# clustersmoke is the scale-out CI gate (DESIGN.md §14): three fdaserve
# replicas on one shared store behind fdagate, two seconds of Poisson
# traffic (docs/workloads/clustersmoke.json) through the gateway, and
# the fdaload report gated on zero unexpected errors with at most 25%
# shed load. Traffic starts once the gateway is up (bare /healthz, the
# probe loadsmoke, CI and benchmark/ use) and its /v1/healthz reports a
# routable replica.
clustersmoke:
	@rm -rf .clustersmoke && mkdir -p .clustersmoke
	@$(GO) build -o .clustersmoke/ ./cmd/fdaserve ./cmd/fdagate ./cmd/fdaload
	@pids=""; \
	trap 'kill $$pids 2>/dev/null; wait' EXIT; \
	for i in 1 2 3; do \
		./.clustersmoke/fdaserve -store .clustersmoke/store -addr 127.0.0.1:1809$$i \
			-name r$$i -max-queue 64 >.clustersmoke/serve$$i.log 2>&1 & \
		pids="$$pids $$!"; \
	done; \
	./.clustersmoke/fdagate -addr 127.0.0.1:18090 \
		-replicas http://127.0.0.1:18091,http://127.0.0.1:18092,http://127.0.0.1:18093 \
		-poll 500ms >.clustersmoke/gate.log 2>&1 & \
	pids="$$pids $$!"; \
	for t in $$(seq 1 50); do \
		curl -sf http://127.0.0.1:18090/healthz >/dev/null 2>&1 && \
		curl -sf http://127.0.0.1:18090/v1/healthz 2>/dev/null | grep -q '"status":"ok"' && break; sleep 0.2; \
	done; \
	./.clustersmoke/fdaload -addr http://127.0.0.1:18090 -spec docs/workloads/clustersmoke.json \
		-out .clustersmoke/report.json -check -max-rejected 0.25
	@rm -rf .clustersmoke

# distsmoke is the socket fabric's cross-process gate (DESIGN.md §9): a
# coordinator and two worker processes train a tiny spec over loopback
# TCP. The coordinator's result block must equal an in-process run of
# the same spec, and each worker must report the payload bytes its
# fabric moved, exactly: the workers exchange their collectives
# directly, so a worker's 21 rounds (20 syncs and the final evaluation's
# gather) move 8P bytes out to its peer and 8P in, for P = 2618 lenet5s
# parameters — 21 × 2 × 8 × 2 618 = 879 648 bytes. Workers start once
# the coordinator is listening; they are waited on first, so a worker
# that fails ends the gate instead of leaving the coordinator waiting
# for it.
DISTSMOKE_SPEC = -model lenet5s -strategy Synchronous -k 2 -steps 20
distsmoke:
	@rm -rf .distsmoke && mkdir -p .distsmoke
	@$(GO) build -o .distsmoke/ ./cmd/fdarun
	@./.distsmoke/fdarun $(DISTSMOKE_SPEC) | sed '/^history:/,$$d' >.distsmoke/local.txt
	@./.distsmoke/fdarun $(DISTSMOKE_SPEC) -coordinator 127.0.0.1:18094 \
		>.distsmoke/coord.out 2>.distsmoke/coord.log & \
	coord=$$!; pids=$$coord; \
	trap 'kill $$pids 2>/dev/null; wait' EXIT; \
	for i in $$(seq 1 50); do \
		grep -q '^coordinating' .distsmoke/coord.out && break; sleep 0.2; \
	done; \
	workers=""; \
	for r in 0 1; do \
		./.distsmoke/fdarun -worker -connect 127.0.0.1:18094 >.distsmoke/worker$$r.log 2>&1 & \
		workers="$$workers $$!"; \
	done; \
	pids="$$pids $$workers"; \
	for w in $$workers; do wait $$w || { echo "distsmoke: a worker failed"; exit 1; }; done; \
	wait $$coord || { echo "distsmoke: the coordinator failed"; cat .distsmoke/coord.log; exit 1; }; \
	grep -v '^coordinating' .distsmoke/coord.out >.distsmoke/dist.txt; \
	diff .distsmoke/local.txt .distsmoke/dist.txt || { echo "distsmoke: distributed result differs from the in-process run"; exit 1; }; \
	for r in 0 1; do \
		grep -qx 'fabric: 879648 payload bytes moved' .distsmoke/worker$$r.log || \
			{ echo "distsmoke: a worker's fabric did not move exactly 879648 payload bytes"; cat .distsmoke/worker$$r.log; exit 1; }; \
	done; \
	echo "distsmoke: check ok (each worker's fabric: 879648 payload bytes moved)"
	@rm -rf .distsmoke
