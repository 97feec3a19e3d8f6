GO ?= go

.PHONY: check build fmt vet lint fuzz test race allocs purego crossbuild bench benchmodule loc loccheck apicheck apigen loadsmoke clustersmoke

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
# `go test`). Targets: the checkpoint v2 container decoder, the
# compress wire-frame decoders, the socket fabric's frame reader and
# bundle parser, the Prometheus exposition validator, the tracev1
# reader, the gateway's submission classifier (request body → job
# spec → dedupe key) and its id rewriter (replica body → namespaced
# body, every other value byte-equal) — parsers that consume bytes from
# disk, socket or an HTTP peer — and the kernel-vs-scalar-loop
# equality of internal/tensor, where the fuzzer picks lengths,
# misalignments, aliasing and raw float bits for every kernel that has
# an assembly body, and of internal/nn's convolution layer, where it
# picks the geometry, the sample count and the float bits and the layer
# must match the direct convolution and its pre-GEMM form bit for bit.
FUZZTIME ?= 30s
fuzz:
	$(GO) test ./internal/checkpoint -fuzz FuzzUnmarshal -fuzztime $(FUZZTIME)
	$(GO) test ./internal/compress -fuzz FuzzWireDecode -fuzztime $(FUZZTIME)
	$(GO) test ./internal/compress -fuzz FuzzWireRoundtrip -fuzztime $(FUZZTIME)
	$(GO) test ./internal/comm -fuzz FuzzReadFrame -fuzztime $(FUZZTIME)
	$(GO) test ./internal/comm -fuzz FuzzSplitBundle -fuzztime $(FUZZTIME)
	$(GO) test ./internal/obs -fuzz FuzzValidatePrometheusText -fuzztime $(FUZZTIME)
	$(GO) test ./internal/workload -fuzz FuzzReadTrace -fuzztime $(FUZZTIME)
	$(GO) test ./internal/cluster -fuzz FuzzAffinityAddress -fuzztime $(FUZZTIME)
	$(GO) test ./internal/cluster -fuzz FuzzRewriteID -fuzztime $(FUZZTIME)
	$(GO) test ./internal/tensor -fuzz FuzzKernelsMatchScalar -fuzztime $(FUZZTIME)
	$(GO) test ./internal/nn -fuzz FuzzConvMatchesDirectReference -fuzztime $(FUZZTIME)

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
# contract (DESIGN.md §7) — the batched loss-gradient pass on its own and
# the whole training step — the telemetry layer's zero-alloc hot path
# in both enabled and disabled states (DESIGN.md §11) and the socket
# fabric's steady state, workers and coordinator together (DESIGN.md
# §9); race instrumentation allocates, so they skip themselves under
# -race and need this separate uninstrumented run.
allocs:
	$(GO) test ./internal/nn/ ./internal/core/ ./internal/obs/ ./internal/comm/ -run ZeroAllocs -v | grep -v '^=== RUN'

# purego runs the numeric core with the assembly compiled out, so the
# portable Go loops — the specification the AVX2 kernels are pinned to,
# and the only path off amd64 — cannot rot. internal/models carries the
# trajectory digests that must match in both builds.
purego:
	$(GO) test -tags purego ./internal/tensor ./internal/nn ./internal/opt ./internal/models ./internal/core

# crossbuild checks the build-tag split on a non-amd64 target.
crossbuild:
	GOARCH=arm64 $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./internal/tensor ./internal/opt

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
# traffic through fdaload's default mix, and validate the report —
# nonzero completed work, zero unexpected errors (-check exits
# non-zero otherwise).
loadsmoke:
	@rm -rf .loadsmoke && mkdir -p .loadsmoke
	@$(GO) build -o .loadsmoke/ ./cmd/fdaserve ./cmd/fdaload
	@./.loadsmoke/fdaserve -store .loadsmoke/store -addr 127.0.0.1:18091 \
		-max-queue 256 >.loadsmoke/server.log 2>&1 & \
	pid=$$!; \
	trap 'kill $$pid 2>/dev/null; wait' EXIT; \
	for i in $$(seq 1 50); do \
		curl -sf http://127.0.0.1:18091/healthz >/dev/null 2>&1 && break; sleep 0.2; \
	done; \
	./.loadsmoke/fdaload -addr http://127.0.0.1:18091 -rate 40 -duration 2s \
		-mix train=1,status=4,store=1 -steps 10 -k 1 -eval-every 10 \
		-out .loadsmoke/report.json -check
	@rm -rf .loadsmoke

# clustersmoke is the scale-out CI gate (DESIGN.md §14): three fdaserve
# replicas on one shared store behind fdagate, two seconds of Poisson
# traffic through the gateway, and the fdaload report gated on zero
# unexpected errors with at most 25% shed load. Traffic starts once the
# gateway is up (bare /healthz, the probe loadsmoke, CI and benchmark/
# use) and its /v1/healthz reports a routable replica.
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
	./.clustersmoke/fdaload -addr http://127.0.0.1:18090 -rate 15 -duration 2s \
		-mix train=1,status=4,store=1 -steps 10 -k 1 -eval-every 10 \
		-out .clustersmoke/report.json -check -max-rejected 0.25
	@rm -rf .clustersmoke
