# extremenc — build/test/reproduce targets. Everything is stdlib Go.

GO ?= go

# Packages covered by the race detector: the codec hot paths (worker pool,
# gf256 kernels, decode pipelines) plus everything that moves blocks across
# goroutines. One list, shared by `vet`'s quick pass and the `race` target,
# and mirrored by the CI workflow.
RACE_PKGS = ./internal/gf256/ ./internal/rlnc/ ./internal/netio/ ./internal/core/ ./internal/stream/ ./internal/obs/ ./internal/obs/trace/ .

.PHONY: all build fmt-check vet test portable perfbench-check race fuzz-regress chaos staticcheck serve-smoke metrics-smoke xor-smoke mesh-smoke load-smoke drain-chaos soak-smoke trace-smoke stress loadtest bench bench-host bench-smoke bench-check ci figures figures-csv examples clean

all: build vet test

build:
	$(GO) build ./...

# Fail when any tracked Go file is not gofmt-clean.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Static checks. The race pass lives in the `race` target (over RACE_PKGS)
# so `ci` runs it exactly once.
vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Portable-kernel gate. On amd64 the GF(2^8)/XOR kernels dispatch to AVX2
# assembly, so an amd64 test run meets the portable kernels only as the
# differential oracle and on row tails. A 386 build has no assembly rung:
# its run of the gf256 and rlnc suites takes the portable path end to end
# (386 binaries run natively on an amd64 host). The arm64 pass vets and
# builds the whole tree for a target with no vector rung at all.
portable:
	GOARCH=386 $(GO) test -count=1 ./internal/gf256/ ./internal/rlnc/
	GOARCH=arm64 $(GO) vet ./... && GOARCH=arm64 $(GO) build ./...

# The benchmark harness is its own Go module (perfbench/go.mod replaces
# extremenc with ../), so `go test ./...` at the root never compiles it. Vet
# and test it here so an API change it depends on cannot break it unseen.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test -count=1 ./...

race:
	$(GO) test -race -count=1 $(RACE_PKGS)

# Replay the committed fuzz seed corpora as regression tests (no fuzzing
# time budget — just every F.Add case plus any checked-in corpus files).
fuzz-regress:
	$(GO) test -run 'Fuzz' -count=1 ./internal/gf256/ ./internal/rlnc/ ./internal/netio/

# Chaos acceptance gate: a full fetch through the deterministic
# fault-injection link (corruption, stalls, repeated resets) must complete
# byte-identical under the race detector without losing decoder rank.
chaos:
	$(GO) test -race -run 'TestChaos' -count=1 -v ./internal/netio/

# Deep static analysis. Skips gracefully when the staticcheck binary is not
# installed (we never install dependencies from a build target); CI installs
# the pinned version explicitly and runs this same target.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@2025.1.1)"; \
	fi

# End-to-end serving gate: boot the session server against a loopback
# listener, fetch with concurrent clients, and check payloads and metrics
# accounting.
serve-smoke:
	$(GO) run ./cmd/ncserve smoke -clients 4

# Observability end-to-end gate: serve with the metrics endpoint on, fetch
# over loopback with a registry-attached client, scrape /metrics over HTTP,
# and validate the exposition with the in-repo parser — core series nonzero,
# stage histograms populated, /metrics.json and /debug/pprof/ routed.
metrics-smoke:
	$(GO) run ./cmd/ncserve metrics-smoke

# Systematic + XOR fast-path end-to-end gate: a systematic-mode server and a
# client fetch over loopback (clean, then through a lossy faultnet link), with
# the run rejected unless the rlnc.xor_absorb stage histogram recorded spans —
# the observable proof that the GF(2) XOR-only decode path actually engaged.
xor-smoke:
	$(GO) run ./cmd/ncserve xor-smoke

# Relay-mesh end-to-end gate, entirely under the race detector: origin →
# recoding relays → leaves over loopback TCP with faultnet chaos between the
# tiers, two of three relays killed mid-transfer, every leaf byte-identical
# with monotone per-segment rank, remediation counters nonzero in a scraped
# exposition, and the relay tier beating a capped origin on aggregate
# throughput. The whole package runs here (control-plane unit tests
# included), so ./internal/mesh/ needs no separate RACE_PKGS entry.
mesh-smoke:
	$(GO) test -race -count=1 -v -run 'TestMeshSmoke' ./internal/mesh/
	$(GO) test -race -count=1 -skip 'TestMeshSmoke|TestMeshRollingRestart' ./internal/mesh/

# Graceful-degradation drain gate, under the race detector: rolling relay
# restarts while leaves fetch through faultnet chaos. Each drained relay must
# REDIRECT its connected leaves to a survivor (rank carried over, redirects
# observed in leaf fetch stats), rejoin the rotation at a fresh address, and
# finish with zero failed leaves, byte-identical payloads, zero rank
# regressions, and exact offered == sent + shed ledgers for drained AND
# surviving relays in one scraped exposition.
drain-chaos:
	$(GO) test -race -count=1 -v -run 'TestMeshRollingRestart' ./internal/mesh/

# Randomized chaos soak, CI slice: a fixed-seed schedule of leaf waves,
# drain-restarts, kills, and slow-client brownout pressure against a
# chaos-wrapped mesh. ncsoak exits non-zero unless every transfer is
# byte-identical, rank never regresses, every relay ledger balances exactly,
# the brownout ladder engaged and stepped back down, and no goroutine
# outlives teardown.
soak-smoke:
	$(GO) run -race ./cmd/ncsoak -smoke -summary soak-summary.json

# Serving-capacity CI gate: one scaled-down 1k-session saturation wave under
# the race detector. ncload exits non-zero unless the ramp completes, every
# canary fetch is byte-identical, the windowed p99 record latency stays under
# its bound, and offered == sent + shed holds exactly in a scraped
# Prometheus exposition.
load-smoke:
	$(GO) run -race ./cmd/ncload -smoke -summary load-summary.json

# Distributed-tracing end-to-end gate, under the race detector: a traced
# chaos mesh run (origin → relays → leaves with faultnet corruption/resets
# and a brownout stall wave), then nctrace reassembles the flight-recorder
# dump into per-generation latency breakdowns. The run fails unless every
# span parents cleanly (zero orphans), the encode/absorb/recode stages all
# appear, at least one histogram exemplar links back to a recorded trace,
# the flight ring holds brownout + admission + reconnect events, the
# disabled-tracing path allocates nothing, and the encode-batch ratio stays
# within tolerance of the committed BENCH_host.json. On failure the raw
# flight dump lands in flight-trace.json for CI to upload.
trace-smoke:
	$(GO) run -race ./cmd/nctrace -smoke

# Flake hunt, kept out of `ci` because it is slow: the netio, mesh and
# command test suites twenty times over under the race detector, then the
# chaos soak five runs in a row. Any single failure fails the target. The
# timeout is per package: twenty race-built ncstream engine runs alone take
# over ten minutes on a 2-vCPU host.
stress:
	$(GO) test -race -count=20 -timeout 40m ./internal/netio/ ./internal/mesh/ ./cmd/...
	for i in 1 2 3 4 5; do $(MAKE) soak-smoke || exit 1; done

# Full serving-capacity ladder, committed as BENCH_serve.json: ramped waves
# to 5120 concurrent sessions measuring the per-record single-pump baseline
# against the amortized fan-out at 1/2/4 pump shards (plus one
# systematic-wire wave at peak), with aggregate MB/s and windowed p50/p99
# record latency per wave. Takes tens of minutes at full depth.
loadtest:
	$(GO) run ./cmd/ncload -sessions 5120 -steps 3 -shards 1,2,4 \
		-window 3s -settle 1s -canaries 4 \
		| $(GO) run ./cmd/benchjson > BENCH_serve.json
	@cat BENCH_serve.json

# Regenerate every paper table and figure as aligned text tables.
figures:
	$(GO) run ./cmd/ncbench -fig all

# Regenerate the figures as CSV (for plotting).
figures-csv:
	$(GO) run ./cmd/ncbench -fig all -format csv

# Full benchmark suite: one testing.B benchmark per paper table/figure plus
# the host-codec microbenchmarks.
bench:
	$(GO) test -bench=. -benchmem ./...

# Host-codec optimization-ladder benchmarks, captured as a committed JSON
# artifact: kernel rungs, batch-vs-single encode, and the decode ladder
# (progressive scalar / batched absorb / two-stage), all at n=128, k=4096.
# The kernel rungs are microsecond-scale, so they get a high iteration count
# for stable timings; the macro encode/decode benches are tens of
# milliseconds per op and keep a modest one.
bench-host:
	{ $(GO) test -run '^$$' -bench 'BenchmarkMulAddLadder|BenchmarkXorLadder' \
		-benchtime 3000x -count 1 ./internal/gf256/ ; \
	  $(GO) test -run '^$$' -bench 'BenchmarkEncodeBatch|BenchmarkDecodeLadder' \
		-benchtime 100x -count 1 ./internal/rlnc/ ; \
	  $(GO) test -run '^$$' -bench 'BenchmarkXorLadder' \
		-benchtime 200x -count 1 ./internal/rlnc/ ; } \
		| $(GO) run ./cmd/benchjson > BENCH_host.json
	@cat BENCH_host.json

# One-iteration pass over the ladder benchmarks, piped through benchjson: a
# cheap CI check that every rung still runs and parses. The parsed artifact
# is kept (untracked) so CI can upload it.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkMulAddLadder|BenchmarkXorLadder|BenchmarkEncodeBatch|BenchmarkDecodeLadder' \
		-benchtime 1x -count 1 ./internal/gf256/ ./internal/rlnc/ \
		| $(GO) run ./cmd/benchjson > BENCH_smoke.json
	@cat BENCH_smoke.json

# Re-run the ladder benchmarks at moderate iteration counts and gate the
# derived speedup ratios against the committed BENCH_host.json: every
# relative key (`_x` multiple, `_pct` percentage) must stay within tolerance
# of its committed value. Absolute MB/s numbers are machine-specific and are
# never gated; the 50% default tolerance absorbs runner-to-runner noise
# while still catching an optimization rung that actually regressed. The
# second stage re-runs a reduced serving ladder and gates its
# sharded-over-single multiple against BENCH_serve.json with a wider 70%
# tolerance: the committed ratio derives at the full ladder's 5120-session
# depth where the single per-record pump collapses (~5.9x), while the CI
# recheck stops at 2048 sessions where sharding's edge is structurally
# smaller (~2.2-2.4x) — the extra slack covers that depth mismatch, and a
# real fan-out regression (amortization broken, ratio near 1x) still lands
# well below the floor.
bench-check:
	{ $(GO) test -run '^$$' -bench 'BenchmarkMulAddLadder|BenchmarkXorLadder' \
		-benchtime 1000x -count 1 ./internal/gf256/ ; \
	  $(GO) test -run '^$$' -bench 'BenchmarkEncodeBatch|BenchmarkDecodeLadder' \
		-benchtime 30x -count 1 ./internal/rlnc/ ; \
	  $(GO) test -run '^$$' -bench 'BenchmarkXorLadder' \
		-benchtime 50x -count 1 ./internal/rlnc/ ; } \
		| $(GO) run ./cmd/benchjson -check BENCH_host.json
	$(GO) run ./cmd/ncload -sessions 2048 -steps 1 -shards 4 \
		-window 2s -settle 500ms -canaries 2 -systematic=false \
		| $(GO) run ./cmd/benchjson -check BENCH_serve.json -tolerance 0.7

# Everything the CI workflow runs, reproducible locally with one command.
ci: build fmt-check vet staticcheck test portable perfbench-check race fuzz-regress chaos bench-smoke serve-smoke metrics-smoke xor-smoke mesh-smoke load-smoke drain-chaos soak-smoke trace-smoke

# Run every example program.
examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/gpusim
	$(GO) run ./examples/streaming
	$(GO) run ./examples/p2p
	$(GO) run ./examples/multisegment
	$(GO) run ./examples/filetransfer

# The captured artifacts referenced by EXPERIMENTS.md.
test_output.txt:
	$(GO) test -count=1 ./... 2>&1 | tee $@

bench_output.txt:
	$(GO) test -bench=. -benchmem -count=1 ./... 2>&1 | tee $@

clean:
	rm -f test_output.txt bench_output.txt BENCH_smoke.json \
		soak-summary.json load-summary.json flight-trace.json flight-soak.json flight-mesh.json
