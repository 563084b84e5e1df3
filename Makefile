# Tier-1 verification and perf-smoke targets; CI runs `make ci bench-smoke`.

GO ?= go

.PHONY: all vet build test race perfbench ci bench-smoke sweep-smoke chaos-smoke obs-smoke watch-smoke lake-smoke integrity-smoke bench clean

all: ci

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race re-runs the concurrency-heavy packages — the shard queue, sweep
# pool, wire client, journal tailer, metrics registry and the
# coordinator itself — under the race detector. This list also covers
# every package the integrity & quarantine subsystem touches (shard
# checksums/audits, capi typed errors, chaos corrupt faults, runstore
# replay verification, campaignd wiring).
race:
	$(GO) test -race -count=1 ./internal/shard ./internal/sweep ./internal/capi ./internal/runstore ./internal/chaos ./internal/obs ./internal/lake ./cmd/campaignd

# perfbench is a nested module (the repo benchmark), so ./... skips it;
# vet and test it on its own since it imports sweep and ssresf.
perfbench:
	cd perfbench && $(GO) vet . && $(GO) test .

ci: vet build test race perfbench

# bench-smoke runs the warm-start comparisons once — both engines plus
# the compare_vcd detector variant — and leaves BENCH_warmstart.json
# behind with golden/injection wall-clock, cell-evaluation, pruning and
# delta-restore metrics, so the perf trajectory is tracked per commit (CI
# archives the file). benchgate then fails the target when any entry's
# evals_reduction_x regresses >20% below the baseline committed at HEAD
# (not the working-tree file, which the benchmark itself overwrites — so
# re-running never self-rebaselines), or when an entry stops warm-starting.
bench-smoke:
	@git show HEAD:BENCH_warmstart.json > BENCH_warmstart.baseline.json 2>/dev/null || rm -f BENCH_warmstart.baseline.json
	$(GO) test -run '^$$' -bench '^BenchmarkWarmVsCold(LevelSim|VCD)?$$' -benchtime 1x .
	@cat BENCH_warmstart.json
	@if [ -s BENCH_warmstart.baseline.json ]; then \
		$(GO) run ./cmd/benchgate -baseline BENCH_warmstart.baseline.json -new BENCH_warmstart.json -max-regress 0.20; \
		gate=$$?; \
		rm -f BENCH_warmstart.baseline.json; \
		exit $$gate; \
	else \
		rm -f BENCH_warmstart.baseline.json; \
		echo "benchgate: no committed baseline, skipping regression gate"; \
	fi

# sweep-smoke runs a tiny two-campaign sweep (SoC1 at two LETs) through
# the campaignd coordinator with a live worker and asserts the rendered
# sweep output is byte-identical to the per-campaign cold inject.RunSoC
# oracle — once self-submitted via the -sweep flags, and once through
# the resource API: an empty coordinator, the grid submitted over POST
# /v1/sweeps by the typed capi client, results fetched and diffed
# against the local `socfault -sweep` execution path.
sweep-smoke:
	$(GO) test ./cmd/campaignd -run '^(TestSweepSmokeByteIdentical|TestAPISubmitSmoke)$$' -count=1 -v

# chaos-smoke is the robustness gate: a leader crash-stopped mid-grid
# with a warm standby taking over from the journal (byte-identical
# output, zero re-simulation, stale-epoch completions fenced), a sweep
# drained through fault-injecting HTTP transports (drops, resets, 503s,
# duplicated POSTs, delays — every class asserted to have actually fired
# via the chaos_injected_total scrape), and a straggler shard re-issued
# speculatively — all under the race detector. Together the three runs
# leave the fenced, speculated and client-retry series provably nonzero.
chaos-smoke:
	$(GO) test ./cmd/campaignd -race -run '^(TestCoordinatorFailover|TestSweepUnderChaos|TestSpeculationObserved)$$' -count=1 -v

# obs-smoke is the observability gate: a quick sweep drained end to end
# with metrics, tracing and the pprof debug server enabled; /metrics is
# scraped mid-flight and at drain through the strict exposition parser
# (lifecycle series present and monotone), the exported trace must
# validate as Chrome trace_event JSON, and the rendered sweep output
# must be byte-identical to the uninstrumented reference.
obs-smoke:
	$(GO) test ./cmd/campaignd -race -run '^(TestObsSmoke)$$' -count=1 -v

# watch-smoke is the federation/live-watch gate: a sweep followed over
# the SSE stream (with a forced mid-stream reconnect) must match the
# polled path and the uninstrumented reference byte for byte, and a
# pushing worker must surface on GET /metrics/fleet with per-sweep cost
# attribution.
watch-smoke:
	$(GO) test ./cmd/campaignd -race -run '^(TestWatchMatchesPoll|TestFleetFederation)$$' -count=1 -v

# lake-smoke is the artifact-lake gate: two workers share one golden
# build through the coordinator's lake (exactly one "golden" span
# fleet-wide, worker lake hits nonzero), a resubmitted sweep on the same
# lake completes with zero re-simulated shards and no workers at all,
# and a lake chaos-failed mid-sweep still drains to output byte-identical
# to the per-campaign cold inject.RunSoC oracle — all under the race
# detector.
lake-smoke:
	$(GO) test ./cmd/campaignd -race -run '^(TestLakeGoldenSharedOnce|TestLakeCrossSweepReuse|TestLakeChaosMidSweep)$$' -count=1 -v

# integrity-smoke is the end-to-end result-integrity gate: a sweep
# drained with a wire that corrupts most completion payloads (every one
# refused with integrity_mismatch, merged grid still byte-identical to
# the clean reference), a faulty worker computing wrong-but-checksummed
# results caught by audit re-execution and quarantined
# (fleet_workers{state="quarantined"} nonzero), a poison shard that
# crashes every executor landing in quarantined state instead of
# hanging its sweep, and a journal record damaged at rest skipped on
# replay and re-simulated — all under the race detector.
integrity-smoke:
	$(GO) test ./cmd/campaignd -race -run '^(TestIntegritySmoke|TestPoisonShardQuarantine|TestJournalCorruptRecordReplay)$$' -count=1 -v

# bench runs the full table/figure harness (minutes).
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x .

clean:
	rm -f BENCH_warmstart.json BENCH_warmstart.baseline.json
