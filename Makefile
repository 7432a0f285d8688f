GO ?= go

.PHONY: build test race vet stress crash wal serve shard apicheck bench bench-short bench-smoke nouring ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Tier-2 concurrency check: every package runs under the race detector —
# the btree read path, the buffer pool, and the engine facade all have
# concurrent callers now.
race:
	$(GO) test -race ./...

# The concurrency stress suite alone, race-enabled and without cached
# results: engine-level mixed workloads, snapshot isolation under
# committing writers, per-tree reader storms, and the tracker-merge
# accounting invariance.
stress:
	$(GO) test -race -count=1 -run 'Concurrent|Parallel|Race|Stats|Snapshot|Stress|Writer' ./...

vet:
	$(GO) vet ./...

# Tier-2 durability check, race-enabled and uncached: the crash matrix
# (power-cut at every I/O op under both power models), torn/short-write
# header tears, the bytes each commit record writes, page/file/snapshot
# corruption sweeps, the fault-injection propagation tests across pager,
# bufferpool, and facade, and the checkpoint-window crash (writers
# between a shard's sync and the manifest commit, then a crash image that
# must reopen: TestWALCheckpointWindowCrash).
crash:
	$(GO) test -race -count=1 ./internal/faultfs/
	$(GO) test -race -count=1 -run 'Corrupt|Crash|Torn|Header|Recover|Orphan|Fault|Fail|Checkpoint|Durab|FlushMeta|FlushReleases' ./internal/pager/ ./internal/bufferpool/ ./internal/btree/ .

# Write-ahead-log check, race-enabled and uncached: the log's unit suite
# (framing, torn tails, group-commit coalescing, truncation slots), the
# facade recovery tests (crash images, replay idempotence, writers
# progressing through an in-flight incremental checkpoint, a crash inside
# the window between the shard syncs and the manifest commits), the WAL crash
# matrix (power-cut at every log/data/manifest op under both power
# models, torn writes), and the /metrics wal_* series.
wal:
	$(GO) test -race -count=1 ./internal/wal/
	$(GO) test -race -count=1 -run 'WAL' . ./internal/faultfs/ ./internal/server/

# Read-path micro-benchmarks (go test): node decode, point lookup, the four
# facade query shapes. The engine's end-to-end benchmark is `bash
# bench/run.sh` (BENCHMARK.json, bench/README.md).
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkQuery(Exact|Range|Subtree|Parscan)' -benchmem .
	$(GO) test -run '^$$' -bench 'DecodeNode|TreeGet' -benchmem ./internal/btree/

# bench in short mode: same code paths, single benchmark iterations.
bench-short:
	$(GO) test -run '^$$' -bench 'BenchmarkQuery(Exact|Range|Subtree|Parscan)' -benchtime 1x -benchmem .
	$(GO) test -run '^$$' -bench 'DecodeNode|TreeGet' -benchtime 1x -benchmem ./internal/btree/

# The benchmark harness is its own module (bench/go.mod), so the root
# `go test ./...` never reaches it: CI runs its tests here, which also keeps
# every public name it compiles against from drifting.
bench-smoke:
	cd bench && $(GO) test ./...

# The portable batched-read fallback: build and test the storage stack with
# io_uring compiled out (-tags nouring), so the bounded-goroutine preadv
# path stays honest on the platforms (and kernels) that need it.
nouring:
	$(GO) build -tags nouring ./...
	$(GO) test -tags nouring -count=1 ./internal/pager/ ./internal/bufferpool/ ./internal/btree/

# Network-subsystem check, race-enabled and uncached: the wire-protocol
# round trips, the server/client integration suite (concurrent sessions,
# snapshot isolation, admission control, graceful drain), the metrics
# registry, and the session/metrics satellites on the facade.
serve:
	$(GO) test -race -count=1 ./internal/server/ ./internal/obs/
	$(GO) test -race -count=1 -run 'Metrics|CloseReleasesSnapshots' .

# Sharding check, race-enabled and uncached: the shard-invariance suite
# (sharded results identical to flat under every layout), the batched write
# surface, the cross-shard writer stress, and the sharded crash matrix (two
# shard files + manifest, crashed at every op on every device).
shard:
	$(GO) test -race -count=1 -run 'Shard|ApplyBatch' . ./internal/core/ ./internal/pager/ ./internal/faultfs/

# API-surface check: vet plus a grep that keeps removed API from creeping
# back anywhere — the query wrappers (QueryWith/QueryString), deleted in favor
# of Query with options; DurabilitySync, deleted in favor of DurabilityWAL;
# the single-file index layout (openSingleFileGroup), deleted in favor of the
# manifest-rooted one; the stand-alone index surface (QueryParallel/QueryJob,
# Index.ApplyDiff/ExecuteFunc, querylang.Run), deleted in favor of the one
# core.Sharded group; the LRU pool policy and its knob (PoolPolicy/PolicyLRU),
# deleted in favor of CLOCK; and the read-path and commit knobs the
# measurements could not tell from their defaults: NoPrefetch, NodeCacheSize,
# AnchorStride, btree.Tuning and OpenTuned, and MaxBatch (the WAL's and the
# facade's WALMaxBatch). Tests build their cache-off and prefetch-off
# reference trees inside the btree package, with no option. Also the wire's
# single-op write opcodes (OpInsert/OpSet/OpDelete), deleted in favor of a
# batch of one, and the per-format value codecs (walAppendStoreHalf,
# snapshotWriter/snapshotReader), deleted in favor of internal/store/codec.go.
# And the read paths no query runs: the btree Cursor (NewCursor), deleted in
# favor of Scan, which is MultiScan over one interval; the pinned batch
# admission (PinBatch/UnpinBatch), deleted in favor of Prefetch; the second
# shape walk (OverflowPageCount), folded into Tree.Stats; and DurabilityNone,
# deleted in favor of the checkpoint and WAL modes.
apicheck: vet
	@deprecated=$$(grep -rnE --include='*.go' '\.(QueryWith|QueryString)\(|DurabilitySync|openSingleFileGroup|QueryParallel|QueryJob|ApplyDiff|ExecuteFunc\(|PoolPolicy|PolicyLRU|querylang\.Run|NoPrefetch|AnchorStride|OpenTuned|btree\.Tuning|NodeCacheSize|MaxBatch|\bOp(Insert|Set|Delete)\b|walAppendStoreHalf|snapshot(Writer|Reader)|NewCursor|PinBatch|UnpinBatch|OverflowPageCount|DurabilityNone' . || true); \
	if [ -n "$$deprecated" ]; then \
		echo "removed API referenced:"; \
		echo "$$deprecated"; \
		exit 1; \
	fi
	@echo "apicheck: ok"

ci: build apicheck test race stress crash wal serve shard nouring bench-short bench-smoke
