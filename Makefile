GO ?= go

.PHONY: build test race vet stress crash wal serve shard apicheck bench bench-short bench-smoke benchcmp nouring ci

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
# accounting invariance — and kept query results staying intact while
# concurrent Distinct, Forward and cancelled queries reuse the pooled
# per-query working memory (TestConcurrentQueriesKeepResults).
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
# must reopen: TestWALCheckpointWindowCrash), and the write call's
# all-or-nothing page-write step across shards — shard 2 refusing its page
# writes leaves no shard published and every page the call allocated free
# (TestShardPageWriteFailAllOrNothing; TestTxWriteFailureAborts for one tree).
# Also a crash after a checkpoint started its log segment but before it
# committed (TestWALOpenChainsInterruptedCheckpoint) and the snapshots and
# segments such crashes leave behind (TestWALCheckpointRemovesOrphans).
crash:
	$(GO) test -race -count=1 ./internal/faultfs/
	$(GO) test -race -count=1 -run 'Corrupt|Crash|Torn|Header|Recover|Orphan|Fault|Fail|Checkpoint|Durab|FlushMeta|FlushReleases' ./internal/pager/ ./internal/bufferpool/ ./internal/btree/ .

# Write-ahead-log check, race-enabled and uncached: the log's unit suite
# (framing, torn tails, group-commit coalescing, and segment rotation: records
# split at the seal, no record above it acknowledged before the old segment's
# tail is durable, a chain of segments reopening, an unchained later segment
# ignored while one that cannot be read fails the open, and a failed log
# creating no segment — TestLogRotateSplitsAtSeal,
# TestLogRotateAcksAfterOldTail, TestLogChainReopens,
# TestLogUnchainedSegmentIgnored, TestLogUnreadableSegmentFails,
# TestLogRotateFailedLogOpensNothing), the facade recovery
# tests (crash images, replay idempotence, writers
# progressing through an in-flight incremental checkpoint, a crash inside
# the window between the shard syncs and the manifest commits, shards and
# index manifests committed ahead of the store cut, a record holding only
# its operations, never index keys, a failed call that leaves the store, the
# indexes, the counters and the log as they were, in memory and under the
# log — TestWALFailedBatchLeavesNothing, TestWALFailedOpStaysOutOfLog, and
# with a concurrent writer on a class no index covers,
# TestWALUncoveredWritersFailAlone — and one published tree version per
# shard per call,
# TestWALCallPublishesOneVersionPerShard), the log's files staying within
# twice the checkpoint trigger and a previous build's wal.log retired by the
# next checkpoint (TestWALLogBounded, TestParentWALDirectoryRetiresLog), the
# record decoder's fuzz seeds, the WAL crash matrix (power-cut at every op of
# the data file, the manifest and every log segment under both power models,
# torn writes), and the /metrics wal_* series.
wal:
	$(GO) test -race -count=1 ./internal/wal/
	$(GO) test -race -count=1 -run 'WAL' . ./internal/faultfs/ ./internal/server/

# Read-path micro-benchmarks (go test): node decode, point lookup, the four
# facade query shapes. The engine's end-to-end benchmark is `bash
# bench/run.sh` (BENCHMARK.json, bench/README.md). The allocation counts they
# report are gated by `go test` itself: TestRangeScanAllocsScaleWithMatches
# and TestRangeScanAllocsFlatInSize (a warm 4-shard range query allocates the
# same over n and 4n objects).
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkQuery(Exact|Range|Subtree|Parscan)' -benchmem .
	$(GO) test -run '^$$' -bench 'DecodeNode|TreeGet' -benchmem ./internal/btree/

# bench in short mode: same code paths, single benchmark iterations.
bench-short:
	$(GO) test -run '^$$' -bench 'BenchmarkQuery(Exact|Range|Subtree|Parscan)' -benchtime 1x -benchmem .
	$(GO) test -run '^$$' -bench 'DecodeNode|TreeGet' -benchtime 1x -benchmem ./internal/btree/

# Compare two result files of the engine benchmark metric by metric:
# make benchcmp OLD=a.json NEW=b.json (files written by bench/run.sh -out).
benchcmp:
	bash bench/run.sh -compare $(OLD) $(NEW)

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
# deleted in favor of the checkpoint and WAL modes. And the log record's key
# edits (walGroupEdit, walAppendEdit, walKeys), deleted in favor of replay
# re-deriving them through the write path; and the Database's separate
# stats accessors (db.PoolStats, db.NodeCacheStats), deleted in favor of
# Metrics. And a batch result's applied count (BatchResult.Applied), deleted
# because a write call applies whole or not at all. And the log's in-place
# truncation (TruncateTo) and its slot-sync counter (TruncSyncs), deleted in
# favor of one segment per checkpoint generation, retired by deleting it.
apicheck: vet
	@deprecated=$$(grep -rnE --include='*.go' '\.(QueryWith|QueryString)\(|DurabilitySync|openSingleFileGroup|QueryParallel|QueryJob|ApplyDiff|ExecuteFunc\(|PoolPolicy|PolicyLRU|querylang\.Run|NoPrefetch|AnchorStride|OpenTuned|btree\.Tuning|NodeCacheSize|MaxBatch|\bOp(Insert|Set|Delete)\b|walAppendStoreHalf|snapshot(Writer|Reader)|NewCursor|PinBatch|UnpinBatch|OverflowPageCount|DurabilityNone|walGroupEdit|walAppendEdit|walKeys|db\.(PoolStats|NodeCacheStats)\(|\.Applied\b|TruncateTo|TruncSyncs' . || true); \
	if [ -n "$$deprecated" ]; then \
		echo "removed API referenced:"; \
		echo "$$deprecated"; \
		exit 1; \
	fi
	@echo "apicheck: ok"

ci: build apicheck test race stress crash wal serve shard nouring bench-short bench-smoke
