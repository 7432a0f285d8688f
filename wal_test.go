package uindex

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/pager"
	"repro/internal/store"
	"repro/internal/wal"
)

// walOpts is the WAL test baseline: background checkpointing disabled so
// every test controls exactly when the log folds into the checkpoints.
func walOpts(dir string) Options {
	return Options{Dir: dir, PoolPages: 16, Durability: DurabilityWAL, WALCheckpointBytes: -1}
}

// readDir returns the bytes of every file of a directory, by name.
func readDir(t *testing.T, dir string) map[string]string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string]string, len(ents))
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = string(raw)
	}
	return files
}

// copyDirTo snapshots every file of a live database directory — the state a
// crash at this instant would leave on disk (the log and manifests are
// written with WriteAt+Sync, so the on-disk bytes are the durable state).
func copyDirTo(t *testing.T, src, dst string) {
	t.Helper()
	for name, raw := range readDir(t, src) {
		if err := os.WriteFile(filepath.Join(dst, name), []byte(raw), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// liveSegment names the one log segment of a database directory.
func liveSegment(t *testing.T, dir string) string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal.*.log"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("log segments in %s: %v, %v; want one", dir, segs, err)
	}
	return filepath.Base(segs[0])
}

// crashImage copies the live directory into a fresh TempDir.
func crashImage(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	copyDirTo(t, src, dst)
	return dst
}

// dumpIndexKeys collects every key of every shard of one index, in shard
// order — the byte-level content two recoveries must agree on.
func dumpIndexKeys(t *testing.T, db *Database, name string) []string {
	t.Helper()
	g, ok := db.groups[name]
	if !ok {
		t.Fatalf("no index %q", name)
	}
	var keys []string
	for i := 0; i < g.sharded.NumShards(); i++ {
		err := g.sharded.Shard(i).Tree().Scan(context.Background(), nil, nil, nil,
			func(key, val []byte) ([]byte, bool, error) {
				keys = append(keys, fmt.Sprintf("%d/%x", i, key))
				return nil, false, nil
			})
		if err != nil {
			t.Fatalf("scanning %q shard %d: %v", name, i, err)
		}
	}
	return keys
}

func countRed(t *testing.T, db *Database) int {
	t.Helper()
	ms, _, err := db.Query(context.Background(), "color", redQuery())
	if err != nil {
		t.Fatal(err)
	}
	return len(ms)
}

// TestWALRoundTrip: a WAL database survives a clean Close/Open cycle; the
// final checkpoint on Close means Open replays nothing.
func TestWALRoundTrip(t *testing.T) {
	dir := t.TempDir()
	db, err := NewDatabaseWith(vehicleSchema(t), walOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateIndex(colorSpec); err != nil {
		t.Fatal(err)
	}
	oids := insertVehicles(t, db, testColors)
	if err := db.Set(oids[1], "Color", "Red"); err != nil { // White -> Red
		t.Fatal(err)
	}
	if err := db.Delete(oids[0]); err != nil { // drop a Red
		t.Fatal(err)
	}
	m := db.Metrics()
	if !m.WALEnabled || m.WALAppends != uint64(len(testColors))+2 {
		t.Fatalf("WALEnabled=%v WALAppends=%d, want true/%d", m.WALEnabled, m.WALAppends, len(testColors)+2)
	}
	wantRed := countRed(t, db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(dir, Options{PoolPages: 16, WALCheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if got := countRed(t, db2); got != wantRed {
		t.Fatalf("recovered red count = %d, want %d", got, wantRed)
	}
	m2 := db2.Metrics()
	if m2.WALRecoveryReplayed != 0 {
		t.Fatalf("clean close still replayed %d records", m2.WALRecoveryReplayed)
	}
	if o, ok := db2.Get(oids[1]); !ok || o.Attrs()["Color"] != "Red" {
		t.Fatalf("Get(%d) = %v, %v; want Color=Red", oids[1], o, ok)
	}
	if _, ok := db2.Get(oids[0]); ok {
		t.Fatalf("deleted object %d resurrected", oids[0])
	}
}

// TestWALCrashRecovery: mutations acknowledged by the commit path are fully
// recovered from a crash image — no Close, no Checkpoint, just the log.
func TestWALCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	db, err := NewDatabaseWith(vehicleSchema(t), walOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.CreateIndex(colorSpec); err != nil {
		t.Fatal(err)
	}
	oids := insertVehicles(t, db, testColors)
	if err := db.Set(oids[3], "Color", "Red"); err != nil { // Blue -> Red
		t.Fatal(err)
	}
	if err := db.Delete(oids[5]); err != nil { // drop a Red
		t.Fatal(err)
	}
	// A batch rides the same log.
	b := new(Batch)
	b.Insert("Automobile", Attrs{"Color": "Red"}).Set(oids[4], "Color", "Red")
	if _, err := db.Apply(context.Background(), b); err != nil {
		t.Fatal(err)
	}
	wantRed := countRed(t, db)
	wantKeys := dumpIndexKeys(t, db, "color")

	img := crashImage(t, dir)
	rec, err := Open(img, Options{PoolPages: 16, WALCheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if got := countRed(t, rec); got != wantRed {
		t.Fatalf("recovered red count = %d, want %d", got, wantRed)
	}
	gotKeys := dumpIndexKeys(t, rec, "color")
	if fmt.Sprint(gotKeys) != fmt.Sprint(wantKeys) {
		t.Fatalf("recovered index keys differ:\n got %v\nwant %v", gotKeys, wantKeys)
	}
	m := rec.Metrics()
	if m.WALRecoveryReplayed == 0 {
		t.Fatal("crash image recovered without replaying any log records")
	}
	for _, oid := range oids[:5] {
		want, wok := db.Get(oid)
		got, gok := rec.Get(oid)
		if wok != gok {
			t.Fatalf("Get(%d) presence: live %v, recovered %v", oid, wok, gok)
		}
		if wok && want.Attrs()["Color"] != got.Attrs()["Color"] {
			t.Fatalf("Get(%d) Color: live %v, recovered %v", oid, want.Attrs()["Color"], got.Attrs()["Color"])
		}
	}
}

// TestWALCheckpointThenCrash: mutations after an incremental checkpoint are
// recovered by replaying only the suffix beyond the checkpoint LSN.
func TestWALCheckpointThenCrash(t *testing.T) {
	dir := t.TempDir()
	db, err := NewDatabaseWith(vehicleSchema(t), walOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.CreateIndex(colorSpec); err != nil {
		t.Fatal(err)
	}
	insertVehicles(t, db, testColors)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	insertVehicles(t, db, []string{"Red", "Green"})
	wantRed := countRed(t, db)

	img := crashImage(t, dir)
	rec, err := Open(img, Options{PoolPages: 16, WALCheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if got := countRed(t, rec); got != wantRed {
		t.Fatalf("recovered red count = %d, want %d", got, wantRed)
	}
	if m := rec.Metrics(); m.WALRecoveryReplayed != 2 {
		t.Fatalf("replayed %d records, want exactly the 2 post-checkpoint inserts", m.WALRecoveryReplayed)
	}
}

// TestWALRecoveryIdempotent: replaying the same log suffix a second time
// over an already-recovered database leaves the indexes byte-identical and
// the store unchanged — the property that lets recovery crash and rerun.
func TestWALRecoveryIdempotent(t *testing.T) {
	dir := t.TempDir()
	db, err := NewDatabaseWith(vehicleSchema(t), walOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.CreateIndex(colorSpec); err != nil {
		t.Fatal(err)
	}
	oids := insertVehicles(t, db, testColors)
	if err := db.Set(oids[1], "Color", "Blue"); err != nil {
		t.Fatal(err)
	}
	if err := db.Delete(oids[2]); err != nil {
		t.Fatal(err)
	}

	img := crashImage(t, dir)
	rec, err := Open(img, Options{PoolPages: 16, WALCheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	once := dumpIndexKeys(t, rec, "color")
	onceRed := countRed(t, rec)

	// Replay the identical suffix again, straight through the recovery path.
	cut := rec.wal.manifest.WALLSN()
	var again uint64
	err = rec.wal.log.Replay(cut, func(lsn uint64, payload []byte) error {
		again++
		return rec.walReplayRecord(payload)
	})
	if err != nil {
		t.Fatalf("second replay: %v", err)
	}
	if again != rec.Metrics().WALRecoveryReplayed {
		t.Fatalf("second replay saw %d records, first saw %d", again, rec.Metrics().WALRecoveryReplayed)
	}
	twice := dumpIndexKeys(t, rec, "color")
	if fmt.Sprint(once) != fmt.Sprint(twice) {
		t.Fatalf("double replay changed the index:\n once %v\ntwice %v", once, twice)
	}
	if got := countRed(t, rec); got != onceRed {
		t.Fatalf("double replay changed red count: %d -> %d", onceRed, got)
	}
	for _, oid := range oids {
		if _, ok := rec.Get(oid); ok != (oid != oids[2]) {
			t.Fatalf("Get(%d) after double replay = %v", oid, ok)
		}
	}
}

// TestWALRecoveryErrors: every way a recovery can fail — damaged manifest,
// damaged log preamble, damaged store snapshot, damaged index checkpoint —
// surfaces as ErrRecovery, with pager corruption still reachable through
// errors.Is/As.
func TestWALRecoveryErrors(t *testing.T) {
	dir := t.TempDir()
	db, err := NewDatabaseWith(vehicleSchema(t), walOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateIndex(colorSpec); err != nil {
		t.Fatal(err)
	}
	insertVehicles(t, db, testColors)
	if err := db.Checkpoint(); err != nil { // give the index file content
		t.Fatal(err)
	}
	insertVehicles(t, db, []string{"Red"}) // leave a log tail too
	img := t.TempDir()
	copyDirTo(t, dir, img)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	corrupt := func(t *testing.T, name string, mangle func([]byte) []byte) string {
		t.Helper()
		d := t.TempDir()
		copyDirTo(t, img, d)
		p := filepath.Join(d, name)
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, mangle(raw), 0o644); err != nil {
			t.Fatal(err)
		}
		return d
	}
	// A failed Open is read-only: whatever it rebuilt or replayed in memory
	// before giving up, every file of the image keeps its bytes.
	wantRecovery := func(t *testing.T, d string) error {
		t.Helper()
		before := readDir(t, d)
		rec, err := Open(d, Options{PoolPages: 16, WALCheckpointBytes: -1})
		if err == nil {
			rec.Close()
			t.Fatal("Open succeeded on corrupt directory")
		}
		if !errors.Is(err, ErrRecovery) {
			t.Fatalf("Open = %v, want ErrRecovery in the chain", err)
		}
		after := readDir(t, d)
		for name, raw := range before {
			if got, ok := after[name]; !ok || got != raw {
				t.Errorf("failed Open changed %s", name)
			}
		}
		if len(after) != len(before) {
			t.Errorf("failed Open left %d files where it found %d", len(after), len(before))
		}
		return err
	}

	t.Run("manifest", func(t *testing.T) {
		wantRecovery(t, corrupt(t, "db.manifest", func(raw []byte) []byte { return raw[:16] }))
	})
	t.Run("log", func(t *testing.T) {
		wantRecovery(t, corrupt(t, liveSegment(t, img), func(raw []byte) []byte {
			raw[0] ^= 0xFF // break the magic
			return raw
		}))
	})
	t.Run("snapshot", func(t *testing.T) {
		snaps, err := filepath.Glob(filepath.Join(img, "store.*.snap"))
		if err != nil || len(snaps) != 1 {
			t.Fatalf("store snapshots in image: %v, %v", snaps, err)
		}
		wantRecovery(t, corrupt(t, filepath.Base(snaps[0]), func(raw []byte) []byte {
			return raw[:len(raw)/2]
		}))
	})
	t.Run("index", func(t *testing.T) {
		// Flip a payload byte in every page slot after the header: whatever
		// page the reopen touches fails its checksum. The pager-level cause
		// must survive the ErrRecovery wrapping.
		err := wantRecovery(t, corrupt(t, "color.shard0.uidx", func(raw []byte) []byte {
			const slotSize = 1024 + 12
			for off := slotSize + 50; off < len(raw); off += slotSize {
				raw[off] ^= 0xFF
			}
			return raw
		}))
		var cp ErrCorruptPage
		if !errors.Is(err, ErrCorruptFile) && !errors.As(err, &cp) {
			t.Fatalf("index corruption lost its pager cause: %v", err)
		}
	})
	t.Run("replay", func(t *testing.T) {
		// A record the decoder refuses, behind the image's good one: replay
		// applies the insert in memory, then fails — and publishes nothing.
		d := t.TempDir()
		copyDirTo(t, img, d)
		log, err := wal.Open(filepath.Join(d, liveSegment(t, d)), wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := log.WaitDurable(log.Append([]byte{1, 7, 0})); err != nil {
			t.Fatal(err)
		}
		if err := log.Close(); err != nil {
			t.Fatal(err)
		}
		wantRecovery(t, d)
	})
	t.Run("missing log", func(t *testing.T) {
		d := t.TempDir()
		copyDirTo(t, img, d)
		if err := os.Remove(filepath.Join(d, liveSegment(t, d))); err != nil {
			t.Fatal(err)
		}
		wantRecovery(t, d)
	})
}

// TestWALShardSyncAheadOfLog: the checkpointer syncs shard files before the
// log fsync that covers what they hold, and only then commits the manifests.
// A crash in between leaves a shard file one generation ahead of everything
// else in the directory. Recovery must open it at the generation the index
// manifest published — a shard file opened at its newest generation would
// hold an entry whose object neither the store snapshot nor the log has.
func TestWALShardSyncAheadOfLog(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			dir := t.TempDir()
			opts := walOpts(dir)
			opts.Shards = shards
			db, err := NewDatabaseWith(vehicleSchema(t), opts)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			if err := db.CreateIndex(colorSpec); err != nil {
				t.Fatal(err)
			}
			insertVehicles(t, db, testColors)
			wantRed := countRed(t, db)

			// The image: log, manifests and store snapshot from before the
			// next commit, shard files from after its per-shard checkpoint.
			img := crashImage(t, dir)
			insertVehicles(t, db, []string{"Red"})
			g := db.groups["color"]
			for i := range g.files {
				g.sharded.LockShards(1 << i)
				err := g.checkpointShard(i)
				g.sharded.UnlockShards(1 << i)
				if err != nil {
					t.Fatal(err)
				}
			}
			copied := 0
			for name, raw := range readDir(t, dir) {
				if !strings.HasSuffix(name, ".uidx") {
					continue
				}
				if err := os.WriteFile(filepath.Join(img, name), []byte(raw), 0o644); err != nil {
					t.Fatal(err)
				}
				copied++
			}
			if copied != len(g.files) {
				t.Fatalf("copied %d index page files, want %d", copied, len(g.files))
			}

			rec, err := Open(img, Options{PoolPages: 16, WALCheckpointBytes: -1})
			if err != nil {
				t.Fatal(err)
			}
			defer rec.Close()
			ms, _, err := rec.Query(context.Background(), "color", redQuery())
			if err != nil {
				t.Fatal(err)
			}
			if len(ms) != wantRed {
				t.Errorf("recovered %d red vehicles, want the %d from before the lost commit", len(ms), wantRed)
			}
			for _, m := range ms {
				if _, ok := rec.Get(m.Path[0].OID); !ok {
					t.Errorf("index returns object %d, which the store does not have", m.Path[0].OID)
				}
			}
		})
	}
}

// TestWALBootstrapRules: DurabilityWAL requires a directory, and a directory
// already holding a WAL database must go through Open, not NewDatabaseWith.
func TestWALBootstrapRules(t *testing.T) {
	if _, err := NewDatabaseWith(vehicleSchema(t), Options{Durability: DurabilityWAL}); err == nil {
		t.Fatal("DurabilityWAL without Dir accepted")
	}
	dir := t.TempDir()
	db, err := NewDatabaseWith(vehicleSchema(t), walOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := NewDatabaseWith(vehicleSchema(t), walOpts(dir)); err == nil ||
		!strings.Contains(err.Error(), "Open") {
		t.Fatalf("re-bootstrap over an existing WAL database = %v, want refusal pointing at Open", err)
	}
}

// TestWALCloseLeakFree: the group-commit daemon and background checkpointer
// shut down on Close without leaking goroutines, for both the bootstrap and
// the recovery path — including when the background checkpointer is enabled.
func TestWALCloseLeakFree(t *testing.T) {
	base := runtime.NumGoroutine()
	dir := t.TempDir()
	opts := Options{Dir: dir, PoolPages: 16, Durability: DurabilityWAL, WALCheckpointBytes: 1} // checkpointer hot
	db, err := NewDatabaseWith(vehicleSchema(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateIndex(colorSpec); err != nil {
		t.Fatal(err)
	}
	insertVehicles(t, db, testColors)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	insertVehicles(t, db2, testColors)
	if err := db2.Close(); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(3 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 64<<10)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutine leak after Close: %d running, started with %d\n%s",
				runtime.NumGoroutine(), base, buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestWALGroupCommitCoalesces: concurrent committers share fsyncs — the
// whole point of group commit. fsyncs/commit must come out below 1.
func TestWALGroupCommitCoalesces(t *testing.T) {
	dir := t.TempDir()
	opts := walOpts(dir)
	opts.WALMaxDelay = 500 * time.Microsecond
	db, err := NewDatabaseWith(vehicleSchema(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.CreateIndex(colorSpec); err != nil {
		t.Fatal(err)
	}
	const writers, per = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := db.Insert("Automobile", Attrs{"Color": "Red"}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	m := db.Metrics()
	if m.WALAppends != writers*per {
		t.Fatalf("WALAppends = %d, want %d", m.WALAppends, writers*per)
	}
	if m.WALFsyncs >= m.WALAppends {
		t.Fatalf("fsyncs/commit = %d/%d >= 1: group commit not amortizing", m.WALFsyncs, m.WALAppends)
	}
	t.Logf("appends=%d fsyncs=%d batches=%d", m.WALAppends, m.WALFsyncs, m.WALBatches)
}

// TestWALWritersProgressDuringCheckpoint: the incremental checkpoint holds
// only one shard lock at a time plus a brief store cut, so writers commit
// while a checkpoint is in flight. Run under -race this is also the data-race
// proof for the whole WAL commit/checkpoint interplay.
func TestWALWritersProgressDuringCheckpoint(t *testing.T) {
	dir := t.TempDir()
	opts := walOpts(dir)
	opts.Shards = 4
	db, err := NewDatabaseWith(vehicleSchema(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateIndex(colorSpec); err != nil {
		t.Fatal(err)
	}
	// Preload so every store snapshot inside a checkpoint takes real time.
	preload := make([]string, 800)
	for i := range preload {
		preload[i] = "White"
	}
	insertVehicles(t, db, preload)

	var (
		ckptActive atomic.Bool
		overlap    atomic.Int64 // inserts completed while a checkpoint ran
		stop       atomic.Bool
		inserted   atomic.Int64
	)
	const writers = 4
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if _, err := db.Insert("Automobile", Attrs{"Color": "Red"}); err != nil {
					t.Error(err)
					return
				}
				inserted.Add(1)
				if ckptActive.Load() {
					overlap.Add(1)
				}
			}
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	ckpts := 0
	for overlap.Load() == 0 || ckpts < 3 {
		if time.Now().After(deadline) {
			stop.Store(true)
			wg.Wait()
			t.Fatalf("no insert completed during %d checkpoints (inserted %d total)", ckpts, inserted.Load())
		}
		ckptActive.Store(true)
		err := db.Checkpoint()
		ckptActive.Store(false)
		if err != nil {
			stop.Store(true)
			wg.Wait()
			t.Fatalf("checkpoint %d: %v", ckpts, err)
		}
		ckpts++
	}
	stop.Store(true)
	wg.Wait()
	t.Logf("checkpoints=%d inserts=%d overlapping=%d", ckpts, inserted.Load(), overlap.Load())

	indexLen := func(db *Database) int {
		stats, ok := db.ShardStats("color")
		if !ok {
			t.Fatal("no color index")
		}
		n := 0
		for _, s := range stats {
			n += s.Entries
		}
		return n
	}
	total := int(inserted.Load()) + 800
	if got := indexLen(db); got != total {
		t.Fatalf("live index has %d entries, want %d", got, total)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := Open(dir, Options{PoolPages: 16, WALCheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if got := indexLen(rec); got != total {
		t.Fatalf("recovered index has %d entries, want %d", got, total)
	}
}

// TestWALDropCreateIndexRecovers: catalog changes checkpoint immediately, so
// a crash right after DropIndex/CreateIndex recovers the new catalog, and
// log records for a dropped index never damage recovery.
func TestWALDropCreateIndexRecovers(t *testing.T) {
	dir := t.TempDir()
	db, err := NewDatabaseWith(vehicleSchema(t), walOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.CreateIndex(colorSpec); err != nil {
		t.Fatal(err)
	}
	insertVehicles(t, db, testColors)
	if err := db.DropIndex("color"); err != nil {
		t.Fatal(err)
	}
	insertVehicles(t, db, []string{"Red"}) // logged with no covering index

	img := crashImage(t, dir)
	rec, err := Open(img, Options{PoolPages: 16, WALCheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if got := rec.Indexes(); len(got) != 0 {
		t.Fatalf("dropped index survived recovery: %v", got)
	}
	// Re-attach re-reads the orphaned checkpoint file, then Build is not
	// run — entries must equal the pre-drop checkpointed state.
	if err := rec.CreateIndex(colorSpec); err != nil {
		t.Fatal(err)
	}
	if got := countRed(t, rec); got != 3 {
		t.Fatalf("re-attached index sees %d red, want the 3 from before the drop", got)
	}
}

// pathSchema is the oracle test's three-class path: Vehicle -> Company ->
// Employee, so a President switch ripples through mid-path entries.
func pathSchema(t testing.TB) *Schema {
	t.Helper()
	s := NewSchema()
	for _, err := range []error{
		s.AddClass("Employee", "", Attr{Name: "Age", Type: Uint64}),
		s.AddClass("Company", "", Attr{Name: "President", Ref: "Employee"}),
		s.AddClass("Vehicle", "", Attr{Name: "Color", Type: String}, Attr{Name: "ManufacturedBy", Ref: "Company"}),
		s.AddClass("Automobile", "Vehicle"),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	return s
}

var ageSpec = IndexSpec{Name: "age", Root: "Vehicle", Refs: []string{"ManufacturedBy", "President"}, Attr: "Age"}

// dumpState renders everything recovery must reproduce: every object with
// its attributes, the next OID, and every key of every index shard.
func dumpState(t *testing.T, db *Database) string {
	t.Helper()
	var b strings.Builder
	objs, next := db.Store().Snapshot()
	fmt.Fprintf(&b, "next=%d\n", next)
	for _, o := range objs {
		fmt.Fprintf(&b, "%d %s %v\n", o.OID, o.Class, o.Attrs)
	}
	for _, name := range db.Indexes() {
		fmt.Fprintf(&b, "%s %v\n", name, dumpIndexKeys(t, db, name))
	}
	return b.String()
}

// TestWALUintValue: a Go uint is accepted for a uint64 attribute, so both
// codecs must carry it — it is stored as uint64, logged, checkpointed, and
// recovered. A value no codec carries is rejected in the plan phase, before
// the store, the trees, or the log have moved.
func TestWALUintValue(t *testing.T) {
	dir := t.TempDir()
	db, err := NewDatabaseWith(pathSchema(t), walOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	ages := IndexSpec{Name: "ages", Root: "Employee", Attr: "Age"}
	if err := db.CreateIndex(ages); err != nil {
		t.Fatal(err)
	}
	oid, err := db.Insert("Employee", Attrs{"Age": uint(41)})
	if err != nil {
		t.Fatalf("Insert with a uint value: %v", err)
	}
	if err := db.Set(oid, "Age", uint(42)); err != nil {
		t.Fatalf("Set with a uint value: %v", err)
	}

	ix, _ := db.Index("ages")
	lenBefore, lsnBefore := ix.Len(), db.wal.log.LastAppended()
	if _, err := db.Insert("Employee", Attrs{"Age": int32(7)}); err == nil {
		t.Fatal("Insert with an int32 value succeeded")
	}
	if err := db.Set(oid, "Age", int32(7)); err == nil {
		t.Fatal("Set with an int32 value succeeded")
	}
	if _, ok := db.Get(oid + 1); ok {
		t.Fatal("rejected insert left an object in the store")
	}
	if o, _ := db.Get(oid); o.Attrs()["Age"] != uint64(42) {
		t.Fatalf("rejected set changed Age to %#v", o.Attrs()["Age"])
	}
	if ix.Len() != lenBefore || db.wal.log.LastAppended() != lsnBefore {
		t.Fatalf("rejected writes moved the index (%d -> %d entries) or the log (LSN %d -> %d)",
			lenBefore, ix.Len(), lsnBefore, db.wal.log.LastAppended())
	}

	if err := db.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint after a uint insert: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("Close after a uint insert: %v", err)
	}
	rec, err := Open(dir, Options{PoolPages: 16, WALCheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if o, ok := rec.Get(oid); !ok || o.Attrs()["Age"] != uint64(42) {
		t.Fatalf("recovered Get(%d) = %v, %v; want Age=uint64(42)", oid, o, ok)
	}
	ms, _, err := rec.Query(context.Background(), "ages", Query{Value: Exact(uint64(42))})
	if err != nil || len(ms) != 1 || ms[0].Path[0].OID != oid {
		t.Fatalf("recovered index entry for Age=42: %v, %v; want object %d", ms, err, oid)
	}
}

// TestWALBatchCrashAtomic: a batch is one CRC-framed log record, so a crash
// that tears the record anywhere recovers the state from before the batch and
// a crash after it the state with every operation applied — never a prefix.
func TestWALBatchCrashAtomic(t *testing.T) {
	dir := t.TempDir()
	db, err := NewDatabaseWith(pathSchema(t), walOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for _, spec := range []IndexSpec{colorSpec, ageSpec} {
		if err := db.CreateIndex(spec); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	var setup Batch
	setup.Insert("Employee", Attrs{"Age": 31}).Insert("Employee", Attrs{"Age": 52}) // 1, 2
	setup.Insert("Company", Attrs{"President": OID(1)})                             // 3
	for _, c := range []string{"Red", "White", "Blue"} {                            // 4, 5, 6
		setup.Insert("Automobile", Attrs{"Color": c, "ManufacturedBy": OID(3)})
	}
	if _, err := db.Apply(ctx, &setup); err != nil {
		t.Fatal(err)
	}
	pre := dumpState(t, db)
	preLog, err := os.ReadFile(filepath.Join(dir, liveSegment(t, dir)))
	if err != nil {
		t.Fatal(err)
	}

	// 16 operations: inserts, sets — one of them the mid-path President
	// switch, which rewrites every vehicle's age entry — and a delete. Most
	// inserts are employees, which carry no index entries: the record stays
	// small, and every byte of it is a cut below.
	var b Batch
	for age := 40; age < 47; age++ {
		b.Insert("Employee", Attrs{"Age": age})
	}
	b.Insert("Vehicle", Attrs{"Color": "Green", "ManufacturedBy": OID(3)})
	b.Insert("Vehicle", Attrs{"Color": "Green", "ManufacturedBy": OID(3)})
	b.Set(2, "Age", 53).Set(4, "Color", "Blue").Set(6, "Color", "Red")
	b.Set(3, "President", OID(2))
	b.Set(1, "Age", 33)
	b.Delete(5)
	b.Insert("Company", Attrs{"President": OID(2)})
	if b.Len() != 16 {
		t.Fatalf("batch has %d operations, want 16", b.Len())
	}
	appends := db.Metrics().WALAppends
	if res, err := db.Apply(ctx, &b); err != nil {
		t.Fatalf("Apply = %+v, %v", res, err)
	}
	if got := db.Metrics().WALAppends - appends; got != 1 {
		t.Fatalf("a 16-operation batch appended %d log records, want 1", got)
	}
	post := dumpState(t, db)
	if post == pre {
		t.Fatal("batch changed nothing")
	}
	img := crashImage(t, dir)
	postLog, err := os.ReadFile(filepath.Join(img, liveSegment(t, img)))
	if err != nil {
		t.Fatal(err)
	}
	if len(postLog) <= len(preLog) || string(postLog[:len(preLog)]) != string(preLog) {
		t.Fatalf("log did not grow by appending: %d -> %d bytes", len(preLog), len(postLog))
	}

	// Every length from "record absent" to "one byte short" must recover the
	// pre-batch state; the full record the post-batch state.
	for n := len(preLog); n <= len(postLog); n++ {
		d := t.TempDir()
		copyDirTo(t, img, d)
		if err := os.WriteFile(filepath.Join(d, liveSegment(t, d)), postLog[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		rec, err := Open(d, Options{PoolPages: 16, WALCheckpointBytes: -1})
		if err != nil {
			t.Fatalf("log cut at %d of %d bytes: %v", n, len(postLog), err)
		}
		got := dumpState(t, rec)
		rec.Close()
		want := pre
		if n == len(postLog) {
			want = post
		}
		if got != want {
			t.Fatalf("log cut at %d (batch record spans %d..%d): recovered a state that is neither before nor after the batch:\n%s",
				n, len(preLog), len(postLog), got)
		}
	}
}

// encodeLoggedOps is the inverse of decodeWALRecord, assembled from the same
// pieces the write pipeline uses.
func encodeLoggedOps(ops []BatchOp) ([]byte, error) {
	var bodies []byte
	ends, oids := make([]int, len(ops)), make([]OID, len(ops))
	for i := range ops {
		var err error
		if bodies, err = store.AppendOpBody(bodies, &ops[i]); err != nil {
			return nil, err
		}
		ends[i], oids[i] = len(bodies), ops[i].OID
	}
	return walRecord(ops, oids, bodies, ends), nil
}

// FuzzWALRecord: the record decoder takes arbitrary bytes without panicking
// or decoding more list elements than the payload has bytes (every count is
// checked against the bytes left before anything is sized from it), and
// whatever it accepts survives an encode -> decode round trip.
func FuzzWALRecord(f *testing.F) {
	seed, err := encodeLoggedOps([]BatchOp{
		{Kind: BatchInsert, OID: 7, Class: "Automobile", Attrs: Attrs{
			"Color": "Red", "Age": uint64(3), "N": 4, "I": int64(-5), "F": 1.5, "Ref": OID(2), "Refs": []OID{1, 2}}},
		{Kind: BatchSet, OID: 7, Attr: "Color", Value: "Blue"},
		{Kind: BatchSet, OID: 7, Attr: "Refs", Value: []OID{3, 4, 5}},
		{Kind: BatchDelete, OID: 7},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte{5, byte(BatchDelete), 0, 0, 0, 1, 0})                                   // a record kind of an earlier format
	f.Add([]byte{walRecCommit, byte(BatchInsert), 0, 0, 0, 1, 1, 'A', 0xff, 0xff, 0x7f}) // absurd attribute count
	f.Fuzz(func(t *testing.T, data []byte) {
		ops, err := decodeWALRecord(data)
		if err != nil {
			return
		}
		elems := len(ops)
		for _, op := range ops {
			elems += len(op.Attrs)
			if oids, ok := op.Value.([]OID); ok {
				elems += len(oids)
			}
		}
		if elems > len(data) {
			t.Fatalf("decoded %d list elements from %d bytes", elems, len(data))
		}
		enc, err := encodeLoggedOps(ops)
		if err != nil {
			t.Fatalf("re-encoding decoded operations: %v", err)
		}
		again, err := decodeWALRecord(enc)
		if err != nil {
			t.Fatalf("decoding re-encoded record: %v", err)
		}
		// NaN != NaN: compare the printed forms, which render values alike
		// on both sides.
		if fmt.Sprintf("%#v", again) != fmt.Sprintf("%#v", ops) {
			t.Fatalf("round trip changed the record:\n got %#v\nwant %#v", again, ops)
		}
	})
}

// TestWALCheckpointWindowCrash: the background checkpointer syncs each shard
// file under that shard's writer lock alone and commits the manifests later,
// so writers run in between. Their copy-on-write allocations must not reuse a
// page the manifest-published generation still references: a crash in that
// window rolls the shard back onto those pages, and recovery must replay the
// log over them intact.
func TestWALCheckpointWindowCrash(t *testing.T) {
	colors := []string{"Red", "White", "Blue", "Green", "Black"}
	for _, pool := range []int{0, 16} {
		t.Run(fmt.Sprintf("pool%d", pool), func(t *testing.T) {
			dir := t.TempDir()
			opts := walOpts(dir)
			opts.PoolPages = pool
			db, err := NewDatabaseWith(vehicleSchema(t), opts)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			if err := db.CreateIndex(colorSpec); err != nil {
				t.Fatal(err)
			}
			initial := make([]string, 400)
			for i := range initial {
				initial[i] = colors[i%len(colors)]
			}
			oids := insertVehicles(t, db, initial)
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			set := func(oids []OID) {
				t.Helper()
				for i, oid := range oids {
					if err := db.Set(oid, "Color", colors[(i+2)%len(colors)]); err != nil {
						t.Fatal(err)
					}
				}
			}
			set(oids[:200])
			// The checkpointer's first phase: every shard synced under its
			// own lock, no manifest committed yet.
			g := db.groups["color"]
			for i := range g.files {
				g.sharded.LockShards(1 << i)
				err := g.checkpointShard(i)
				g.sharded.UnlockShards(1 << i)
				if err != nil {
					t.Fatal(err)
				}
			}
			set(oids[200:])
			img := crashImage(t, dir)
			want := dumpIndexKeys(t, db, "color")

			rec, err := Open(img, Options{PoolPages: pool, WALCheckpointBytes: -1})
			if err != nil {
				t.Fatalf("Open after a crash inside the checkpoint window: %v", err)
			}
			defer rec.Close()
			got := dumpIndexKeys(t, rec, "color")
			if strings.Join(got, ",") != strings.Join(want, ",") {
				t.Errorf("recovered index has %d keys, live index %d; contents differ", len(got), len(want))
			}
		})
	}
}

// companyFleetDB builds the path schema's Figure-1 shape under the WAL (in
// memory when dir is empty), with the color and age indexes over 4 shards:
// two employees (OIDs 1, 2), then one company per fleet size, each presided
// over by employee 1 and manufacturing that many vehicles. It returns the
// companies' OIDs.
func companyFleetDB(t *testing.T, dir string, fleets ...int) (*Database, []OID) {
	t.Helper()
	opts := Options{}
	if dir != "" {
		opts = walOpts(dir)
	}
	opts.Shards = 4
	db, err := NewDatabaseWith(pathSchema(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []IndexSpec{colorSpec, ageSpec} {
		if err := db.CreateIndex(spec); err != nil {
			t.Fatal(err)
		}
	}
	colors := []string{"Red", "White", "Blue", "Green"}
	var setup Batch
	setup.Insert("Employee", Attrs{"Age": 31}).Insert("Employee", Attrs{"Age": 52})
	var companies []OID
	next := OID(3)
	for _, n := range fleets {
		setup.Insert("Company", Attrs{"President": OID(1)})
		companies = append(companies, next)
		for i := 0; i < n; i++ {
			setup.Insert("Automobile", Attrs{"Color": colors[i%len(colors)], "ManufacturedBy": next})
		}
		next += OID(n) + 1
	}
	if _, err := db.Apply(context.Background(), &setup); err != nil {
		t.Fatal(err)
	}
	return db, companies
}

// TestWALRecordHoldsNoKeys: a log record is the write call's operations and
// nothing else. A President switch rewrites the age entry of every vehicle
// the company makes, yet its record must not grow with the fleet.
func TestWALRecordHoldsNoKeys(t *testing.T) {
	db, companies := companyFleetDB(t, t.TempDir(), 1, 40)
	defer db.Close()
	grow := func(company OID) int64 {
		t.Helper()
		before := db.wal.log.LiveBytes()
		if err := db.Set(company, "President", OID(2)); err != nil {
			t.Fatal(err)
		}
		return db.wal.log.LiveBytes() - before
	}
	small, large := grow(companies[0]), grow(companies[1])
	if small != large {
		t.Fatalf("Set President logged %d bytes for a 1-vehicle company, %d for a 40-vehicle one", small, large)
	}
}

// TestWALShardsAheadOfStoreCut: a checkpoint cuts the store first and flushes
// the shards after, so a crash between the index manifest commits and the db
// manifest commit leaves every shard holding writes the store snapshot does
// not. Replay re-derives the key edits of those writes from the older store
// and must land every index, and the store, exactly where the live database
// is.
func TestWALShardsAheadOfStoreCut(t *testing.T) {
	dir := t.TempDir()
	db, companies := companyFleetDB(t, dir, 40, 40)
	defer db.Close()
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	colors := []string{"Black", "Red", "Blue", "White"}
	recolor := func(company OID, shift int) {
		t.Helper()
		var b Batch
		for i := 0; i < 16; i++ {
			b.Set(company+1+OID(i), "Color", colors[(i+shift)%len(colors)])
		}
		if _, err := db.Apply(context.Background(), &b); err != nil {
			t.Fatal(err)
		}
	}

	// The window: writes the shards will hold but the db manifest not.
	if err := db.Set(companies[0], "President", OID(2)); err != nil {
		t.Fatal(err)
	}
	recolor(companies[0], 0)
	if _, err := db.Insert("Vehicle", Attrs{"Color": "Red", "ManufacturedBy": companies[1]}); err != nil {
		t.Fatal(err)
	}
	for _, name := range db.order {
		g := db.groups[name]
		for i := range g.files {
			g.sharded.LockShards(1 << i)
			err := g.checkpointShard(i)
			g.sharded.UnlockShards(1 << i)
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := g.commitManifest(); err != nil {
			t.Fatal(err)
		}
	}

	// After the window: writes only the log holds.
	if err := db.Set(companies[0], "President", OID(1)); err != nil {
		t.Fatal(err)
	}
	if err := db.Set(companies[1], "President", OID(2)); err != nil {
		t.Fatal(err)
	}
	recolor(companies[1], 1)
	if err := db.Delete(companies[0] + 1); err != nil {
		t.Fatal(err)
	}

	img := crashImage(t, dir)
	want := dumpState(t, db)
	rec, err := Open(img, Options{PoolPages: 16, WALCheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	for _, name := range []string{"color", "age"} {
		if got, live := dumpIndexKeys(t, rec, name), dumpIndexKeys(t, db, name); strings.Join(got, ",") != strings.Join(live, ",") {
			t.Errorf("recovered index %q has %d keys, live %d; contents differ", name, len(got), len(live))
		}
	}
	if got := dumpState(t, rec); got != want {
		t.Errorf("recovered state differs from the live one:\n got %s\nwant %s", got, want)
	}
}

// TestWALFailedOpStaysOutOfLog: an op whose index maintenance fails after
// its store edit (here a key longer than a page allows) fails the call and
// is not logged. Replay would re-derive the same failing edit, so logging it
// would leave a directory no Open can recover.
func TestWALFailedOpStaysOutOfLog(t *testing.T) {
	dir := t.TempDir()
	db, err := NewDatabaseWith(vehicleSchema(t), walOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.CreateIndex(colorSpec); err != nil {
		t.Fatal(err)
	}
	insertVehicles(t, db, testColors)
	if _, err := db.Insert("Vehicle", Attrs{"Color": strings.Repeat("x", 4000)}); err == nil {
		t.Fatal("Insert with a 4000-byte key succeeded")
	}
	insertVehicles(t, db, []string{"Red"})
	if got, want := db.Store().Len(), len(testColors)+1; got != want {
		t.Errorf("live store holds %d objects, want the %d successful inserts", got, want)
	}

	rec, err := Open(crashImage(t, dir), Options{PoolPages: 16, WALCheckpointBytes: -1})
	if err != nil {
		t.Fatalf("Open after a failed write: %v", err)
	}
	defer rec.Close()
	if got, want := rec.Store().Len(), len(testColors)+1; got != want {
		t.Errorf("recovered %d objects, want the %d successful inserts", got, want)
	}
	if got, live := dumpIndexKeys(t, rec, "color"), dumpIndexKeys(t, db, "color"); strings.Join(got, ",") != strings.Join(live, ",") {
		t.Errorf("recovered index has %d keys, live %d; contents differ", len(got), len(live))
	}
}

// TestWALUncoveredWritersFailAlone: objects of a class no index covers take
// no shard locks. Two writers edit one such object while every call of one
// of them fails at its last op; the failed calls must leave no trace — not
// their Set, not their insert's OID — and the log must recover exactly the
// live state.
func TestWALUncoveredWritersFailAlone(t *testing.T) {
	s := NewSchema()
	if err := s.AddClass("Note", "", Attr{Name: "A", Type: Uint64}, Attr{Name: "B", Type: Uint64}, Attr{Name: "Next", Ref: "Note"}); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	db, err := NewDatabaseWith(s, walOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	x, err := db.Insert("Note", Attrs{"A": uint64(0), "B": uint64(0)})
	if err != nil {
		t.Fatal(err)
	}
	const n = 300
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 1; i <= n; i++ {
			var b Batch
			b.Set(x, "A", uint64(i)).Insert("Note", Attrs{"A": uint64(i), "Next": x}).Set(x, "Next", OID(1<<30))
			if _, err := db.Apply(context.Background(), &b); err == nil || !strings.Contains(err.Error(), "batch op 2 ") {
				t.Errorf("Apply = %v, want an error naming op 2", err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 1; i <= n; i++ {
			if err := db.Set(x, "B", uint64(i)); err != nil {
				t.Error(err)
				return
			}
			if _, err := db.Insert("Note", Attrs{"Next": x}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	o, _ := db.Store().Get(x)
	if a, _ := o.Attr("A"); a != uint64(0) {
		t.Errorf("x.A = %v after only failed calls set it, want 0", a)
	}
	if got, want := db.Store().Len(), n+1; got != want {
		t.Errorf("live store holds %d objects, want %d", got, want)
	}
	rec, err := Open(crashImage(t, dir), Options{PoolPages: 16, WALCheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if got, want := dumpState(t, rec), dumpState(t, db); got != want {
		t.Fatalf("recovered state differs from the live one:\n got %s\nwant %s", got, want)
	}
}

// shardEpochs returns every shard's published tree epoch, per index.
func shardEpochs(db *Database) map[string][]uint64 {
	out := make(map[string][]uint64)
	for _, name := range db.Indexes() {
		sh := db.groups[name].sharded
		for i := 0; i < sh.NumShards(); i++ {
			out[name] = append(out[name], sh.Shard(i).Tree().Epoch())
		}
	}
	return out
}

// shardKeys returns every shard's keys, per index and shard.
func shardKeys(t *testing.T, db *Database) map[string][]string {
	t.Helper()
	out := make(map[string][]string)
	for _, name := range db.Indexes() {
		for _, k := range dumpIndexKeys(t, db, name) {
			shard, _, _ := strings.Cut(k, "/")
			out[name+"/"+shard] = append(out[name+"/"+shard], k)
		}
	}
	return out
}

// TestWALCallPublishesOneVersionPerShard: a write call is one transaction
// per shard it locks, so it publishes at most one tree version per shard —
// exactly one on a shard whose keys it changed, none on any other — however
// many keys it edits. A President switch rewrites the age key of each of the
// company's 40 vehicles, which per-key commits would publish as 80 versions.
func TestWALCallPublishesOneVersionPerShard(t *testing.T) {
	db, companies := companyFleetDB(t, t.TempDir(), 40)
	defer db.Close()
	check := func(what string, write func() error) {
		t.Helper()
		epochs, keys := shardEpochs(db), shardKeys(t, db)
		if err := write(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		after, afterKeys := shardEpochs(db), shardKeys(t, db)
		changed := 0
		for name, es := range after {
			for i, e := range es {
				key := fmt.Sprintf("%s/%d", name, i)
				want := uint64(0)
				if strings.Join(keys[key], ",") != strings.Join(afterKeys[key], ",") {
					want = 1
					changed++
				}
				if got := e - epochs[name][i]; got != want {
					t.Errorf("%s: index %q shard %d published %d versions, want %d", what, name, i, got, want)
				}
			}
		}
		if changed == 0 {
			t.Fatalf("%s changed no shard", what)
		}
	}
	check("Set President", func() error { return db.Set(companies[0], "President", OID(2)) })
	var b Batch
	for i := 0; i < 16; i++ {
		b.Set(companies[0]+1+OID(i), "Color", []string{"Black", "Teal"}[i%2])
	}
	check("16-op colour Apply", func() error { _, err := db.Apply(context.Background(), &b); return err })
}

// TestWALFailedBatchLeavesNothing: a batch whose op k fails (a 4000-byte
// colour, longer than a key may be) fails naming op k and leaves the store,
// every index, the write counters and the log exactly as before the call —
// whether the failing op is the first, in the middle, or the last, after a
// President switch, sets, a delete and inserts already executed — in memory
// and under the WAL, where a crash image then recovers the live state.
func TestWALFailedBatchLeavesNothing(t *testing.T) {
	long := strings.Repeat("x", 4000)
	for _, mode := range []string{"memory", "wal"} {
		for _, k := range []int{0, 7, 15} {
			t.Run(fmt.Sprintf("%s/op%d", mode, k), func(t *testing.T) {
				dir := ""
				if mode == "wal" {
					dir = t.TempDir()
				}
				db, companies := companyFleetDB(t, dir, 40)
				defer db.Close()
				co := companies[0]
				var b Batch
				for i := 0; i < 16; i++ {
					switch {
					case i == k && k == 7:
						b.Set(co+1+OID(i), "Color", long)
					case i == k:
						b.Insert("Automobile", Attrs{"Color": long, "ManufacturedBy": co})
					case i == 3:
						b.Set(co, "President", OID(2))
					case i == 5:
						b.Delete(co + 40)
					case i%2 == 0:
						b.Insert("Automobile", Attrs{"Color": "Olive", "ManufacturedBy": co})
					default:
						b.Set(co+1+OID(i), "Color", "Teal")
					}
				}
				state := func() string {
					objs, next := db.Store().Snapshot()
					m := db.Metrics()
					s := fmt.Sprintf("next=%d objs=%v\ninserts=%d sets=%d deletes=%d\n", next, objs, m.Inserts, m.Sets, m.Deletes)
					for _, name := range db.Indexes() {
						s += fmt.Sprintf("%s %v\n", name, dumpIndexKeys(t, db, name))
					}
					if db.wal != nil {
						s += fmt.Sprintf("live log bytes %d\n", db.wal.log.LiveBytes())
					}
					return s
				}
				before := state()
				_, err := db.Apply(context.Background(), &b)
				if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("batch op %d ", k)) {
					t.Fatalf("Apply = %v, want an error naming op %d", err, k)
				}
				if after := state(); after != before {
					t.Fatalf("failed batch changed the database:\nbefore %s\nafter  %s", before, after)
				}
				// The database stays writable, and under the WAL its log
				// recovers exactly the live state.
				if _, err := db.Insert("Automobile", Attrs{"Color": "Red", "ManufacturedBy": co}); err != nil {
					t.Fatal(err)
				}
				if dir == "" {
					return
				}
				rec, err := Open(crashImage(t, dir), Options{PoolPages: 16, WALCheckpointBytes: -1})
				if err != nil {
					t.Fatal(err)
				}
				defer rec.Close()
				if got, want := dumpState(t, rec), dumpState(t, db); got != want {
					t.Fatalf("recovered state differs from the live one:\n got %s\nwant %s", got, want)
				}
			})
		}
	}
}

// segmentBytes sums the sizes of a directory's log files: its segments, and
// the single log file of an earlier build.
func segmentBytes(t *testing.T, dir string) (total int64, largest int64) {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal*.log"))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range segs {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		total += st.Size()
		largest = max(largest, st.Size())
	}
	return total, largest
}

// TestWALLogBounded: a log segment holds only the records since its
// checkpoint's cut, and a checkpoint deletes the segments before it, so under
// steady writes the log's files stay within twice the checkpoint trigger,
// and a cleanly closed directory keeps one empty segment and no wal.log.
func TestWALLogBounded(t *testing.T) {
	const trigger = 32 << 10
	dir := t.TempDir()
	opts := walOpts(dir)
	opts.WALCheckpointBytes = trigger
	db, err := NewDatabaseWith(vehicleSchema(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateIndex(colorSpec); err != nil {
		t.Fatal(err)
	}
	color := strings.Repeat("c", 200)
	for round := 0; round < 40; round++ {
		for written := 0; written <= trigger; written += 16 * len(color) {
			var b Batch
			for i := 0; i < 16; i++ {
				b.Insert("Automobile", Attrs{"Color": color})
			}
			if _, err := db.Apply(context.Background(), &b); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if total, _ := segmentBytes(t, dir); total > 2*trigger+wal.HeaderLen {
			t.Fatalf("round %d: log segments total %d bytes, want at most %d", round, total, 2*trigger+wal.HeaderLen)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "wal.log")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("wal.log after Close: %v, want none", err)
	}
	if _, largest := segmentBytes(t, dir); largest > wal.HeaderLen {
		t.Fatalf("a segment holds %d bytes after Close, want at most a %d-byte header", largest, wal.HeaderLen)
	}
}

// TestWALCheckpointRemovesOrphans: a crash between a manifest commit and the
// removal of the files it retired leaves an older generation's snapshot or
// segment behind. The next checkpoint removes every file of a generation
// below its own, not only its predecessor's.
func TestWALCheckpointRemovesOrphans(t *testing.T) {
	dir := t.TempDir()
	db, err := NewDatabaseWith(vehicleSchema(t), walOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.CreateIndex(colorSpec); err != nil { // generation 2
		t.Fatal(err)
	}
	insertVehicles(t, db, testColors)
	if err := db.Checkpoint(); err != nil { // generation 3
		t.Fatal(err)
	}
	orphans := []string{"store.1.snap", "wal.1.log"}
	for _, name := range orphans {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("orphan"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for _, name := range orphans {
		if _, err := os.Stat(filepath.Join(dir, name)); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%s after a checkpoint past its generation: %v, want removed", name, err)
		}
	}
}

// TestWALOpenChainsInterruptedCheckpoint: a crash after a checkpoint started
// its log segment but before it committed leaves the records in two
// segments. Open replays both and resumes in the later one; it removes the
// files of a generation past it (a torn segment header, a partial snapshot),
// and the next checkpoint takes the generation after the live segment's. A
// later segment Open cannot read fails it instead.
func TestWALOpenChainsInterruptedCheckpoint(t *testing.T) {
	dir := t.TempDir()
	db, err := NewDatabaseWith(vehicleSchema(t), walOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.CreateIndex(colorSpec); err != nil {
		t.Fatal(err)
	}
	insertVehicles(t, db, testColors)
	// The checkpoint's first steps: the cut, then the next segment, which
	// takes every later write.
	w := db.wal
	w.ckptMu.Lock()
	w.commitMu.Lock()
	w.log.Seal()
	w.commitMu.Unlock()
	gen := w.gen + 1
	err = w.log.Rotate(func() (pager.BlockFile, error) { return pager.OpenBlock(filepath.Join(dir, walSegName(gen)), true) })
	if err == nil {
		w.gen = gen
	}
	w.ckptMu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	insertVehicles(t, db, []string{"Red", "Blue"})
	want := dumpState(t, db)

	// A later segment that cannot be opened is not the end of the chain: it
	// may hold acknowledged records, so Open fails and removes nothing.
	unreadable := crashImage(t, dir)
	if err := os.Mkdir(filepath.Join(unreadable, walSegName(gen+1)), 0o755); err != nil {
		t.Fatal(err)
	}
	before := readDir(t, unreadable)
	if rec, err := Open(unreadable, Options{WALCheckpointBytes: -1}); !errors.Is(err, ErrRecovery) {
		if err == nil {
			rec.Close()
		}
		t.Fatalf("Open with an unreadable later segment = %v, want ErrRecovery", err)
	}
	if _, err := os.Stat(filepath.Join(unreadable, walSegName(gen+1))); err != nil {
		t.Fatalf("unreadable segment after a failed Open: %v", err)
	}
	if after := readDir(t, unreadable); fmt.Sprint(after) != fmt.Sprint(before) {
		t.Fatal("a failed Open changed the directory")
	}

	img := crashImage(t, dir)
	leftovers := map[string]string{walSegName(gen + 1): "UWA", storeSnapName(gen + 1): "partial"}
	for name, raw := range leftovers {
		if err := os.WriteFile(filepath.Join(img, name), []byte(raw), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	rec, err := Open(img, Options{PoolPages: 16, WALCheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if got := dumpState(t, rec); got != want {
		t.Fatalf("recovered\n%s\nwant\n%s", got, want)
	}
	if got, want := rec.Metrics().WALRecoveryReplayed, uint64(len(testColors)+2); got != want {
		t.Fatalf("replayed %d records over two segments, want %d", got, want)
	}
	for name := range leftovers {
		if _, err := os.Stat(filepath.Join(img, name)); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%s after Open: %v, want removed", name, err)
		}
	}
	if err := rec.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	var files []string
	for _, pattern := range []string{"store.*.snap", "wal.*.log"} {
		names, err := filepath.Glob(filepath.Join(img, pattern))
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			files = append(files, filepath.Base(name))
		}
	}
	if want := []string{storeSnapName(gen + 1), walSegName(gen + 1)}; fmt.Sprint(files) != fmt.Sprint(want) {
		t.Fatalf("generation files after the next checkpoint = %v, want %v", files, want)
	}
}
