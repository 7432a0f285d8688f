package faultfs

// The WAL crash matrix: a write-ahead log, a shadow-paged data file, and the
// manifest that carries the checkpoint LSN, crashed at every media operation
// on each device — the data file, the manifest, and every log segment, each
// checkpoint rotating the log to a fresh one — under both power models and
// with torn variants of the crashing write. The invariant is the recovery
// contract of the uindex WAL protocol: the recovered state — the data file
// pinned at the manifest's generation plus the log records replayed above the
// manifest's checkpoint LSN — is EXACTLY the committed record prefix 1..D,
// where D is the last record whose group-commit fsync completed before the
// crash (one in-flight record may additionally survive a crash on the log
// device under the keep-unsynced power model).

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"repro/internal/pager"
	"repro/internal/wal"
)

const (
	walCrashPageSize  = 256
	walCrashRecords   = 9
	walCrashCkptEvery = 3
	// walCrashSegments is the log segments a run writes: the first, and one
	// per checkpoint.
	walCrashSegments = 1 + walCrashRecords/walCrashCkptEvery
)

// newWALCrashMedias returns the devices of one run: the data file, the
// manifest, then one per log segment.
func newWALCrashMedias() []*Media {
	ms := make([]*Media, 2+walCrashSegments)
	for i := range ms {
		ms[i] = NewMedia()
	}
	return ms
}

// walRecPayload is the stamped content of record lsn.
func walRecPayload(lsn uint64) []byte {
	return []byte(fmt.Sprintf("wal-record-%04d", lsn))
}

// walTreePage is the data-file page a checkpoint at cut publishes.
func walTreePage(cut uint64) []byte {
	page := make([]byte, walCrashPageSize)
	copy(page, fmt.Sprintf("tree-at-cut-%04d", cut))
	return page
}

// walCommit marks one record's commit point: WaitDurable returned, so the
// record is on durable media. end holds each media's op count at that
// moment.
type walCommit struct {
	lsn uint64
	end []int
}

// runWALCrashWorkload drives the facade's WAL protocol in lock step: append
// one record and wait for its group-commit fsync; every walCrashCkptEvery
// records seal the log at the cut and rotate it to the next segment's media,
// let one more record land in that segment, then publish the data page and
// commit the manifest with the cut — in the order wal.go documents (seal,
// rotate, checkpoint the file, THEN the manifest). It returns every record
// commit that completed; err is non-nil when an injected crash interrupted
// the run.
func runWALCrashWorkload(ms []*Media) ([]walCommit, error) {
	mT, mM, segs := ms[0], ms[1], ms[2:]
	record := func(lsn uint64) walCommit {
		c := walCommit{lsn: lsn, end: make([]int, len(ms))}
		for i, m := range ms {
			c.end[i] = m.Ops()
		}
		return c
	}
	log, err := wal.CreateOn(segs[0], wal.Options{})
	if err != nil {
		return nil, err
	}
	// Abandon, not Close: after a crash the backing media must stay exactly
	// as the last completed operation left it. Close on the clean path runs
	// first and makes this a no-op.
	defer log.Abandon()
	df, err := pager.CreateDiskFileOn(mT, walCrashPageSize)
	if err != nil {
		return nil, err
	}
	man, err := pager.CreateManifestOn(mM, nil, []uint64{df.Generation()})
	if err != nil {
		return nil, err
	}
	commits := []walCommit{record(0)}

	var cur pager.PageID
	have := false
	publish := func(cut uint64) error {
		id, err := df.Alloc()
		if err != nil {
			return err
		}
		if err := df.Write(id, walTreePage(cut)); err != nil {
			return err
		}
		if have {
			if err := df.Free(cur); err != nil {
				return err
			}
		}
		var pl [12]byte
		binary.BigEndian.PutUint64(pl[0:], cut)
		binary.BigEndian.PutUint32(pl[8:], uint32(id))
		if err := df.Checkpoint(pl[:]); err != nil {
			return err
		}
		cur, have = id, true
		return man.CommitWAL([]uint64{df.Generation()}, cut)
	}
	var cut uint64
	pending := false
	for r := uint64(1); r <= walCrashRecords; r++ {
		lsn := log.Append(walRecPayload(r))
		if lsn != r {
			return commits, fmt.Errorf("append %d assigned lsn %d", r, lsn)
		}
		if err := log.WaitDurable(lsn); err != nil {
			return commits, err
		}
		commits = append(commits, record(lsn))
		if pending {
			if err := publish(cut); err != nil {
				return commits, err
			}
			pending = false
		}
		if r%walCrashCkptEvery != 0 {
			continue
		}
		cut = log.Seal()
		next := segs[r/walCrashCkptEvery]
		if err := log.Rotate(func() (pager.BlockFile, error) { return next, nil }); err != nil {
			return commits, err
		}
		pending = true
	}
	if pending {
		if err := publish(cut); err != nil {
			return commits, err
		}
	}
	if err := df.CloseDiscard(); err != nil {
		return commits, err
	}
	if err := man.Close(); err != nil {
		return commits, err
	}
	if err := log.Close(); err != nil {
		return commits, err
	}
	return commits, nil
}

// walValidCuts is the set of checkpoint LSNs any recovered manifest may
// carry: 0 (creation) and each checkpoint's cut.
func walValidCuts() map[uint64]bool {
	cuts := map[uint64]bool{0: true}
	for r := uint64(walCrashCkptEvery); r <= walCrashRecords; r += walCrashCkptEvery {
		cuts[r] = true
	}
	return cuts
}

// verifyWALRecovery recovers the crashed medias exactly as uindex.Open does
// — manifest first, data file pinned at the manifest's generation, then log
// replay above the manifest's cut — and checks the recovered prefix.
func verifyWALRecovery(t *testing.T, ms []*Media, commits []walCommit, crashMedia, crashOp int, desc string) {
	t.Helper()
	// Record j certainly committed iff WaitDurable returned before the
	// crashed media reached the crashing op.
	lastDone := -1
	for i, c := range commits {
		if c.end[crashMedia] <= crashOp {
			lastDone = i
		}
	}
	var base uint64
	if lastDone >= 0 {
		base = commits[lastDone].lsn
	}
	allowedMax := map[uint64]bool{base: true}
	if crashMedia >= 2 && lastDone+1 < len(commits) {
		// A crash on the log device may leave the next record's buffered
		// write on media under the keep-unsynced power model.
		allowedMax[commits[lastDone+1].lsn] = true
	}

	man, err := pager.OpenManifestOn(ms[1])
	if err != nil {
		if lastDone < 0 && errors.Is(err, pager.ErrCorruptFile) {
			return // crash predates the first durable manifest state
		}
		t.Fatalf("%s: manifest recovery failed: %v", desc, err)
	}
	defer man.Close()
	cut := man.WALLSN()
	if !walValidCuts()[cut] {
		t.Fatalf("%s: recovered checkpoint LSN %d was never committed", desc, cut)
	}
	gens := man.Gens()

	df, err := pager.OpenDiskFileOnAt(ms[0], gens[0])
	if err != nil {
		if lastDone < 0 && errors.Is(err, pager.ErrCorruptFile) {
			return // crash predates the data file's first durable state
		}
		t.Fatalf("%s: data file pinned at gen %d failed: %v", desc, gens[0], err)
	}
	switch pl := df.Payload(); len(pl) {
	case 0:
		if cut != 0 {
			t.Fatalf("%s: manifest cut %d but data file has no checkpoint payload", desc, cut)
		}
	case 12:
		// The generation the manifest recorded must carry that manifest's
		// cut — the checkpoint-LSN handshake.
		if treeCut := binary.BigEndian.Uint64(pl[0:]); treeCut != cut {
			t.Fatalf("%s: data file checkpointed at cut %d, manifest says %d", desc, binary.BigEndian.Uint64(pl[0:]), cut)
		}
		id := pager.PageID(binary.BigEndian.Uint32(pl[8:]))
		page := make([]byte, walCrashPageSize)
		if err := df.Read(id, page); err != nil {
			t.Fatalf("%s: reading checkpoint page %d: %v", desc, id, err)
		}
		if want := walTreePage(cut); !bytes.Equal(page, want) {
			t.Fatalf("%s: checkpoint page = %q, want %q", desc, page[:20], want[:20])
		}
	default:
		t.Fatalf("%s: data file payload has unexpected length %d", desc, len(pl))
	}
	if err := df.CloseDiscard(); err != nil {
		t.Fatalf("%s: data file close: %v", desc, err)
	}

	// The segment the checkpoint at cut started, then every later one that
	// chains.
	var later []pager.BlockFile
	first := 2 + cut/walCrashCkptEvery
	for _, m := range ms[first+1:] {
		later = append(later, m)
	}
	lg, _, err := wal.OpenOn(ms[first], wal.Options{}, later...)
	if err != nil {
		if lastDone < 0 && errors.Is(err, wal.ErrCorruptLog) {
			return // crash predates the log preamble's first durable state
		}
		t.Fatalf("%s: log recovery failed: %v", desc, err)
	}
	defer lg.Abandon()
	next, last := cut+1, cut
	rerr := lg.Replay(cut, func(lsn uint64, payload []byte) error {
		if lsn != next {
			return fmt.Errorf("replay gap: got lsn %d, want %d", lsn, next)
		}
		if !bytes.Equal(payload, walRecPayload(lsn)) {
			return fmt.Errorf("record %d payload = %q, want %q", lsn, payload, walRecPayload(lsn))
		}
		last, next = lsn, next+1
		return nil
	})
	if rerr != nil {
		t.Fatalf("%s: %v", desc, rerr)
	}
	// last is D: checkpoint state covers 1..cut, replay covered (cut, last],
	// and the prefix is contiguous — so the recovered state is exactly
	// records 1..last.
	if !allowedMax[last] {
		t.Fatalf("%s: recovered prefix ends at %d, want one of %v (cut %d, commits %+v)",
			desc, last, allowedMax, cut, commits)
	}
}

// TestWALCrashMatrix crashes the WAL protocol at every media operation on
// each device — every log segment's included — under both power models,
// with short/torn variants of the crashing write, and asserts recovery
// restores exactly the committed record prefix.
func TestWALCrashMatrix(t *testing.T) {
	// A clean run fixes the op schedules and the commit history.
	clean := newWALCrashMedias()
	commits, err := runWALCrashWorkload(clean)
	if err != nil {
		t.Fatalf("clean run failed: %v", err)
	}
	if got := commits[len(commits)-1].lsn; got != walCrashRecords {
		t.Fatalf("clean run committed %d records, want %d", got, walCrashRecords)
	}
	for _, m := range clean {
		m.Crash(false)
	}
	verifyWALRecovery(t, clean, commits, 1, clean[1].Ops(), "clean run")

	names := []string{"data", "manifest"}
	for i := 0; i < walCrashSegments; i++ {
		names = append(names, fmt.Sprintf("wal-segment-%d", i))
	}
	total := 0
	for _, m := range clean {
		total += len(m.Log())
	}
	t.Logf("matrix: %d ops over %d devices", total, len(clean))
	stride := 1
	if testing.Short() {
		stride = 5
	}
	for mediaIdx, m := range clean {
		log := m.Log()
		for k := 0; k < len(log); k += stride {
			partials := []int{0}
			if log[k].Kind == "write" {
				if log[k].Len > 13 {
					partials = append(partials, 13)
				}
				if log[k].Len > SectorSize {
					partials = append(partials, SectorSize)
				}
			}
			for _, partial := range partials {
				for _, keep := range []bool{false, true} {
					desc := fmt.Sprintf("crash on %s at op %d/%d (%s len %d, partial %d, keep=%v)",
						names[mediaIdx], k, len(log), log[k].Kind, log[k].Len, partial, keep)
					medias := newWALCrashMedias()
					medias[mediaIdx].SetCrash(k, partial)
					if _, err := runWALCrashWorkload(medias); err == nil {
						t.Fatalf("%s: workload completed despite scripted crash", desc)
					}
					// The power loss is machine-wide: every device loses (or
					// keeps) its unsynced writes together.
					for _, m := range medias {
						m.Crash(keep)
					}
					verifyWALRecovery(t, medias, commits, mediaIdx, k, desc)
				}
			}
		}
	}
}

// TestWALCrashMatrixDeterministic guards the matrix itself: two clean runs
// must produce identical op schedules on every media — the group-commit
// daemon, driven in lock step, must not introduce scheduling noise.
func TestWALCrashMatrixDeterministic(t *testing.T) {
	a, b := newWALCrashMedias(), newWALCrashMedias()
	if _, err := runWALCrashWorkload(a); err != nil {
		t.Fatal(err)
	}
	if _, err := runWALCrashWorkload(b); err != nil {
		t.Fatal(err)
	}
	for i := range a {
		la, lb := a[i].Log(), b[i].Log()
		if len(la) != len(lb) {
			t.Fatalf("media %d op counts differ: %d vs %d", i, len(la), len(lb))
		}
		for j := range la {
			if la[j] != lb[j] {
				t.Fatalf("media %d op %d differs: %+v vs %+v", i, j, la[j], lb[j])
			}
		}
	}
}
