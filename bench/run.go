package main

import (
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	uindex "repro"
)

const (
	checkEvery   = 64 // every 64th query's answer is checked
	ladderEvery  = 16 // every 16th query of a traced pass is run as a ladder
	windowSlices = 3  // consecutive slices of a timed phase; the median slice is reported
	reopens      = 5  // reopen_s is the median of this many opens
)

// config is one run of one workload.
type config struct {
	spec     *spec
	seed     int64
	seconds  float64 // length of the timed phase
	trace    bool
	dir      string // data root; everything the run writes lives below it
	traceOut string // where the traced pass writes its spans ("" = nowhere)
	vehicles int    // overrides spec.vehicles (smoke scale) when positive
	setups   int    // setup_s is the median of this many set-ups
}

// run is the state of one workload run: the database, its clients, and the
// failure count every phase adds to.
type run struct {
	cfg       config
	in        *instance
	data      *dataset
	disk      *diskProbe // traced pass of a disk workload only
	cycle     int
	clients   []*client
	attempted atomic.Int64
	failures  atomic.Int64
	mu        sync.Mutex
	messages  []string // first few failures, for the report

	calibratedPages float64 // mean PagesRead over one cycle of every client
}

func (rn *run) fail(err error) {
	rn.failures.Add(1)
	rn.mu.Lock()
	if len(rn.messages) < 8 {
		rn.messages = append(rn.messages, err.Error())
	}
	rn.mu.Unlock()
}

// slice is one slice of a phase, merged over the clients.
type slice struct {
	ops        int
	opsPerSec  float64
	readUs     []float64 // sorted
	writeUs    []float64 // sorted
	stats      uindex.Stats
	mallocs    uint64
	retries    int
	maxWriteUs float64
}

func (rn *run) connect() error {
	rn.cycle = rn.cfg.spec.cycle
	for id := range rn.cfg.spec.clients {
		c, err := newClient(rn, id)
		if err != nil {
			return err
		}
		rn.clients = append(rn.clients, c)
	}
	return nil
}

func (rn *run) disconnect() {
	for _, c := range rn.clients {
		c.conn.close()
	}
}

// calibrate sends one full cycle of every client through its transport. It
// warms the caches, records the digest each query's answer must keep while
// the data is read-only, fixes pages_per_query on a set of queries that does
// not depend on how fast the machine is, and checks every 64th answer
// against brute force.
func (rn *run) calibrate(ctx context.Context) {
	var pages, n int
	for _, c := range rn.clients {
		want := make([]uint64, len(c.reads))
		for i := range c.reads {
			op := &c.reads[i]
			rn.attempted.Add(1)
			ms, st, err := c.conn.query(ctx, op, c.parsed[i])
			if err != nil {
				rn.fail(fmt.Errorf("%s: %w", op.text, err))
				continue
			}
			pages += st.PagesRead
			n++
			ix, _ := rn.in.db.Index(op.index)
			b, err := canonical(ix.AttrType(), ms)
			if err != nil {
				rn.fail(err)
				continue
			}
			want[i] = digest(b)
			if i%checkEvery == 0 {
				if err := checkAnswer(rn.in.db, op, ms); err != nil {
					rn.fail(err)
				}
			}
		}
		if rn.cfg.spec.writes == 0 {
			c.want = want
		}
	}
	if n > 0 {
		rn.calibratedPages = float64(pages) / float64(n)
	}
}

// phase runs every client through body, concurrently, once per slice, and
// merges what they tallied. Allocations are counted around each slice.
func (rn *run) phase(body func(c *client)) []slice {
	out := make([]slice, windowSlices)
	for s := range out {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var wg sync.WaitGroup
		for _, c := range rn.clients {
			c.cur = &tally{}
			wg.Add(1)
			go func() {
				defer wg.Done()
				t0 := time.Now()
				body(c)
				c.cur.wall = time.Since(t0)
			}()
		}
		wg.Wait()
		runtime.ReadMemStats(&after)
		sl := &out[s]
		sl.mallocs = after.Mallocs - before.Mallocs
		for _, c := range rn.clients {
			t := c.cur
			sl.ops += t.ops()
			if busy := (t.wall - t.offClock).Seconds(); busy > 0 {
				sl.opsPerSec += float64(t.ops()) / busy
			}
			sl.readUs = append(sl.readUs, t.readUs...)
			sl.writeUs = append(sl.writeUs, t.writeUs...)
			addStats(&sl.stats, t.stats)
			sl.retries += t.retries
		}
		slices.Sort(sl.readUs)
		slices.Sort(sl.writeUs)
		if n := len(sl.writeUs); n > 0 {
			sl.maxWriteUs = sl.writeUs[n-1]
		}
	}
	return out
}

// window is the timed phase: every client issues its mix, closed-loop, for
// seconds split into windowSlices slices.
func (rn *run) window(ctx context.Context, seconds float64, tr bool) []slice {
	for _, c := range rn.clients {
		c.tracer = nil
		if tr {
			c.tracer = &tracer{t0: time.Now(), client: c.id}
		}
	}
	sliceLen := time.Duration(seconds / windowSlices * float64(time.Second))
	writes := rn.cfg.spec.writes
	return rn.phase(func(c *client) {
		deadline := time.Now().Add(sliceLen)
		for time.Now().Before(deadline) {
			if writes > 0 && c.r.Intn(100) < writes {
				c.commit(ctx)
			} else {
				c.read(ctx)
			}
		}
	})
}

// writeProbe gives the read-only workloads their commit latency: after the
// read window, so reads are measured on unchanged data, every client issues
// a fixed number of commits of the write mix through its transport — per
// slice one commit per 20 of its vehicles, at most 1000. A count, not a
// duration, so that what the probe leaves on disk repeats for a seed. 3000
// per slice was tried: it was no steadier on point_net_warm (write_p50_us
// spread 14 % against 17 % over six runs, in a noisy hour) and took 9 s more
// per run, which the 92 runs of the driver cannot afford.
func (rn *run) writeProbe(ctx context.Context) []slice {
	for _, c := range rn.clients {
		c.tracer = nil
	}
	return rn.phase(func(c *client) {
		for range min(1000, len(rn.in.vehicles)/(20*len(rn.clients))) {
			c.commit(ctx)
		}
	})
}

// userBytes sums the attribute values of the live objects: string lengths,
// 8 bytes per number, 4 per reference.
func userBytes(db *uindex.Database) int64 {
	objs, _ := db.Store().Snapshot()
	var n int64
	for _, o := range objs {
		for _, v := range o.Attrs {
			switch v := v.(type) {
			case string:
				n += int64(len(v))
			case uindex.OID:
				n += 4
			default:
				n += 8
			}
		}
	}
	return n
}

func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		n += info.Size()
		return err
	})
	return n, err
}

// restart is the end of every workload: a clean close, then the database is
// brought back the way its durability mode prescribes — uindex.Open for a
// WAL database, the Save/Load snapshot (plus the checkpointed index files of
// a disk database) otherwise — and every acknowledged write must be there.
// It returns the bytes left on disk per user byte and the median open time.
func (rn *run) restart(ctx context.Context) (spaceAmp, reopenS float64, err error) {
	in := rn.in
	user := userBytes(in.db)
	if err := in.shutdown(); err != nil {
		return 0, 0, err
	}
	snap := filepath.Join(in.dir, "store.snap")
	wal := in.opts.Durability == uindex.DurabilityWAL
	if !wal {
		if err := in.db.SaveFile(snap); err != nil {
			return 0, 0, err
		}
	}
	err = in.db.Close()
	in.db = nil
	if err != nil {
		return 0, 0, err
	}
	stored, err := dirBytes(in.dir)
	if err != nil {
		return 0, 0, err
	}
	var opens []float64
	for i := range reopens {
		t0 := time.Now()
		var db *uindex.Database
		if wal {
			db, err = uindex.Open(in.opts.Dir, in.opts)
		} else {
			db, err = uindex.LoadFileWith(snap, in.opts)
		}
		if err != nil {
			return 0, 0, fmt.Errorf("reopen: %w", err)
		}
		opens = append(opens, time.Since(t0).Seconds())
		if i == 0 {
			rn.verify(ctx, db)
		}
		if err := db.Close(); err != nil {
			return 0, 0, err
		}
	}
	return float64(stored) / float64(user), median(opens), nil
}

// verify checks a reopened database: every acknowledged write is readable,
// and the indexes answer every 64th query of every cycle like brute force.
func (rn *run) verify(ctx context.Context, db *uindex.Database) {
	for _, c := range rn.clients {
		c.verifyWrites(db)
		for i := 0; i < len(c.reads); i += checkEvery {
			rn.checkQuery(ctx, db, &c.reads[i])
		}
	}
}

// checkQuery parses and runs op in-process and compares it with brute force.
func (rn *run) checkQuery(ctx context.Context, db *uindex.Database, op *readOp) {
	rn.attempted.Add(1)
	ix, ok := db.Index(op.index)
	if !ok {
		rn.fail(fmt.Errorf("index %q missing after reopen", op.index))
		return
	}
	q, err := uindex.ParseQuery(ix, op.text)
	if err != nil {
		rn.fail(err)
		return
	}
	ms, _, err := db.Query(ctx, op.index, q)
	if err != nil {
		rn.fail(fmt.Errorf("%s: %w", op.text, err))
		return
	}
	if err := checkAnswer(db, op, ms); err != nil {
		rn.fail(err)
	}
}

// buildInstance sets the database up cfg.setups times, keeping the last, and
// returns the set-up times.
func buildInstance(cfg config, d *dataset) (*instance, []float64, error) {
	var in *instance
	var times []float64
	for rep := range cfg.setups {
		if in != nil {
			if err := in.close(); err != nil {
				return nil, nil, err
			}
			if err := os.RemoveAll(in.dir); err != nil {
				return nil, nil, err
			}
			// Each set-up starts from a collected heap, as the first did;
			// otherwise peak_rss_mb depends on when the collector last ran.
			runtime.GC()
		}
		dir := filepath.Join(cfg.dir, fmt.Sprintf("setup%d", rep))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, nil, err
		}
		syscall.Sync() // no set-up pays for the writeback of the one before
		t0 := time.Now()
		var err error
		if in, err = setup(cfg.spec, d, dir); err != nil {
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return in, times, nil
}
