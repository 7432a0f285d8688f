package main

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"

	uindex "repro"
	"repro/internal/server"
	"repro/internal/workload"
)

// spec is one workload: a database configuration, a transport, and a traffic
// mix. The names are normative — BENCHMARK.json and every later performance
// claim refer to them.
type spec struct {
	name     string
	vehicles int
	opts     uindex.Options // Dir is filled in per run
	disk     bool           // database lives in the data directory
	net      bool           // requests travel over loopback to an in-process server
	clients  int            // closed-loop callers (goroutines or connections)
	cold     bool           // every cache is dropped before every query, off the clock
	reads    []mixEntry
	writes   int // percent of window requests that are commits
	cycle    int // distinct queries per client before the stream repeats
}

var pointMix = []mixEntry{{pointColor, 50}, {pointAge, 50}}

var scanMix = []mixEntry{{rangeColor, 40}, {parscan, 40}, {rangeAge, 20}}

var specs = []spec{
	{
		// ~50 µs of engine work per query: the frame codec, session
		// snapshot, admission and querylang own the latency.
		name: "point_net_warm", vehicles: 60000,
		net: true, clients: 2, reads: pointMix, cycle: 1024,
	},
	{
		// 5k-15k matches per query: the Parscan matcher, shard scatter and
		// merge, key splitting and leaf scans do all the work.
		name: "scan_inproc_warm", vehicles: 60000,
		opts:    uindex.Options{Shards: 4},
		clients: 1, reads: scanMix, cycle: 256,
	},
	{
		// 64 frames per shard against scans that touch more: eviction
		// happens inside a query and every page comes from the file.
		name: "scan_disk_cold", vehicles: 60000,
		opts: uindex.Options{Shards: 4, PoolPages: 64, Durability: uindex.DurabilityCheckpoint},
		disk: true, clients: 1, cold: true, cycle: 256,
		reads: []mixEntry{{rangeColor, 30}, {parscan, 30}, {rangeAge, 15}, {pointColor, 13}, {pointAge, 12}},
	},
	{
		// The same layers the other way round, readers beside writers. The
		// 512 KiB checkpoint threshold lets the background checkpointer
		// complete at least three cycles inside a 10 s traced window.
		name: "mixed_wal_net", vehicles: 20000,
		opts: uindex.Options{Shards: 4, PoolPages: 256, Durability: uindex.DurabilityWAL,
			WALMaxDelay: 0, WALCheckpointBytes: 512 << 10},
		disk: true, net: true, clients: 2, reads: pointMix, writes: 50, cycle: 1024,
	},
}

func specByName(name string) (*spec, bool) {
	for i := range specs {
		if specs[i].name == name {
			return &specs[i], true
		}
	}
	return nil, false
}

// loadBatch is the Apply batch size of the loader.
const loadBatch = 512

// instance is one built database, with the OIDs the engine assigned to the
// generated objects (position i of the data set ↔ element i).
type instance struct {
	spec      *spec
	dir       string
	opts      uindex.Options
	db        *uindex.Database
	srv       *server.Server
	employees []uindex.OID
	companies []uindex.OID
	vehicles  []uindex.OID
}

func vehicleAttrs(v vehicle, maker uindex.OID) uindex.Attrs {
	return uindex.Attrs{"Name": v.name, "Color": v.color, "ManufacturedBy": maker}
}

// setup is everything setup_s times, in this order: schema, the load through
// db.Apply, the build of both indexes, one checkpoint for disk databases, and
// the server start. Building the indexes after the load is what leaves a disk
// database compact: loaded the other way round, copy-on-write leaves a
// 60,000-vehicle index file several hundred times the size of its tree, and
// every DropPageCaches of the cold workload then spends seconds rewriting
// the free chain.
func setup(sp *spec, d *dataset, dir string) (in *instance, err error) {
	sch, err := workload.Figure1Schema()
	if err != nil {
		return nil, err
	}
	in = &instance{spec: sp, dir: dir, opts: sp.opts}
	if sp.disk {
		in.opts.Dir = filepath.Join(dir, "db")
		if err := os.MkdirAll(in.opts.Dir, 0o755); err != nil {
			return nil, err
		}
	}
	if in.db, err = uindex.NewDatabaseWith(sch, in.opts); err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			in.close()
		}
	}()
	if in.employees, err = in.load(len(d.ages), func(b *uindex.Batch, i int) {
		b.Insert("Employee", uindex.Attrs{"Age": d.ages[i]})
	}); err != nil {
		return nil, err
	}
	if in.companies, err = in.load(len(d.companies), func(b *uindex.Batch, i int) {
		c := d.companies[i]
		b.Insert(c.class, uindex.Attrs{"Name": c.name, "President": in.employees[c.president]})
	}); err != nil {
		return nil, err
	}
	if in.vehicles, err = in.load(len(d.vehicles), func(b *uindex.Batch, i int) {
		v := d.vehicles[i]
		b.Insert(v.class, vehicleAttrs(v, in.companies[v.maker]))
	}); err != nil {
		return nil, err
	}
	if err := in.db.CreateIndex(uindex.IndexSpec{Name: "color", Root: "Vehicle", Attr: "Color"}); err != nil {
		return nil, err
	}
	if err := in.db.CreateIndex(uindex.IndexSpec{Name: "age", Root: "Vehicle",
		Refs: []string{"ManufacturedBy", "President"}, Attr: "Age"}); err != nil {
		return nil, err
	}
	if sp.disk {
		if err := in.db.Checkpoint(); err != nil {
			return nil, err
		}
	}
	if sp.net {
		if err := in.serve(); err != nil {
			return nil, err
		}
	}
	return in, nil
}

// load inserts n objects through db.Apply in batches of loadBatch.
func (in *instance) load(n int, add func(b *uindex.Batch, i int)) ([]uindex.OID, error) {
	oids := make([]uindex.OID, 0, n)
	var b uindex.Batch
	for lo := 0; lo < n; lo += loadBatch {
		b.Reset()
		for i := lo; i < min(lo+loadBatch, n); i++ {
			add(&b, i)
		}
		res, err := in.db.Apply(context.Background(), &b)
		if err != nil {
			return nil, fmt.Errorf("load: %w", err)
		}
		oids = append(oids, res.OIDs...)
	}
	return oids, nil
}

// serve starts an in-process server on a loopback port, so one process owns
// every allocation and counter of the round trip.
func (in *instance) serve() error {
	srv, err := server.New(server.Config{
		DB:     in.db,
		Addr:   "127.0.0.1:0",
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
		// The benchmark checkpoints and closes the database itself, on the
		// clock of reopen_s and space_amp.
		NoCheckpointOnDrain: true,
	})
	if err != nil {
		return err
	}
	if err := srv.Start(); err != nil {
		return err
	}
	in.srv = srv
	return nil
}

// shutdown stops the server, if any; the database stays open.
func (in *instance) shutdown() error {
	if in.srv == nil {
		return nil
	}
	err := in.srv.Shutdown(context.Background())
	in.srv = nil
	return err
}

// close stops the server and closes the database.
func (in *instance) close() error {
	err := in.shutdown()
	if in.db != nil {
		if cerr := in.db.Close(); err == nil {
			err = cerr
		}
		in.db = nil
	}
	return err
}
