// Command uindexd serves a U-index database over the data-path protocol
// (see internal/server) plus an HTTP ops listener with /metrics, /healthz,
// /readyz, and /debug/pprof.
//
//	$ uindexd -listen :9040 -http :9041 -dir /var/lib/uindex
//	$ curl -s localhost:9041/metrics | grep uindexd_requests_total
//
// The database is the paper's Example-1 demo by default, or a previously
// saved snapshot with -load. With -durability wal, a directory that already
// holds a WAL database is recovered on startup (replaying the committed log
// suffix; /readyz reports 503 until the replay finishes) and every mutation
// is durable through the group-commit log. SIGTERM/SIGINT drains
// gracefully: stop accepting, finish in-flight requests, release session
// snapshots, checkpoint, save the store snapshot (when -dir or -save is
// set, except under -durability wal where the final checkpoint is the
// durable state), exit.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	uindex "repro"
	"repro/internal/demo"
	"repro/internal/server"
)

func main() {
	var (
		listen     = flag.String("listen", "127.0.0.1:9040", "data-path listen address")
		httpAddr   = flag.String("http", "127.0.0.1:9041", "ops listen address for /metrics, /healthz, /readyz, /debug/pprof (empty disables)")
		dir        = flag.String("dir", "", "directory for disk-backed index files (empty = in-memory)")
		durability = flag.String("durability", "checkpoint", "durability mode for -dir: checkpoint or wal")
		poolPages  = flag.Int("poolpages", 256, "buffer-pool frames per index (0 = no pool)")
		loadPath   = flag.String("load", "", "load a store snapshot instead of building the Example-1 demo")
		savePath   = flag.String("save", "", "store snapshot written on drain (default <dir>/store.usnap when -dir is set)")
		inflight   = flag.Int("maxinflight", 128, "admission bound: requests executing concurrently across all connections")
		pipeline   = flag.Int("pipeline", 32, "per-connection in-flight request bound")
		reqTimeout = flag.Duration("request-timeout", 30*time.Second, "per-request deadline (negative disables)")
		idle       = flag.Duration("idle-timeout", 5*time.Minute, "close connections idle this long (0 disables)")
		drainWait  = flag.Duration("drain-timeout", 30*time.Second, "graceful-drain bound before connections are closed forcibly")
	)
	flag.Parse()
	log := slog.New(slog.NewTextHandler(os.Stderr, nil))
	if err := run(log, *listen, *httpAddr, *dir, *durability, *poolPages,
		*loadPath, *savePath, *inflight, *pipeline, *reqTimeout, *idle, *drainWait); err != nil {
		log.Error("uindexd failed", "err", err)
		os.Exit(1)
	}
}

// walDatabaseExists reports whether dir already holds a WAL database (its
// commit manifest), which means startup must recover it rather than
// bootstrap a fresh one.
func walDatabaseExists(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, "db.manifest"))
	return err == nil
}

// startRecoveryProbe serves /healthz (200) and /readyz (503, recovering) on
// the ops address while a WAL recovery replay runs, and returns a function
// that stops it so the real server can bind the address. With no ops
// address, or if the bind fails (the real server will surface that error),
// it is a no-op.
func startRecoveryProbe(log *slog.Logger, httpAddr string) func() {
	if httpAddr == "" {
		return func() {}
	}
	ln, err := net.Listen("tcp", httpAddr)
	if err != nil {
		log.Warn("recovery probe listener unavailable", "addr", httpAddr, "err", err)
		return func() {}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "recovering: replaying write-ahead log", http.StatusServiceUnavailable)
	})
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	// Close the listener directly: srv.Close only closes listeners Serve
	// has already registered, and a fast recovery can finish before the
	// goroutine gets there — leaving the port bound against the real server.
	return func() {
		ln.Close()
		srv.Close()
	}
}

func run(log *slog.Logger, listen, httpAddr, dir, durability string, poolPages int,
	loadPath, savePath string, inflight, pipeline int, reqTimeout, idle, drainWait time.Duration) error {
	dur, err := demo.ParseDurability(durability)
	if err != nil {
		return err
	}
	opts := uindex.Options{PoolPages: poolPages, Dir: dir, Durability: dur}
	var db *uindex.Database
	switch {
	case dur == uindex.DurabilityWAL && dir == "":
		return fmt.Errorf("-durability wal requires -dir")
	case dur == uindex.DurabilityWAL && walDatabaseExists(dir):
		// Recovery path: replay the committed log suffix on top of the last
		// checkpoint. The probe listener answers /readyz with 503 until the
		// replay finishes, so orchestrators hold traffic during recovery.
		if loadPath != "" {
			return fmt.Errorf("-load conflicts with the existing WAL database in %s", dir)
		}
		stopProbe := startRecoveryProbe(log, httpAddr)
		db, err = uindex.Open(dir, opts)
		stopProbe()
		if err == nil {
			log.Info("write-ahead log recovered", "dir", dir,
				"replayed", db.Metrics().WALRecoveryReplayed)
		}
	case loadPath != "":
		db, err = uindex.LoadFileWith(loadPath, opts)
	default:
		db, _, err = demo.Build(opts)
	}
	if err != nil {
		return err
	}
	defer db.Close()
	// With a WAL, Close's final checkpoint is the durable state; the extra
	// store snapshot is only the default for the checkpoint/sync modes.
	if savePath == "" && dir != "" && dur != uindex.DurabilityWAL {
		savePath = filepath.Join(dir, "store.usnap")
	}

	srv, err := server.New(server.Config{
		DB:             db,
		Addr:           listen,
		HTTPAddr:       httpAddr,
		MaxInFlight:    inflight,
		PipelineDepth:  pipeline,
		RequestTimeout: reqTimeout,
		IdleTimeout:    idle,
		Logger:         log,
	})
	if err != nil {
		return err
	}
	if err := srv.Start(); err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	<-ctx.Done()
	stop() // a second signal kills the process the default way

	dctx, cancel := context.WithTimeout(context.Background(), drainWait)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if savePath != "" {
		if err := db.SaveFile(savePath); err != nil {
			return fmt.Errorf("save %s: %w", savePath, err)
		}
		log.Info("store snapshot saved", "path", savePath)
	}
	return nil
}
