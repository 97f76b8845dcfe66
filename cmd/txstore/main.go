// Command txstore serves the repository's transactional data structures
// over TCP: OTB sets/maps/priority queues (or the multi-version runtime's
// set and map) behind a length-prefixed wire protocol with per-client
// sessions, exactly-once request sequencing, deadline propagation,
// admission control and graceful drain. It is the networked promotion of
// the remote-commit split (paper chapter 5): the client ships whole
// transactions, the server owns the structures.
//
// Examples:
//
//	txstore -addr :7470
//	txstore -addr :7470 -wal-dir /var/lib/txstore -fsync always   # durable
//	txstore -addr :7470 -store mvotb
//	txstore -addr :7470 -max-inflight 64 -cm hybrid -debug-addr localhost:6060
//	txstore -failpoints 'txnet.conn.drop=panic@prob:0.01'   # chaos drill
//
// SIGINT/SIGTERM drains gracefully: the listener closes, in-flight
// transactions finish (bounded by -drain-timeout), stragglers are cancelled
// and answered with the shutting-down status, then every connection closes.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/chaos/failpoint"
	"repro/internal/cm"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/txnet"
	"repro/internal/wal"
)

func main() {
	var (
		addr        = flag.String("addr", ":7470", "listen address")
		storeKind   = flag.String("store", "otb", "backing runtime: otb (boosted set+map+pq) or mvotb (multi-version set+map)")
		maxInflight = flag.Int("max-inflight", txnet.DefaultMaxInflight, "admission slots (concurrently executing transactions)")
		patience    = flag.Duration("patience", txnet.DefaultAdmissionPatience, "how long an arrival waits for a slot before being shed")
		sessionTTL  = flag.Duration("session-ttl", txnet.DefaultSessionTTL, "idle time before a session (and its exactly-once cache) expires")
		drain       = flag.Duration("drain-timeout", 10*time.Second, "graceful-drain budget on SIGTERM before in-flight work is cancelled")
		cmPolicy    = flag.String("cm", "", "contention-management policy: "+strings.Join(cm.Names(), ", "))
		cmBudget    = flag.Int("cm-budget", 0, "retry budget before serial-mode escalation (<0 disables)")
		failspec    = flag.String("failpoints", "", "fault-injection specs, 'name=action[@triggers];...' (see internal/chaos/failpoint)")
		debugAddr   = flag.String("debug-addr", "", "serve the live debug endpoint (trace snapshot, pprof, expvar) on this address")
		statsEvery  = flag.Duration("stats-every", 0, "periodically log server stats to stderr (0 = off)")
		walDir      = flag.String("wal-dir", "", "directory for the write-ahead log; enables durable mode with recovery on start")
		fsyncPolicy = flag.String("fsync", "always", "WAL sync policy: always (ack after fsync), interval (background flush + fsync), never (no fsync; records stay in a 64 KB user-space buffer until it fills, a snapshot or a clean exit, so a process kill loses that acked tail)")
		fsyncEvery  = flag.Duration("fsync-interval", 2*time.Millisecond, "background fsync cadence for -fsync interval")
		snapEvery   = flag.Int("snapshot-every", txnet.DefaultSnapshotEvery, "snapshot the store+sessions after this many logged commits (<=0 disables)")
		slowMS      = flag.Float64("slow-ms", 0, "log a structured per-stage breakdown for requests slower than this many milliseconds (0 = off)")
		traceSample = flag.Uint64("trace-sample", 0, "arm the flight recorder, tracing 1 in N requests (0 = off, 1 = every request)")
	)
	flag.Parse()

	if err := cm.Configure(*cmPolicy, *cmBudget); err != nil {
		fatal(err)
	}
	if *failspec != "" {
		if err := failpoint.Apply(*failspec); err != nil {
			fatal(err)
		}
	}
	telemetry.Enable()
	telemetry.Publish()
	if *traceSample > 0 {
		trace.Enable(*traceSample)
	}

	var store txnet.DurableStore
	switch *storeKind {
	case "otb":
		store = txnet.NewOTBStore()
	case "mvotb":
		st := txnet.NewMVOTBStore()
		defer st.Stop()
		store = st
	default:
		fatal(fmt.Errorf("unknown -store %q (otb or mvotb)", *storeKind))
	}
	var dur *txnet.Durable
	if *walDir != "" {
		policy, err := wal.ParsePolicy(*fsyncPolicy)
		if err != nil {
			fatal(err)
		}
		every := *snapEvery
		if every <= 0 {
			every = -1
		}
		dur, err = txnet.OpenDurable(store, txnet.DurabilityOptions{
			Dir:           *walDir,
			Fsync:         policy,
			FsyncInterval: *fsyncEvery,
			SnapshotEvery: every,
		})
		if err != nil {
			fatal(err)
		}
		rec := dur.Recovery()
		fmt.Fprintf(os.Stderr,
			"txstore: recovered %s in %v: snapshot lsn %d, %d records (%d commits) replayed, %d sessions, torn-tail=%v, snapshots-skipped=%d\n",
			*walDir, rec.Elapsed.Round(time.Microsecond), rec.SnapshotLSN, rec.RecordsReplayed,
			rec.CommitsReplayed, rec.SessionsRestored, rec.TornTail, rec.SnapshotsSkipped)
	}

	if *debugAddr != "" {
		dbg, err := trace.Serve(*debugAddr)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "txstore: debug endpoint on http://%s/debug/trace (metrics on /metrics)\n", dbg.Addr())
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			_ = dbg.Shutdown(ctx)
		}()
	}

	srv, err := txnet.Listen(*addr, txnet.Options{
		Store:             store,
		Durable:           dur,
		MaxInflight:       *maxInflight,
		AdmissionPatience: *patience,
		SessionTTL:        *sessionTTL,
		SlowThreshold:     time.Duration(*slowMS * float64(time.Millisecond)),
	})
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "txstore: serving %s store on %s\n", *storeKind, srv.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)

	if *statsEvery > 0 {
		go func() {
			tick := time.NewTicker(*statsEvery)
			defer tick.Stop()
			for range tick.C {
				fmt.Fprintf(os.Stderr, "txstore: %+v\n", srv.Stats())
			}
		}()
	}

	got := <-sig
	fmt.Fprintf(os.Stderr, "txstore: %s — draining (budget %v)\n", got, *drain)
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	err = srv.Shutdown(ctx)
	st := srv.Stats()
	fmt.Fprintf(os.Stderr, "txstore: drained; final stats %+v\n", st)
	if err != nil {
		fmt.Fprintf(os.Stderr, "txstore: drain incomplete: %v\n", err)
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "txstore:", err)
	os.Exit(2)
}
