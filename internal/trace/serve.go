package trace

import (
	"context"
	"expvar"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	httppprof "net/http/pprof"
	"runtime/pprof"
	"time"

	"repro/internal/telemetry"
)

func init() {
	// Append the conflict attribution table to every telemetry.WriteTable
	// rendering (stmbench, reproduce, the bench figure drivers) whenever
	// the Default recorder has attributions to show.
	telemetry.RegisterSection(func(w io.Writer) {
		entries := Default.Conflicts(10)
		if len(entries) == 0 {
			return
		}
		fmt.Fprintln(w)
		writeConflictEntries(w, entries)
	})
}

// Do runs f under runtime/pprof labels naming the transactional runtime
// and the workload, so CPU profiles taken during a run split per algorithm
// and per workload. Labels are inherited by goroutines started inside f,
// which covers the bench harness's workers.
func Do(runtimeName, workload string, f func()) {
	pprof.Do(context.Background(),
		pprof.Labels("algorithm", runtimeName, "workload", workload),
		func(context.Context) { f() })
}

// Server is a running debug endpoint, as returned by Serve.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the endpoint down, giving in-flight requests a short grace
// period (a profile download cut off mid-stream is a corrupt profile)
// before dropping whatever is left.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	return s.Shutdown(ctx)
}

// Shutdown stops the endpoint gracefully: the listener closes immediately,
// in-flight requests get until ctx to finish, and anything still running
// past that is dropped outright — Shutdown never returns with the port or
// connections still held. It returns ctx's error when the grace period
// expired, nil on a clean drain.
func (s *Server) Shutdown(ctx context.Context) error {
	if err := s.srv.Shutdown(ctx); err != nil {
		// Graceful drain timed out (or ctx was already dead): fall back to
		// dropping the stragglers so shutdown still completes.
		_ = s.srv.Close()
		return err
	}
	return nil
}

// NewMux builds the debug mux for a recorder:
//
//	/debug/trace           human-readable snapshot: telemetry table,
//	                       conflict table, last aborts, recorder state
//	/debug/trace/perfetto  flight-recorder dump as trace-event JSON
//	                       (load in ui.perfetto.dev)
//	/debug/trace/conflicts conflict attribution table (text)
//	/debug/trace/aborts    every abort the rings hold (text)
//	/metrics               OpenMetrics text exposition (Prometheus-scrapable)
//	/debug/vars            expvar (includes telemetry's "transactions")
//	/debug/pprof/...       the standard pprof handlers
func NewMux(r *Recorder) *http.ServeMux {
	telemetry.Publish()
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "flight recorder: enabled=%v sample=1/%d events=%d\n\n",
			r.Enabled(), r.SampleEvery(), len(r.Snapshot()))
		telemetry.WriteTable(w, telemetry.Default.Snapshot())
		fmt.Fprintln(w)
		r.WriteConflicts(w, 10)
		fmt.Fprintln(w)
		r.WriteAborts(w, 20)
	})
	mux.HandleFunc("/debug/trace/perfetto", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := r.WritePerfetto(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/debug/trace/conflicts", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		r.WriteConflicts(w, 50)
	})
	mux.HandleFunc("/debug/trace/aborts", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		r.WriteAborts(w, math.MaxInt)
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", telemetry.OpenMetricsContentType)
		if err := telemetry.WriteOpenMetrics(w, telemetry.Default.Snapshot()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", httppprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
	return mux
}

// Serve starts the live debug endpoint for the Default recorder on addr
// (e.g. "localhost:6060", or ":0" to pick a port — read it back with
// Addr). The caller owns the returned Server and should Close it on
// shutdown. Serving does not enable the recorder; arm it separately with
// Enable so the endpoint can also inspect a quiesced process.
func Serve(addr string) (*Server, error) {
	return ServeRecorder(addr, Default)
}

// ServeRecorder is Serve for a specific recorder instance.
func ServeRecorder(addr string, r *Recorder) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: NewMux(r), ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = srv.Serve(ln) }()
	return &Server{ln: ln, srv: srv}, nil
}
