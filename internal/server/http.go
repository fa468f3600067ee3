package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"
)

// Handler returns the service's HTTP/JSON API:
//
//	POST /submit          {"program":"addmul","memCapMB":1000,...} or {"spec":{...}}
//	                      → 202 {"id":"q1","state":"queued"}
//	GET  /status?id=q1    → QueryStatus
//	GET  /results?id=q1   → final QueryStatus; blocks until done with ?wait=1
//	                        (the wait honors request-context cancellation),
//	                        409 while the query is still queued/running otherwise
//	GET  /results/stream?id=q1
//	                      → the query's output blocks streamed one at a time
//	                        straight out of the buffer pool: binary blockproto
//	                        frames by default, ?format=ndjson for one JSON
//	                        object per line. Streams begin before the query
//	                        finishes (early delivery) and retire delivered
//	                        frames (?retain=evict|keep|drop, ?chunk=N). See
//	                        docs/streaming.md
//	GET  /queries         → every query, submission order
//	GET  /stats           → Stats (pool hit rates, physical I/O, admission,
//	                        plan cache incl. hit rate and planning latency
//	                        percentiles, per-tenant breakdown incl. eviction
//	                        write-back errors; on a replicated sharded store
//	                        also per-shard degraded flags and degraded-read
//	                        counters); ?tenant=name returns just that
//	                        tenant's TenantStats
//	GET  /metrics         → Prometheus text exposition of the telemetry
//	                        registry (admission, planning, pool, per-shard
//	                        storage, remote clients, exec stages)
//	GET  /trace?id=q1     → the query's completed span tree (bounded ring of
//	                        recent traces); without ?id, the retained IDs
//	POST /repair?shard=1  → re-mirror a degraded shard from its replicas
//	                        (replicated stores only); 200 on success
//	GET  /healthz         → 200 ok
//
// JSON responses are compact by default; pass ?pretty=1 for indented
// output. With Config.EnablePprof the net/http/pprof handlers are
// registered under /debug/pprof/.
//
// Submissions carry an optional "tenant" label; the governor serves one
// FIFO queue per tenant round-robin and the buffer pool meters per-tenant
// residency. The first 512 distinct labels are kept as given; later new
// ones share the overflow label "~other".
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/submit", s.handleSubmit)
	mux.HandleFunc("/status", s.handleStatus)
	mux.HandleFunc("/results", s.handleResults)
	mux.HandleFunc("/results/stream", s.handleResultsStream)
	mux.HandleFunc("/queries", s.handleQueries)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/trace", s.handleTrace)
	mux.HandleFunc("/repair", s.handleRepair)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	if s.cfg.EnablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// wantPretty reports whether the request asked for indented JSON.
func wantPretty(r *http.Request) bool {
	v := r.URL.Query().Get("pretty")
	return v != "" && v != "0"
}

func writeJSON(w http.ResponseWriter, r *http.Request, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	if wantPretty(r) {
		enc.SetIndent("", "  ")
	}
	enc.Encode(v)
}

func writeErr(w http.ResponseWriter, r *http.Request, code int, err error) {
	writeJSON(w, r, code, map[string]string{"error": err.Error()})
}

// maxSubmitBytes bounds a /submit request body. The largest benchmark
// spec is a few KiB; the bound only stops a client from making the daemon
// buffer an arbitrarily large body.
const maxSubmitBytes = 1 << 20

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, r, http.StatusMethodNotAllowed, errors.New("POST required"))
		return
	}
	var req Request
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBytes)).Decode(&req); err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		writeErr(w, r, code, fmt.Errorf("decode request: %w", err))
		return
	}
	id, err := s.Submit(req)
	if err != nil {
		writeErr(w, r, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, r, http.StatusAccepted, map[string]string{"id": id, "state": string(StateQueued)})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, err := s.Status(r.URL.Query().Get("id"))
	if err != nil {
		writeErr(w, r, http.StatusNotFound, err)
		return
	}
	writeJSON(w, r, http.StatusOK, st)
}

func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("id")
	if r.URL.Query().Get("wait") != "" {
		// Wait under the request context: a client that disconnects stops
		// holding the handler (and, once ready, the materialized result)
		// alive for a query nobody is waiting on.
		st, err := s.WaitCtx(r.Context(), id)
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return // client gone; nothing to write
		}
		if err != nil {
			writeErr(w, r, http.StatusNotFound, err)
			return
		}
		writeJSON(w, r, http.StatusOK, st)
		return
	}
	st, err := s.Status(id)
	if err != nil {
		writeErr(w, r, http.StatusNotFound, err)
		return
	}
	if st.State != StateDone && st.State != StateFailed {
		writeJSON(w, r, http.StatusConflict, st)
		return
	}
	writeJSON(w, r, http.StatusOK, st)
}

func (s *Server) handleQueries(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, r, http.StatusOK, s.List())
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := s.Stats()
	if tenant, ok := r.URL.Query()["tenant"]; ok && len(tenant) > 0 {
		ts, found := st.Tenants[tenant[0]]
		if !found {
			writeErr(w, r, http.StatusNotFound, fmt.Errorf("no activity for tenant %q", tenant[0]))
			return
		}
		writeJSON(w, r, http.StatusOK, ts)
		return
	}
	writeJSON(w, r, http.StatusOK, st)
}

// handleMetrics serves the telemetry registry in Prometheus text
// exposition format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_ = s.reg.WritePrometheus(w)
}

// handleTrace serves one completed query's span tree by ID, or the
// list of retained trace IDs without ?id.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("id")
	if id == "" {
		writeJSON(w, r, http.StatusOK, map[string]any{"traces": s.tracer.IDs()})
		return
	}
	tr, ok := s.tracer.Get(id)
	if !ok {
		writeErr(w, r, http.StatusNotFound, fmt.Errorf("no trace for query %q (still running, or evicted from the ring)", id))
		return
	}
	writeJSON(w, r, http.StatusOK, tr)
}

func (s *Server) handleRepair(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, r, http.StatusMethodNotAllowed, errors.New("POST required"))
		return
	}
	shard, err := strconv.Atoi(r.URL.Query().Get("shard"))
	if err != nil {
		writeErr(w, r, http.StatusBadRequest, fmt.Errorf("repair needs ?shard=N: %w", err))
		return
	}
	if err := s.RepairShard(shard); err != nil {
		writeErr(w, r, http.StatusConflict, err)
		return
	}
	writeJSON(w, r, http.StatusOK, map[string]any{"repaired": shard})
}

// ListenAndServe runs the HTTP API on addr until ctx is canceled, then
// shuts down gracefully: in-flight HTTP requests drain, queued queries fail
// fast, running queries finish, and the pool flushes before storage closes.
func ListenAndServe(ctx context.Context, addr string, cfg Config) error {
	srv, err := New(cfg)
	if err != nil {
		return err
	}
	hs := &http.Server{Addr: addr, Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	select {
	case err := <-errc:
		srv.Close()
		return err
	case <-ctx.Done():
	}
	shctx, cancel := context.WithTimeout(context.Background(), 15*time.Second) //riotvet:allow ctxflow — shutdown deadline must outlive the canceled serve ctx
	defer cancel()
	if err := hs.Shutdown(shctx); err != nil {
		srv.Close()
		return err
	}
	return srv.Close()
}
