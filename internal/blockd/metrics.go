package blockd

import (
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"riotshare/internal/blockproto"
	"riotshare/internal/telemetry"
)

// opNames maps blockproto opcodes to metric label values.
var opNames = map[byte]string{
	blockproto.OpPing:     "ping",
	blockproto.OpCreate:   "create",
	blockproto.OpRead:     "read",
	blockproto.OpWrite:    "write",
	blockproto.OpDrop:     "drop",
	blockproto.OpStats:    "stats",
	blockproto.OpManifest: "manifest",
	blockproto.OpStat:     "stat",
	blockproto.OpWipe:     "wipe",
}

// initMetrics builds the server's registry: per-op latency histograms
// and error counters (pre-registered so the serve path never takes
// the registry's registration lock), plus a collector over the error
// counters, the manager's physical I/O counters, the live connection
// count and the process's CPU, allocation and GC counters.
func (s *Server) initMetrics() {
	s.reg = telemetry.New()
	s.opLat = make(map[byte]*telemetry.Histogram, len(opNames))
	s.opErrs = make(map[byte]*atomic.Int64, len(opNames))
	for op, name := range opNames {
		s.opLat[op] = s.reg.Histogram("riotblockd_op_seconds",
			"Latency of blockproto operations served, per opcode.", nil, telemetry.L("op", name))
		s.opErrs[op] = new(atomic.Int64)
	}
	s.reg.Collect(func(e *telemetry.Emit) {
		for op, name := range opNames {
			e.Counter("riotblockd_op_errors_total", "Blockproto operations answered with a non-OK status, per opcode.",
				float64(s.opErrs[op].Load()), telemetry.L("op", name))
		}
		st := s.mgr.Stats()
		e.Counter("riotblockd_read_reqs_total", "Physical block reads served.", float64(st.ReadReqs))
		e.Counter("riotblockd_read_bytes_total", "Bytes read from the shard root.", float64(st.ReadBytes))
		e.Counter("riotblockd_write_reqs_total", "Physical block writes served.", float64(st.WriteReqs))
		e.Counter("riotblockd_write_bytes_total", "Bytes written to the shard root.", float64(st.WriteBytes))
		s.mu.Lock()
		conns := len(s.conns)
		s.mu.Unlock()
		e.Gauge("riotblockd_connections", "Currently open client connections.", float64(conns))
		telemetry.ReadProcess().Emit(e, "riotblockd")
	})
}

// observeOp records one served operation's latency and error outcome.
func (s *Server) observeOp(op, status byte, d time.Duration) {
	h, ok := s.opLat[op]
	if !ok {
		return // unknown opcode: answered BadRequest, nothing registered
	}
	h.ObserveDuration(d)
	if status != blockproto.StatusOK {
		s.opErrs[op].Add(1)
	}
}

// Metrics exposes the server's telemetry registry.
func (s *Server) Metrics() *telemetry.Registry { return s.reg }

// MetricsHandler returns the HTTP sidecar mux cmd/riotblockd serves on
// -metrics-addr: GET /metrics (Prometheus text exposition) and GET
// /healthz.
func (s *Server) MetricsHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		_ = s.reg.WritePrometheus(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	return mux
}
