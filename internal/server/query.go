// query.go is the query record and its one lifetime: status, output stores
// and span trees retire together once RetainOutputs later queries finished.
package server

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"riotshare/internal/blas"
	"riotshare/internal/prog"
	"riotshare/internal/storage"
	"riotshare/internal/telemetry"
)

// query is the server-side record, kept from Submit until it retires.
type query struct {
	id   string
	seq  int // the N of id "qN"
	req  Request
	prog *prog.Program

	// tenant is the label admission, the pool session, the wait histogram
	// and the tenant counters key by: req.Tenant, or overflowTenant once
	// maxTenantLabels distinct labels were seen.
	tenant string

	// alias maps the program's written arrays to their namespaced
	// physical stores; outputsDropped marks that those stores were
	// retired (failure cleanup or the RetainOutputs policy).
	alias          map[string]string
	outputsDropped bool

	// stream tracks per-output-block completion so /results/stream can
	// deliver finished blocks while later pipeline stages still run.
	stream *streamState

	status QueryStatus
	done   chan struct{}

	// trace and streamTrace are the completed span trees of the query and
	// of its latest result stream (GET /trace?id=qN and ?id=qN:stream).
	trace, streamTrace *telemetry.Span
}

// run drives one query through optimize → admit → execute → publish, then
// enters it into the RetainOutputs FIFO, retiring the records it pushes out.
func (s *Server) run(q *query) {
	defer s.wg.Done()
	err := s.runQuery(q)
	limit := s.cfg.RetainOutputs
	if limit == 0 {
		limit = 64
	}
	var victims []*query
	s.mu.Lock()
	q.status.Finished = time.Now()
	if err != nil {
		q.status.State = StateFailed
		q.status.Err = err.Error()
	} else {
		q.status.State = StateDone
	}
	if limit > 0 {
		s.finishedQ = append(s.finishedQ, q)
		for len(s.finishedQ) > limit {
			v := s.finishedQ[0]
			s.finishedQ[0] = nil
			s.finishedQ = s.finishedQ[1:]
			delete(s.queries, v.id)
			victims = append(victims, v)
		}
	}
	s.finished++
	s.mu.Unlock()
	s.tenantMu.Lock()
	s.tenantLocked(q.tenant).finished++
	s.tenantMu.Unlock()
	for _, v := range victims {
		s.dropOutputs(v)
	}
	close(q.done)
}

// dropOutputs retires a query's private output arrays: pool frames are
// discarded without write-back and the on-disk stores are closed and
// deleted. The record's result summary stays; Output() for it then errors.
func (s *Server) dropOutputs(q *query) {
	s.mu.Lock()
	if q.outputsDropped {
		s.mu.Unlock()
		return
	}
	q.outputsDropped = true
	alias := q.alias
	s.mu.Unlock()
	for _, phys := range alias {
		s.pool.DiscardArray(phys)
		// Best effort: a failed Create may have registered nothing.
		_ = s.store.Drop(phys, true)
	}
}

// readFullArray assembles a stored array (under its physical name) into
// one matrix.
func readFullArray(m storage.Backend, arr *prog.Array, phys string) (*blas.Matrix, error) {
	full := blas.NewMatrix(arr.BlockRows*arr.GridRows, arr.BlockCols*arr.GridCols)
	for br := 0; br < arr.GridRows; br++ {
		for bc := 0; bc < arr.GridCols; bc++ {
			blk, err := m.ReadBlock(phys, int64(br), int64(bc))
			if err != nil {
				return nil, err
			}
			for r := 0; r < arr.BlockRows; r++ {
				for c := 0; c < arr.BlockCols; c++ {
					full.Set(br*arr.BlockRows+r, bc*arr.BlockCols+c, blk.At(r, c))
				}
			}
		}
	}
	return full, nil
}

// errExpired marks an issued query id whose record has retired.
var errExpired = errors.New("expired")

// lookup returns a remembered query's record. An id the server issued but
// retired yields an error wrapping errExpired; any other id is unknown.
func (s *Server) lookup(id string) (*query, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if q, ok := s.queries[id]; ok {
		return q, nil
	}
	if n, err := strconv.Atoi(strings.TrimPrefix(id, "q")); err == nil && n >= 1 && n <= s.nextID && id == "q"+strconv.Itoa(n) {
		return nil, fmt.Errorf("server: query %q %w (RetainOutputs policy)", id, errExpired)
	}
	return nil, fmt.Errorf("server: unknown query %q", id)
}

// failure returns a failed query's error, nil for any other state.
func (s *Server) failure(q *query) (err error) {
	s.mu.Lock()
	if q.status.State == StateFailed {
		err = fmt.Errorf("server: query %s failed: %s", q.id, q.status.Err)
	}
	s.mu.Unlock()
	return err
}

// Output assembles one persistent output array of a finished query.
func (s *Server) Output(id, array string) (*blas.Matrix, error) {
	q, err := s.lookup(id)
	if err != nil {
		return nil, err
	}
	<-q.done
	s.mu.Lock()
	phys, dropped := q.alias[array], q.outputsDropped
	s.mu.Unlock()
	switch arr := q.prog.Arrays[array]; {
	case dropped:
		return nil, fmt.Errorf("server: query %s outputs were retired", id)
	case phys == "" || arr.Transient:
		return nil, fmt.Errorf("server: query %s has no output array %q", id, array)
	default:
		return readFullArray(s.store, arr, phys)
	}
}

// Status snapshots one query.
func (s *Server) Status(id string) (QueryStatus, error) {
	q, err := s.lookup(id)
	if err != nil {
		return QueryStatus{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return q.statusCopy(), nil
}

func (q *query) statusCopy() QueryStatus {
	st := q.status
	if st.Result != nil {
		r := *st.Result
		st.Result = &r
	}
	st.Outputs = append([]OutputInfo(nil), q.status.Outputs...)
	return st
}

// Wait blocks until the query finishes and returns its final status. It
// stays beside WaitCtx because the benchmark of record's tests call it.
func (s *Server) Wait(id string) (QueryStatus, error) {
	return s.WaitCtx(context.Background(), id) //riotvet:allow ctxflow — compatibility wrapper; cancelable callers use WaitCtx
}

// WaitCtx blocks until the query finishes or ctx is canceled; on
// cancellation it returns ctx's error without waiting further. The HTTP
// /results?wait=1 path waits under the request context, so a client that
// went away stops holding the handler (and the materialized result)
// alive.
func (s *Server) WaitCtx(ctx context.Context, id string) (QueryStatus, error) {
	q, err := s.lookup(id)
	if err != nil {
		return QueryStatus{}, err
	}
	select {
	case <-q.done:
	case <-ctx.Done():
		return QueryStatus{}, ctx.Err()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return q.statusCopy(), nil
}

// rememberedLocked returns the remembered records in submission order.
func (s *Server) rememberedLocked() []*query {
	qs := make([]*query, 0, len(s.queries))
	for _, q := range s.queries {
		qs = append(qs, q)
	}
	sort.Slice(qs, func(i, j int) bool { return qs[i].seq < qs[j].seq })
	return qs
}

// List snapshots every remembered query — those still queued or running
// and the RetainOutputs most recently finished — in submission order.
func (s *Server) List() []QueryStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := []QueryStatus{}
	for _, q := range s.rememberedLocked() {
		out = append(out, q.statusCopy())
	}
	return out
}
