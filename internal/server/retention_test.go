package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"riotshare/internal/prog"
	"riotshare/internal/telemetry"
)

// RetainOutputs bounds what the server remembers of finished queries: once
// the FIFO slides past a query, its record, output stores and traces
// retire together, and its id answers expired (410 over HTTP) while an id
// never issued stays unknown (404). Newer queries keep everything.
func TestOutputRetention(t *testing.T) {
	s, err := New(Config{
		Dir:           t.TempDir(),
		Seed:          testSeed,
		RetainOutputs: 2,
		Programs:      map[string]func() *prog.Program{"addmul-small": smallAddMul},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	get := func(path string, v any) int {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if v != nil && resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
				t.Fatal(err)
			}
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}

	var ids []string
	for i := 0; i < 3; i++ {
		ids = append(ids, runSmall(t, s))
	}
	// The newest query is streamed once, so it carries a stream trace too.
	if code := get("/results/stream?id="+ids[2], nil); code != http.StatusOK {
		t.Fatalf("stream %s: HTTP %d", ids[2], code)
	}

	// The oldest retired: every lookup says expired, and its store is gone.
	old := ids[0]
	if _, err := s.Status(old); !errors.Is(err, errExpired) {
		t.Errorf("Status(%s) err = %v, want expired", old, err)
	}
	if _, err := s.Output(old, "E"); !errors.Is(err, errExpired) {
		t.Errorf("Output(%s) err = %v, want expired", old, err)
	}
	for _, path := range []string{"/status?id=", "/results?id=", "/results/stream?id=", "/trace?id="} {
		if code := get(path+old, nil); code != http.StatusGone {
			t.Errorf("GET %s%s = %d, want 410 for a retired id", path, old, code)
		}
		if code := get(path+"q9", nil); code != http.StatusNotFound {
			t.Errorf("GET %sq9 = %d, want 404 for an id never issued", path, code)
		}
	}
	if _, err := s.Store().ReadBlock(old+".E", 0, 0); err == nil {
		t.Errorf("retired store %s.E still readable through the manager", old)
	}

	// The remembered ones keep outputs and traces, in submission order.
	for _, id := range ids[1:] {
		if _, err := s.Output(id, "E"); err != nil {
			t.Errorf("remembered query %s: outputs must stay readable: %v", id, err)
		}
	}
	var listed []string
	for _, st := range s.List() {
		listed = append(listed, st.ID)
	}
	if !reflect.DeepEqual(listed, ids[1:]) {
		t.Errorf("List = %v, want %v", listed, ids[1:])
	}
	var listing struct {
		Traces []string `json:"traces"`
	}
	get("/trace", &listing)
	if want := []string{ids[1], ids[2], ids[2] + ":stream"}; !reflect.DeepEqual(listing.Traces, want) {
		t.Errorf("/trace listing = %v, want %v", listing.Traces, want)
	}
	for id, root := range map[string]string{ids[2]: "query", ids[2] + ":stream": "stream"} {
		var tr telemetry.Trace
		if code := get("/trace?id="+id, &tr); code != http.StatusOK || tr.QueryID != id || tr.Root == nil || tr.Root.Name != root {
			t.Errorf("/trace?id=%s = HTTP %d, %+v; want the %q span tree", id, code, tr, root)
		}
	}
}

// Lookups by id race retirement: /status, /trace and /results/stream read
// records while finishing queries push older ones out of the FIFO. Every
// answer must be one a live or retired id can get — never a 404 for an id
// the server issued, except a trace not recorded yet.
func TestRetirementRacesLookups(t *testing.T) {
	const n, retain = 40, 2
	s, err := New(Config{
		Dir: t.TempDir(), Seed: testSeed, MaxConcurrent: 2, RetainOutputs: retain,
		Programs: map[string]func() *prog.Program{"addmul-small": smallAddMul},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var issued atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, path := range []string{"/status?id=q%d", "/trace?id=q%d", "/trace?id=q%d:stream", "/results/stream?id=q%d"} {
		wg.Add(1)
		go func(path string) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := issued.Load()
				if k == 0 {
					runtime.Gosched()
					continue
				}
				url := fmt.Sprintf(path, k-int64(i)%k)
				resp, err := http.Get(ts.URL + url)
				if err != nil {
					t.Error(err)
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				switch code := resp.StatusCode; {
				case code == http.StatusOK, code == http.StatusGone:
				case code == http.StatusNotFound && strings.HasPrefix(path, "/trace"): // not recorded yet
				default:
					t.Errorf("GET %s = %d", url, code)
				}
			}
		}(path)
	}
	ids := make([]string, 0, n)
	for i := 0; i < n; i++ {
		id, err := s.Submit(Request{Program: "addmul-small"})
		if err != nil {
			t.Fatal(err)
		}
		issued.Store(int64(i + 1))
		ids = append(ids, id)
	}
	// Queries retire in finishing order, not submission order, so wait on
	// the finished count rather than on any one id.
	for s.Stats().Finished < n {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	expired := 0
	for _, id := range ids {
		if _, err := s.Status(id); errors.Is(err, errExpired) {
			expired++
		} else if err != nil {
			t.Errorf("Status(%s) err = %v", id, err)
		}
	}
	if remembered := len(s.List()); remembered != retain || expired != n-retain {
		t.Errorf("%d remembered and %d expired after %d finished, want %d and %d",
			remembered, expired, n, retain, n-retain)
	}
}

// A daemon must be able to run forever: once RetainOutputs queries have
// finished, each further finished query retires the oldest record — its
// status, outputs and traces together — so the live heap stays flat however
// many queries the server has served.
func TestFinishedQueriesKeepHeapFlat(t *testing.T) {
	const retain, warm, more = 64, 36, 500
	s, err := New(Config{
		Dir:           t.TempDir(),
		Seed:          testSeed,
		RetainOutputs: retain,
		Programs:      map[string]func() *prog.Program{"addmul-small": smallAddMul},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	run := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			id, err := s.Submit(Request{Program: "addmul-small"})
			if err != nil {
				t.Fatal(err)
			}
			st, err := s.Wait(id)
			if err != nil {
				t.Fatal(err)
			}
			if st.State != StateDone {
				t.Fatalf("query %s: %s (%s)", id, st.State, st.Err)
			}
		}
	}
	liveHeap := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	run(retain + warm)
	before := liveHeap()
	run(more)
	growth := liveHeap() - before
	t.Logf("live heap growth over %d more finished queries: %.2f MiB", more, float64(growth)/(1<<20))
	if growth > 1<<20 {
		t.Errorf("live heap grew %.2f MiB over %d finished queries past the RetainOutputs bound, want <= 1 MiB",
			float64(growth)/(1<<20), more)
	}
}
