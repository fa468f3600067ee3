package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"riotshare/internal/prog"
)

func newHTTPServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(Config{
		Dir:      t.TempDir(),
		Seed:     testSeed,
		Programs: map[string]func() *prog.Program{"addmul-small": smallAddMul},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func TestHTTPSubmitStatusResultsStats(t *testing.T) {
	_, ts := newHTTPServer(t)

	body, _ := json.Marshal(Request{Program: "addmul-small", Tenant: "acme"})
	resp, err := http.Post(ts.URL+"/submit", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	var sub struct{ ID, State string }
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if sub.ID == "" {
		t.Fatal("no query id returned")
	}

	// Blocking results fetch.
	resp, err = http.Get(ts.URL + "/results?wait=1&id=" + sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("results status = %d", resp.StatusCode)
	}
	var st QueryStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.State != StateDone {
		t.Fatalf("state = %s, err %q", st.State, st.Err)
	}
	if st.Result == nil || st.Result.ReadReqs == 0 {
		t.Fatalf("result missing or empty: %+v", st.Result)
	}
	if len(st.Outputs) == 0 {
		t.Fatal("no output summaries")
	}

	// Status endpoint agrees.
	resp, err = http.Get(ts.URL + "/status?id=" + sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	var st2 QueryStatus
	if err := json.NewDecoder(resp.Body).Decode(&st2); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st2.State != StateDone {
		t.Fatalf("status endpoint state = %s", st2.State)
	}

	// Stats reflect the run.
	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats Stats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Finished != 1 || stats.Store.ReadReqs == 0 {
		t.Fatalf("stats = %+v", stats)
	}
	if acme := stats.Tenants["acme"]; acme.Submitted != 1 || acme.Finished != 1 || acme.PoolMisses == 0 {
		t.Fatalf("tenant stats = %+v, want acme's submission and pool activity", stats.Tenants)
	}

	// The per-tenant filter answers with just that tenant's slice, and 404s
	// an unknown tenant.
	resp, err = http.Get(ts.URL + "/stats?tenant=acme")
	if err != nil {
		t.Fatal(err)
	}
	var tstats TenantStats
	if err := json.NewDecoder(resp.Body).Decode(&tstats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if tstats.Finished != 1 {
		t.Fatalf("/stats?tenant=acme = %+v", tstats)
	}
	resp, err = http.Get(ts.URL + "/stats?tenant=nobody")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown tenant stats status = %d", resp.StatusCode)
	}

	// Queries listing.
	resp, err = http.Get(ts.URL + "/queries")
	if err != nil {
		t.Fatal(err)
	}
	var list []QueryStatus
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list) != 1 || list[0].ID != sub.ID {
		t.Fatalf("queries = %+v", list)
	}
}

func TestHTTPErrors(t *testing.T) {
	_, ts := newHTTPServer(t)

	// Unknown program → 400.
	body, _ := json.Marshal(Request{Program: "nope"})
	resp, err := http.Post(ts.URL+"/submit", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown program status = %d", resp.StatusCode)
	}

	// Unknown query → 404.
	resp, err = http.Get(ts.URL + "/status?id=q999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown query status = %d", resp.StatusCode)
	}

	// GET on /submit → 405.
	resp, err = http.Get(ts.URL + "/submit")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /submit status = %d", resp.StatusCode)
	}
}

// /repair re-mirrors a degraded shard of a replicated store over HTTP; on
// an unsharded server (and for malformed requests) it fails cleanly.
func TestHTTPRepair(t *testing.T) {
	// Unsharded server: nothing to repair.
	_, ts := newHTTPServer(t)
	resp, err := http.Post(ts.URL+"/repair?shard=0", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("repair on unsharded store status = %d, want 409", resp.StatusCode)
	}

	// Replicated server: repair succeeds, GET and garbage are rejected.
	s, err := New(Config{
		Dir:      t.TempDir(),
		Shards:   3,
		Replicas: 2,
		Seed:     testSeed,
		Programs: map[string]func() *prog.Program{"addmul-small": smallAddMul},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s.Handler())
	defer func() {
		ts2.Close()
		s.Close()
	}()
	runOne(t, s, "addmul-small")

	resp, err = http.Get(ts2.URL + "/repair?shard=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /repair status = %d, want 405", resp.StatusCode)
	}
	resp, err = http.Post(ts2.URL+"/repair?shard=x", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("POST /repair?shard=x status = %d, want 400", resp.StatusCode)
	}
	resp, err = http.Post(ts2.URL+"/repair?shard=1", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Repaired int `json:"repaired"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || rep.Repaired != 1 {
		t.Fatalf("POST /repair?shard=1 = %d %+v, want 200 repaired=1", resp.StatusCode, rep)
	}
}

// A submitted spec whose array name would resolve outside the store root is
// a 400, and nothing is created outside Config.Dir.
func TestHTTPSubmitRejectsEscapingArrayName(t *testing.T) {
	parent := t.TempDir()
	s, err := New(Config{Dir: filepath.Join(parent, "store"), Seed: testSeed})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		s.Close()
	}()

	ij := func(v string) ExprSpec { return ExprSpec{Terms: map[string]int64{v: 1}} }
	for _, name := range []string{"../x", "../../x", "a/b", ".."} {
		spec := &ProgramSpec{
			Name:   "escape",
			Params: []string{"n"},
			Bind:   map[string]int64{"n": 2},
			Arrays: []ArraySpec{
				{Name: name, BlockRows: 4, BlockCols: 4, GridRows: 2, GridCols: 1},
				{Name: "C", BlockRows: 4, BlockCols: 4, GridRows: 2, GridCols: 1},
			},
			Stmts: []StmtSpec{{
				Name:   "s1",
				Vars:   []string{"i"},
				Ranges: []RangeSpec{{Var: "i", Lo: ExprSpec{}, Hi: ij("n")}},
				Accesses: []AccessSpec{
					{Type: "read", Array: name, Row: ij("i"), Col: ExprSpec{}},
					{Type: "read", Array: name, Row: ij("i"), Col: ExprSpec{}},
					{Type: "write", Array: "C", Row: ij("i"), Col: ExprSpec{}},
				},
				Kernel: "add",
			}},
		}
		body, _ := json.Marshal(Request{Spec: spec})
		resp, err := http.Post(ts.URL+"/submit", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("submit with array %q: status = %d, want 400", name, resp.StatusCode)
		}
	}
	s.Close() // drain anything a wrongly admitted query is still doing
	entries, err := os.ReadDir(parent)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "store" {
		t.Errorf("files created outside Config.Dir: %v", entries)
	}
}

// A /submit body past maxSubmitBytes is refused with 413 before it is
// decoded in full, and the daemon keeps serving normal submissions.
func TestHTTPSubmitBodyTooLarge(t *testing.T) {
	s, ts := newHTTPServer(t)

	// A syntactically valid prefix, so only the size can fail it.
	big := append([]byte(`{"program":"addmul-small","tenant":"`), bytes.Repeat([]byte("x"), maxSubmitBytes)...)
	big = append(big, `"}`...)
	resp, err := http.Post(ts.URL+"/submit", "application/json", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized submit status = %d, want 413", resp.StatusCode)
	}
	if got := s.Stats().Submitted; got != 0 {
		t.Fatalf("submitted = %d after an oversized body, want 0", got)
	}

	body, _ := json.Marshal(Request{Program: "addmul-small"})
	resp, err = http.Post(ts.URL+"/submit", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var sub struct{ ID string }
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("normal submit after oversized one: status %d, err %v", resp.StatusCode, err)
	}
	if st, err := s.Wait(sub.ID); err != nil || st.State != StateDone {
		t.Fatalf("query %s: state %v, err %v (%s)", sub.ID, st.State, err, st.Err)
	}
}
