package blockd_test

import (
	"io"
	"net/http/httptest"
	"strings"
	"testing"
)

// The -metrics-addr sidecar renders the process counters next to the
// server's own families.
func TestMetricsSidecarRendersProcess(t *testing.T) {
	srv := startServer(t, t.TempDir())
	ts := httptest.NewServer(srv.MetricsHandler())
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{
		`riotblockd_process_cpu_seconds_total{mode="user"} `,
		`riotblockd_process_cpu_seconds_total{mode="system"} `,
		"riotblockd_process_alloc_bytes_total ",
		"riotblockd_process_alloc_objects_total ",
		"riotblockd_process_gc_cycles_total ",
		"riotblockd_connections ",
	} {
		if !strings.Contains(string(body), "\n"+series) {
			t.Errorf("sidecar /metrics lacks %s", series)
		}
	}
}
