package gui

import (
	"net/http/httptest"
	"strings"
	"testing"

	"graft/internal/dfs"
	"graft/internal/metrics"
	"graft/internal/trace"
)

// TestMetricsDashboardShowsDFSRow: a job whose metrics carry DFS
// data-path counters renders the "DFS traffic" row; a job without them
// does not grow the row.
func TestMetricsDashboardShowsDFSRow(t *testing.T) {
	store := trace.NewStore(dfs.NewMemFS(), "traces")

	withDFS := seedMetrics("with-dfs")
	withDFS.DFS = &dfs.ClusterStats{
		BytesWritten: 4096, BytesRead: 2048, CorruptReads: 1, WriteRetries: 7,
	}
	if err := metrics.WriteJobMetrics(store.FS, store.MetricsPath("with-dfs"), withDFS); err != nil {
		t.Fatal(err)
	}
	if err := metrics.WriteJobMetrics(store.FS, store.MetricsPath("no-dfs"), seedMetrics("no-dfs")); err != nil {
		t.Fatal(err)
	}

	ts := httptest.NewServer(NewServer(store).Handler())
	defer ts.Close()

	code, body := get(t, ts, "/job/with-dfs/metrics")
	if code != 200 {
		t.Fatalf("GET /job/with-dfs/metrics = %d", code)
	}
	for _, want := range []string{"DFS traffic", "written=4096B", "corrupt-reads=1", "write-retries=7"} {
		if !strings.Contains(body, want) {
			t.Errorf("dashboard missing %q", want)
		}
	}

	code, body = get(t, ts, "/job/no-dfs/metrics")
	if code != 200 {
		t.Fatalf("GET /job/no-dfs/metrics = %d", code)
	}
	if strings.Contains(body, "DFS traffic") {
		t.Error("dashboard renders a DFS row for a job with no DFS counters")
	}
}
