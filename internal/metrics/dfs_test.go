package metrics

import (
	"encoding/json"
	"net/http/httptest"
	"testing"

	"graft/internal/dfs"
	"graft/internal/pregel"
)

// TestSnapshotFoldsDFSSources: registered clusters' data-path counters
// appear in the snapshot, folded across sources, and track live I/O.
func TestSnapshotFoldsDFSSources(t *testing.T) {
	reg := NewRegistry("job-dfs", "cc")
	if snap := reg.Snapshot(); snap.DFS != nil {
		t.Fatal("snapshot reports DFS counters with no source registered")
	}
	traces := dfs.NewCluster(3, 2, 32)
	ckpts := dfs.NewCluster(2, 2, 32)
	reg.AddDFSSource(traces)
	reg.AddDFSSource(ckpts)
	reg.AddDFSSource(nil) // ignored, not a panic

	body := make([]byte, 96)
	if err := dfs.WriteFile(traces, "t/seg-0", body); err != nil {
		t.Fatal(err)
	}
	if err := dfs.WriteFile(ckpts, "c/ckpt-0", body); err != nil {
		t.Fatal(err)
	}
	if _, err := dfs.ReadFile(traces, "t/seg-0"); err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	if snap.DFS == nil {
		t.Fatal("snapshot has no DFS counters after registration")
	}
	// 96 bytes × replication 2 on each cluster.
	if want := int64(96 * 2 * 2); snap.DFS.BytesWritten != want {
		t.Errorf("BytesWritten = %d, want %d (folded across both clusters)", snap.DFS.BytesWritten, want)
	}
	if snap.DFS.BytesRead != 96 {
		t.Errorf("BytesRead = %d, want 96", snap.DFS.BytesRead)
	}

	// The snapshot is a copy: counters keep moving, old snapshots don't.
	if _, err := dfs.ReadFile(traces, "t/seg-0"); err != nil {
		t.Fatal(err)
	}
	if again := reg.Snapshot(); again.DFS.BytesRead <= snap.DFS.BytesRead {
		t.Errorf("live counters did not advance: %d then %d", snap.DFS.BytesRead, again.DFS.BytesRead)
	}
}

// TestDebugVarsExportsDFS: /debug/vars grows graft.dfs.* keys when a
// DFS source is registered, and omits them otherwise.
func TestDebugVarsExportsDFS(t *testing.T) {
	reg := NewRegistry("job-dfs-vars", "cc")
	reg.JobStarted(pregel.JobInfo{NumWorkers: 2})
	c := dfs.NewCluster(2, 2, 32)
	reg.AddDFSSource(c)
	if err := dfs.WriteFile(c, "f", make([]byte, 64)); err != nil {
		t.Fatal(err)
	}

	ts := httptest.NewServer(NewMux(reg, MuxOptions{}))
	defer ts.Close()
	code, body := getBody(t, ts, "/debug/vars")
	if code != 200 {
		t.Fatalf("GET /debug/vars = %d", code)
	}
	var vars map[string]any
	if err := json.Unmarshal(body, &vars); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"graft.dfs.bytes_written", "graft.dfs.bytes_read", "graft.dfs.corrupt_reads", "graft.dfs.write_retries", "graft.dfs.degraded_writes",
	} {
		if _, ok := vars[key]; !ok {
			t.Errorf("/debug/vars missing %q", key)
		}
	}
	if got, ok := vars["graft.dfs.bytes_written"].(float64); !ok || int64(got) != 128 {
		t.Errorf("graft.dfs.bytes_written = %v, want 128", vars["graft.dfs.bytes_written"])
	}

	// No source registered → no graft.dfs.* keys.
	bare := httptest.NewServer(NewMux(seededRegistry(), MuxOptions{}))
	defer bare.Close()
	_, body = getBody(t, bare, "/debug/vars")
	var bareVars map[string]any
	if err := json.Unmarshal(body, &bareVars); err != nil {
		t.Fatal(err)
	}
	if _, ok := bareVars["graft.dfs.bytes_written"]; ok {
		t.Error("/debug/vars exports graft.dfs.* with no DFS source registered")
	}
}

// TestReadJobMetricsRefoldsTotals reads a job.metrics written before the
// job totals took the per-superstep key names: its totals are folded
// again from the superstep rows, whose keys did not change.
func TestReadJobMetricsRefoldsTotals(t *testing.T) {
	fs := dfs.NewMemFS()
	old := `{"job_id":"old","supersteps":[{"superstep":0,"sent":5,"vertices":3,"compute_ns":40},` +
		`{"superstep":1,"sent":2,"vertices":3,"compute_ns":60,"compute_skew":1.5}],` +
		`"totals":{"messages_sent":7,"vertices_processed":6,"compute_ns":100,"max_compute_skew":1.5},"runtime_ns":900}`
	if err := dfs.WriteFile(fs, "job.metrics", []byte(old)); err != nil {
		t.Fatal(err)
	}
	jm, err := ReadJobMetrics(fs, "job.metrics")
	if err != nil {
		t.Fatal(err)
	}
	want := pregel.Totals{Counters: pregel.Counters{MessagesSent: 7, VerticesProcessed: 6, ComputeTime: 100}, MaxComputeSkew: 1.5}
	if jm.Totals != want || jm.Runtime != 900 {
		t.Errorf("read totals %+v runtime %v, want %+v and 900ns", jm.Totals, jm.Runtime, want)
	}
}
