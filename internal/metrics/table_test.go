package metrics

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"reflect"
	"sort"
	"testing"

	"graft/internal/dfs"
	"graft/internal/faults"
	"graft/internal/pregel"
)

type stubDFS struct{}

func (stubDFS) Stats() dfs.ClusterStats { return dfs.ClusterStats{BytesWritten: 1} }

// TestDebugVarsKeySet pins the exact /debug/vars key set — the one the
// hand-written map served before the table replaced it.
func TestDebugVarsKeySet(t *testing.T) {
	reg := seededRegistry()
	reg.AddDFSSource(stubDFS{})
	ts := httptest.NewServer(NewMux(reg, MuxOptions{}))
	defer ts.Close()
	_, body := getBody(t, ts, "/debug/vars")
	var vars map[string]any
	if err := json.Unmarshal(body, &vars); err != nil {
		t.Fatal(err)
	}
	var got []string
	for k := range vars {
		got = append(got, k)
	}
	sort.Strings(got)
	want := []string{
		"graft.anomalies", "graft.barrier_ns", "graft.capture_ns", "graft.capture_overhead",
		"graft.compute_ns", "graft.dfs.bytes_read", "graft.dfs.bytes_written", "graft.dfs.corrupt_reads",
		"graft.dfs.degraded_writes", "graft.dfs.write_retries", "graft.edge_cut",
		"graft.faults.backoff_ns", "graft.faults.corrupt_ckpt", "graft.faults.dropped",
		"graft.faults.injected", "graft.faults.retries", "graft.flush_ns", "graft.internal_iterations", "graft.job_id",
		"graft.local_messages", "graft.local_ratio", "graft.max_compute_skew",
		"graft.max_message_skew", "graft.messages_combined", "graft.messages_received",
		"graft.messages_sent", "graft.num_workers", "graft.partitioner", "graft.recoveries", "graft.running",
		"graft.subgraphs_computed", "graft.supersteps", "graft.traffic_messages", "graft.vertices_processed",
		"runtime.goroutines", "runtime.heap_alloc", "runtime.num_gc",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("/debug/vars keys:\n got %q\nwant %q", got, want)
	}
	// Values keep their JSON types: durations are integer nanoseconds.
	if vars["graft.compute_ns"] != 4e6 || vars["graft.max_compute_skew"] != 1.2 || vars["graft.running"] != true {
		t.Errorf("compute_ns=%v max_compute_skew=%v running=%v", vars["graft.compute_ns"], vars["graft.max_compute_skew"], vars["graft.running"])
	}
}

// TestStatsAndRegistryTotals: Stats' derived methods and the registry
// run the same fold, so on a plain run they agree exactly; after a checkpoint restart Stats has dropped the
// truncated rows and the registry has not, so they differ by exactly
// the re-executed supersteps.
func TestStatsAndRegistryTotals(t *testing.T) {
	for _, tc := range []struct {
		name    string
		graph   *pregel.Graph
		cfg     pregel.Config
		rewound bool
	}{
		{name: "plain", graph: pathGraph(t, 48), cfg: pregel.Config{NumWorkers: 3}},
		{name: "checkpoint restart", graph: pathGraph(t, 48), rewound: true,
			cfg: pregel.Config{NumWorkers: 3, CheckpointEvery: 2, CheckpointFS: dfs.NewMemFS(),
				FailureAt: faults.FailAt(3)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := NewRegistry(tc.name, "cc")
			tc.cfg.Listener = reg
			stats, err := pregel.NewJob(tc.graph, ccCompute, tc.cfg).Run()
			if err != nil {
				t.Fatal(err)
			}
			snap := reg.Snapshot()
			// Timings aside, a re-executed superstep repeats its first run.
			want := stats.Totals()
			if tc.rewound {
				seen := map[int]bool{}
				var again int
				for _, ss := range snap.Supersteps {
					if seen[ss.Superstep] {
						again++
					}
					seen[ss.Superstep] = true
				}
				if again != 2 || len(snap.Supersteps) != len(stats.PerSuperstep)+again {
					t.Fatalf("registry saw %d supersteps (%d twice), stats kept %d; want supersteps 2 and 3 twice",
						len(snap.Supersteps), again, len(stats.PerSuperstep))
				}
				want = pregel.Totals{}
				for _, ss := range snap.Supersteps {
					want.Add(ss)
				}
				if st := stats.Totals(); want.MessagesSent <= st.MessagesSent || want.VerticesProcessed <= st.VerticesProcessed {
					t.Errorf("registry totals %+v do not exceed stats totals %+v by the re-executed supersteps", want, st)
				}
			}
			if snap.Totals != want {
				t.Errorf("registry totals %+v\n         want %+v", snap.Totals, want)
			}
			if !tc.rewound {
				compute, barrier, capture := stats.PhaseTotals()
				if compute != snap.Totals.ComputeTime || barrier != snap.Totals.BarrierWait ||
					capture != snap.Totals.CaptureTime || stats.MaxComputeSkew() != snap.Totals.MaxComputeSkew ||
					stats.LocalMessageRatio() != snap.Totals.LocalMessageRatio() {
					t.Errorf("Stats' derived methods disagree with the registry's totals %+v", snap.Totals)
				}
			}
		})
	}
}

// TestSummaryLines pins the words `graft run` and `graft show` share.
func TestSummaryLines(t *testing.T) {
	reg := seededRegistry()
	reg.JobFinished(&pregel.Stats{Partitioner: pregel.PartitionLocality, JobEnd: pregel.JobEnd{PartitionSizes: []int64{60, 40}, EdgeCut: 7,
		Recoveries: 1, Faults: pregel.FaultStats{Retries: 2}}}, nil)
	snap := reg.Snapshot()
	var b bytes.Buffer
	for _, s := range Sections(&snap) {
		fmt.Fprintln(&b, s)
	}
	for _, want := range []string{
		"phases: compute=4ms barrier=2ms capture=200µs capture-overhead=5.0% max-compute-skew=1.20\n",
		"resilience: recoveries=1 injected=0 retries=2 ",
		"placement: partitioner=locality vertices-per-worker=[60 40] edge-cut=7\n",
	} {
		if !bytes.Contains(b.Bytes(), []byte(want)) {
			t.Errorf("summary lacks %q:\n%s", want, b.String())
		}
	}
	if bytes.Contains(b.Bytes(), []byte("subgraph mode")) {
		t.Errorf("a vertex-mode job has a subgraph-mode line:\n%s", b.String())
	}
}
