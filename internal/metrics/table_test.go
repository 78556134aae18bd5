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
		"graft.anomalies", "graft.barrier_ns", "graft.bytes_logged", "graft.capture_ns", "graft.capture_overhead",
		"graft.compute_ns", "graft.dfs.bytes_read", "graft.dfs.bytes_written", "graft.dfs.corrupt_reads",
		"graft.dfs.degraded_writes", "graft.dfs.prefetches", "graft.dfs.write_retries", "graft.edge_cut",
		"graft.faults.backoff_ns", "graft.faults.corrupt_ckpt", "graft.faults.dropped", "graft.faults.fallbacks",
		"graft.faults.injected", "graft.faults.retries", "graft.flush_ns", "graft.internal_iterations", "graft.job_id",
		"graft.local_messages", "graft.local_ratio", "graft.max_capture_queue", "graft.max_compute_skew",
		"graft.max_message_skew", "graft.messages_combined", "graft.messages_logged", "graft.messages_received",
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

// chainOfClusters is `clusters` dense clusters of `per` vertices joined
// in a chain: hashing scatters each cluster over every worker, which the
// edge-cut rebalancer then undoes, and the chain keeps label
// propagation running long enough for it to.
func chainOfClusters(t *testing.T, clusters, per int) *pregel.Graph {
	t.Helper()
	g := pregel.NewGraph()
	for i := 0; i < clusters*per; i++ {
		g.AddVertex(pregel.VertexID(i), pregel.NewLong(0))
	}
	edge := func(a, b int) {
		if a != b && !g.Vertex(pregel.VertexID(a)).HasEdge(pregel.VertexID(b)) {
			if err := g.AddUndirectedEdge(pregel.VertexID(a), pregel.VertexID(b), nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	for c := 0; c < clusters; c++ {
		lo := c * per
		for i := lo + 1; i < lo+per; i++ {
			edge(i, i-1)
			edge(i, lo+(i-lo)/2)
			edge(i, lo+(i-lo)/3)
		}
		if c > 0 {
			edge(lo-1, lo)
		}
	}
	g.SortAllEdges()
	return g
}

// TestStatsAndRegistryTotals: Stats' derived methods and the registry
// run the same fold, so on a plain run and on one with migrations they
// agree exactly; after a checkpoint restart Stats has dropped the
// truncated rows and the registry has not, so they differ by exactly
// the re-executed supersteps.
func TestStatsAndRegistryTotals(t *testing.T) {
	crashed := false
	for _, tc := range []struct {
		name     string
		graph    *pregel.Graph
		cfg      pregel.Config
		rewound  bool
		migrates bool
	}{
		{name: "plain", graph: pathGraph(t, 48), cfg: pregel.Config{NumWorkers: 3}},
		{name: "migrations", graph: chainOfClusters(t, 24, 30), migrates: true,
			cfg: pregel.Config{NumWorkers: 4, RebalanceObjective: pregel.ObjectiveEdgeCut}},
		{name: "checkpoint restart", graph: pathGraph(t, 48), rewound: true,
			cfg: pregel.Config{NumWorkers: 3, CheckpointEvery: 2, CheckpointFS: dfs.NewMemFS(),
				FailureAt: func(superstep int) bool {
					fail := superstep == 3 && !crashed
					crashed = crashed || fail
					return fail
				}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := NewRegistry(tc.name, "cc")
			tc.cfg.Listener = reg
			stats, err := pregel.NewJob(tc.graph, ccCompute, tc.cfg).Run()
			if err != nil {
				t.Fatal(err)
			}
			snap := reg.Snapshot()
			if tc.migrates && snap.Totals.Rebalances == 0 {
				t.Fatal("the rebalancer never migrated")
			}
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
				if compute.Nanoseconds() != snap.Totals.ComputeNanos || barrier.Nanoseconds() != snap.Totals.BarrierNanos ||
					capture.Nanoseconds() != snap.Totals.CaptureNanos || stats.MaxComputeSkew() != snap.Totals.MaxComputeSkew ||
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
	reg.JobFinished(&pregel.Stats{Partitioner: pregel.PartitionLocality, PartitionSizes: []int64{60, 40}, EdgeCut: 7,
		Recoveries: 1, Faults: pregel.FaultStats{Retries: 2}}, nil)
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
