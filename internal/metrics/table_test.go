package metrics

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"graft/internal/dfs"
	"graft/internal/faults"
	"graft/internal/pregel"
)

// TestStatsAndRegistryTotals: the registry is a view of the job's
// Stats, so its rows are Stats.PerSuperstep and its totals are
// Stats.Totals(), on a plain run and after a checkpoint restart, whose
// re-executed supersteps count once in both.
func TestStatsAndRegistryTotals(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  pregel.Config
	}{
		{name: "plain", cfg: pregel.Config{NumWorkers: 3}},
		{name: "checkpoint restart", cfg: pregel.Config{NumWorkers: 3, CheckpointEvery: 2, CheckpointFS: dfs.NewMemFS(),
			FailureAt: faults.FailAt(3)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := NewRegistry(tc.name, "cc")
			tc.cfg.Listener = reg
			stats, err := pregel.NewJob(pathGraph(t, 48), ccCompute, tc.cfg).Run()
			if err != nil {
				t.Fatal(err)
			}
			if tc.cfg.FailureAt != nil && stats.Recoveries != 1 {
				t.Fatalf("%d recoveries, want 1", stats.Recoveries)
			}
			snap := reg.Snapshot()
			if !reflect.DeepEqual(snap.Supersteps, stats.PerSuperstep) || len(snap.Supersteps) != stats.Supersteps {
				t.Fatalf("registry has %d rows, stats %d rows over %d supersteps", len(snap.Supersteps), len(stats.PerSuperstep), stats.Supersteps)
			}
			if want := stats.Totals(); snap.Totals != want || stats.TotalMessages != want.MessagesSent {
				t.Errorf("registry totals %+v\n         want %+v (TotalMessages %d)", snap.Totals, want, stats.TotalMessages)
			}
			compute, barrier, capture := stats.PhaseTotals()
			if compute != snap.Totals.ComputeTime || barrier != snap.Totals.BarrierWait ||
				capture != snap.Totals.CaptureTime || stats.MaxComputeSkew() != snap.Totals.MaxComputeSkew ||
				stats.LocalMessageRatio() != snap.Totals.LocalMessageRatio() {
				t.Errorf("Stats' derived methods disagree with the registry's totals %+v", snap.Totals)
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
