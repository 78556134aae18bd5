package pregel

import (
	"testing"

	"graft/internal/anomaly"
	"graft/internal/dfs"
)

// TestTrafficMatrixSumsToMessagesSent is the profiler's core
// consistency invariant: at every superstep the lane-matrix snapshot
// must account for exactly the messages the superstep sent
// (pre-combine), and each row for exactly its worker's sends.
func TestTrafficMatrixSumsToMessagesSent(t *testing.T) {
	const workers = 4
	g := pathGraph(t, 96)
	l := &telemetryListener{}
	job := NewJob(g, ccCompute, Config{NumWorkers: workers, Listener: l})
	stats, err := job.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.PerSuperstep) == 0 {
		t.Fatal("no supersteps recorded")
	}
	for _, ss := range stats.PerSuperstep {
		if len(ss.Traffic) != workers {
			t.Fatalf("superstep %d: traffic matrix has %d rows, want %d", ss.Superstep, len(ss.Traffic), workers)
		}
		var sum int64
		for w, row := range ss.Traffic {
			if len(row) != workers {
				t.Fatalf("superstep %d: row %d has %d columns", ss.Superstep, w, len(row))
			}
			var rowSum int64
			for _, n := range row {
				rowSum += n
			}
			if rowSum != ss.Workers[w].MessagesSent {
				t.Errorf("superstep %d: row %d sums to %d, worker sent %d",
					ss.Superstep, w, rowSum, ss.Workers[w].MessagesSent)
			}
			sum += rowSum
		}
		if sum != ss.MessagesSent {
			t.Errorf("superstep %d: traffic sums to %d, MessagesSent = %d", ss.Superstep, sum, ss.MessagesSent)
		}
	}
	// The listener saw the same matrices the stats kept.
	for i, ss := range l.steps {
		if len(ss.Traffic) != workers {
			t.Fatalf("listener step %d missing traffic matrix", i)
		}
	}
}

// sinkCompute floods vertex 0: every other vertex sends it one message
// per superstep, producing a receiver-column hotspot the detector must
// flag and the heatmap must show.
var sinkCompute = ComputeFunc(func(ctx Context, v *Vertex, msgs []Value) error {
	if v.ID() != 0 {
		ctx.SendMessage(0, NewLong(int64(v.ID())))
	}
	return nil
})

func TestTrafficHotspotDetectedOnSinkGraph(t *testing.T) {
	const workers, n = 4, 200
	g := NewGraph()
	for i := 0; i < n; i++ {
		g.AddVertex(VertexID(i), NewLong(0))
	}
	job := NewJob(g, sinkCompute, Config{NumWorkers: workers, MaxSupersteps: 4})
	stats, err := job.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Vertex 0 hashes to partition 0, so its column must dominate the
	// heatmap in every superstep after the first.
	for _, ss := range stats.PerSuperstep[1:] {
		var col0, total int64
		for _, row := range ss.Traffic {
			for j, m := range row {
				total += m
				if j == 0 {
					col0 += m
				}
			}
		}
		if total == 0 || col0*2 < total {
			t.Errorf("superstep %d: column 0 carries %d of %d messages, expected a dominant share",
				ss.Superstep, col0, total)
		}
	}
	var hotspot *anomaly.Event
	for i := range stats.Anomalies {
		if stats.Anomalies[i].Kind == anomaly.KindTrafficHotspot {
			hotspot = &stats.Anomalies[i]
			break
		}
	}
	if hotspot == nil {
		t.Fatalf("no traffic-hotspot event in %v", stats.Anomalies)
	}
	if hotspot.Worker != 0 {
		t.Errorf("hotspot indicts worker %d, want partition 0 (vertex 0's home)", hotspot.Worker)
	}
}

func TestAnomalyWindowNegativeDisablesCapture(t *testing.T) {
	g := pathGraph(t, 64)
	job := NewJob(g, ccCompute, Config{NumWorkers: 4, AnomalyWindow: -1})
	stats, err := job.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Anomalies) != 0 {
		t.Errorf("anomalies emitted with detection disabled: %v", stats.Anomalies)
	}
	for _, ss := range stats.PerSuperstep {
		if ss.Traffic != nil || ss.Anomalies != nil {
			t.Errorf("superstep %d: traffic/anomalies captured with AnomalyWindow<0", ss.Superstep)
		}
		if len(ss.Workers) == 0 {
			t.Errorf("superstep %d: regular telemetry must stay on", ss.Superstep)
		}
	}
}

// TestTrafficConsistentAcrossRecovery makes sure the invariant holds on
// supersteps surrounding a confined log recovery, where inbox shards
// are rebuilt outside the normal lane path.
func TestTrafficConsistentAcrossRecovery(t *testing.T) {
	fs := dfs.NewMemFS()
	failed := false
	g := pathGraph(t, 96)
	job := NewJob(g, ccCompute, Config{
		NumWorkers:      4,
		CheckpointEvery: 2,
		CheckpointFS:    dfs.NewMemFS(),
		Recovery:        RecoveryLog,
		MsgLogFS:        fs,
		PartitionFailureAt: func(superstep int) []int {
			if superstep == 2 && !failed {
				failed = true
				return []int{1}
			}
			return nil
		},
	})
	stats, err := job.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !failed || stats.Recoveries != 1 {
		t.Fatalf("confined recovery did not run (recoveries=%d)", stats.Recoveries)
	}
	for _, ss := range stats.PerSuperstep {
		var sum int64
		for _, row := range ss.Traffic {
			for _, n := range row {
				sum += n
			}
		}
		if sum != ss.MessagesSent {
			t.Errorf("superstep %d: traffic sums to %d, MessagesSent = %d", ss.Superstep, sum, ss.MessagesSent)
		}
	}
}
