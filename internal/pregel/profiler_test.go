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
	for _, ss := range stats.PerSuperstep {
		for i := range ss.Anomalies {
			if hotspot == nil && ss.Anomalies[i].Kind == anomaly.KindTrafficHotspot {
				hotspot = &ss.Anomalies[i]
			}
		}
	}
	if hotspot == nil {
		t.Fatal("no traffic-hotspot event in any superstep")
	}
	if hotspot.Worker != 0 {
		t.Errorf("hotspot indicts worker %d, want partition 0 (vertex 0's home)", hotspot.Worker)
	}
}

// TestTrafficConsistentAcrossRecovery makes sure the invariant holds on
// the supersteps around a checkpoint restart, where the stores are
// rebuilt from the checkpoint outside the normal lane path.
func TestTrafficConsistentAcrossRecovery(t *testing.T) {
	g := pathGraph(t, 96)
	job := NewJob(g, ccCompute, Config{
		NumWorkers:      4,
		CheckpointEvery: 2,
		CheckpointFS:    dfs.NewMemFS(),
		FailureAt:       failOnce(2),
	})
	stats, err := job.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Recoveries != 1 {
		t.Fatalf("recovery did not run (recoveries=%d)", stats.Recoveries)
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
