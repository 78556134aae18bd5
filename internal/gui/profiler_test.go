package gui

import (
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"graft/internal/anomaly"
	"graft/internal/dfs"
	"graft/internal/metrics"
	"graft/internal/pregel"
	"graft/internal/trace"
)

// seedProfilerMetrics builds a finished job whose telemetry exercises
// every profiler widget: three supersteps with traffic matrices, a
// traffic hotspot on the middle one, and a straggler anomaly.
func seedProfilerMetrics(jobID string) metrics.JobMetrics {
	reg := metrics.NewRegistry(jobID, "cc")
	stats := &pregel.Stats{}
	reg.JobStarted(pregel.JobInfo{NumWorkers: 2, NumVertices: 50, NumEdges: 120, Stats: stats})
	for i := 0; i < 3; i++ {
		ss := pregel.SuperstepStats{
			Superstep:   i,
			ActiveAtEnd: int64(50 - i*10),
			Counters: pregel.Counters{
				MessagesSent:      100,
				MessagesReceived:  100,
				VerticesProcessed: 50,
				ComputeTime:       4 * time.Millisecond,
				BarrierWait:       time.Millisecond,
				CaptureTime:       200 * time.Microsecond,
			},
			ComputeSkew: 1.1,
			MessageSkew: 1.0,
			Straggler:   -1,
			Workers: []pregel.WorkerStepStats{
				{Worker: 0, Counters: pregel.Counters{VerticesProcessed: 25, MessagesSent: 50, ComputeTime: 2 * time.Millisecond, BarrierWait: 2 * time.Millisecond}},
				{Worker: 1, Counters: pregel.Counters{VerticesProcessed: 25, MessagesSent: 50, ComputeTime: 4 * time.Millisecond, CaptureTime: 100 * time.Microsecond}},
			},
			Traffic: [][]int64{{25, 25}, {25, 25}},
		}
		if i == 1 {
			ss.Traffic = [][]int64{{5, 45}, {5, 45}}
			ss.Anomalies = []anomaly.Event{{
				Kind: anomaly.KindTrafficHotspot, Severity: anomaly.SevCritical,
				Superstep: 1, Worker: 1, Peer: -1,
				Value: 0.9, Threshold: 0.5, Window: 1,
				Detail: "partition 1 received 90 of 100 messages",
				Action: "consider repartitioning hot receivers",
			}}
		}
		stats.PerSuperstep = append(stats.PerSuperstep, ss)
		reg.SuperstepFinished(i, ss)
	}
	stats.Supersteps, stats.Runtime = 3, 20*time.Millisecond
	reg.JobFinished(stats, nil)
	return reg.Snapshot()
}

func TestProfilerPageRendersTimelineHeatmapAndFeed(t *testing.T) {
	store := trace.NewStore(dfs.NewMemFS(), "traces")
	if err := metrics.WriteJobMetrics(store.FS, store.MetricsPath("prof"), seedProfilerMetrics("prof")); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(store).Handler())
	defer ts.Close()

	code, body := get(t, ts, "/job/prof/profiler")
	if code != 200 {
		t.Fatalf("GET /job/prof/profiler = %d\n%s", code, body)
	}
	for _, want := range []string{
		"Superstep timeline",            // timeline section
		"worker 1",                      // a timeline lane label
		"Traffic heatmap",               // heatmap section
		"traffic-hotspot",               // anomaly feed row
		"critical",                      // severity column
		"Suggested action",              // action column
		"/job/prof/tabular?superstep=1", // feed links into the trace view
	} {
		if !strings.Contains(body, want) {
			t.Errorf("profiler page missing %q", want)
		}
	}
	// All three supersteps send 100 messages each; the default heatmap
	// selection must account for every one of its superstep's sends.
	if !strings.Contains(body, "100 messages in the matrix") {
		t.Errorf("heatmap caption does not balance the matrix against MessagesSent:\n%s", body)
	}

	// Scrub to superstep 1: hotspot matrix and its anomaly table.
	code, body = get(t, ts, "/job/prof/profiler?superstep=1")
	if code != 200 {
		t.Fatalf("scrubbed profiler = %d", code)
	}
	if !strings.Contains(body, "Anomalies at superstep 1") {
		t.Errorf("selected-superstep anomaly table missing")
	}
	if !strings.Contains(body, "1 &#8594; 1: 45 messages") {
		t.Errorf("heatmap tooltip for the hot lane missing")
	}
	if !strings.Contains(body, `href="?superstep=0"`) || !strings.Contains(body, `href="?superstep=2"`) {
		t.Errorf("scrubber prev/next links missing")
	}
}

func TestProfilerPageWithoutMetrics(t *testing.T) {
	store := trace.NewStore(dfs.NewMemFS(), "traces")
	ts := httptest.NewServer(NewServer(store).Handler())
	defer ts.Close()
	code, body := get(t, ts, "/job/ghost/profiler")
	if code != 200 || !strings.Contains(body, "nothing to\nprofile") {
		t.Errorf("missing-metrics profiler page: %d\n%s", code, body)
	}
}

func TestTimelineAndHeatmapSVG(t *testing.T) {
	if s := string(timelineSVG(nil, 0, -1)); !strings.Contains(s, "No superstep telemetry") {
		t.Errorf("empty timeline = %q", s)
	}
	if s := string(heatmapSVG(nil)); !strings.Contains(s, "No traffic matrix") {
		t.Errorf("empty heatmap = %q", s)
	}
	hm := string(heatmapSVG([][]int64{{0, 9}, {3, 1}}))
	if !strings.Contains(hm, "0 &#8594; 1: 9 messages") || !strings.Contains(hm, "</svg>") {
		t.Errorf("heatmap lacks tooltip cells: %q", hm)
	}
}
