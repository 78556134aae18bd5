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

// seedProfilerRegistry builds a finished job whose telemetry exercises
// every profiling widget of the metrics page: three supersteps with
// traffic matrices, superstep 0 the slowest, a traffic hotspot on the
// middle one, and a straggler anomaly.
func seedProfilerRegistry(jobID string) *metrics.Registry {
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
		if i == 0 {
			ss.ComputeTime = 6 * time.Millisecond
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
	return reg
}

// TestProfilerPageRendersTimelineHeatmapAndFeed: the metrics page
// holds what the profiler view showed — the timeline, one superstep's
// heatmap with a scrubber, its anomalies and the job's anomaly feed —
// both from a persisted job.metrics and from a live registry.
func TestProfilerPageRendersTimelineHeatmapAndFeed(t *testing.T) {
	reg := seedProfilerRegistry("prof")
	persisted := trace.NewStore(dfs.NewMemFS(), "traces")
	if err := metrics.WriteJobMetrics(persisted.FS, persisted.MetricsPath("prof"), reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	live := NewServer(trace.NewStore(dfs.NewMemFS(), "traces"))
	live.AttachMetricsSource(func(string) *metrics.Registry { return reg })

	for name, srv := range map[string]*Server{"persisted": NewServer(persisted), "live": live} {
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()

		code, body := get(t, ts, "/job/prof/metrics")
		if code != 200 {
			t.Fatalf("%s: GET /job/prof/metrics = %d\n%s", name, code, body)
		}
		for _, want := range []string{
			"Superstep timeline",            // timeline section
			"worker 1",                      // a timeline lane label
			"Workers at superstep 0",        // the default is the slowest superstep
			"Traffic heatmap",               // heatmap section
			"traffic-hotspot",               // anomaly feed row
			"critical",                      // severity column
			"Suggested action",              // action column
			"/job/prof/tabular?superstep=1", // feed links into the trace view
		} {
			if !strings.Contains(body, want) {
				t.Errorf("%s: metrics page missing %q", name, want)
			}
		}
		// All three supersteps send 100 messages each; the selected
		// superstep's heatmap must account for every one of its sends.
		if !strings.Contains(body, "100 messages in the matrix") {
			t.Errorf("%s: heatmap caption does not balance the matrix against MessagesSent:\n%s", name, body)
		}
		if _, body := get(t, ts, "/job/prof/metrics?superstep=9"); !strings.Contains(body, "Workers at superstep 0") {
			t.Errorf("%s: an unrecorded superstep does not fall back to the slowest", name)
		}

		// Scrub to superstep 1: hotspot matrix and its anomaly table.
		code, body = get(t, ts, "/job/prof/metrics?superstep=1")
		if code != 200 {
			t.Fatalf("%s: scrubbed metrics page = %d", name, code)
		}
		for _, want := range []string{
			"Workers at superstep 1",
			"Anomalies at superstep 1",
			"1 &#8594; 1: 45 messages", // the hot lane's heatmap tooltip
			`<a href="?superstep=0">&laquo; Previous superstep</a>`,
			`<a href="?superstep=2">Next superstep &raquo;</a>`,
			`<a href="/job/prof/tabular?superstep=1">Trace at this superstep</a>`,
		} {
			if !strings.Contains(body, want) {
				t.Errorf("%s: metrics page at superstep 1 missing %q", name, want)
			}
		}
	}
}

// TestProfilerPageWithoutMetrics: a job with no job.metrics gets the
// metrics page's no-metrics message, and the old profiler route is gone.
func TestProfilerPageWithoutMetrics(t *testing.T) {
	store := trace.NewStore(dfs.NewMemFS(), "traces")
	ts := httptest.NewServer(NewServer(store).Handler())
	defer ts.Close()
	code, body := get(t, ts, "/job/ghost/metrics")
	if code != 200 || !strings.Contains(body, "No metrics were recorded") {
		t.Errorf("missing-metrics page: %d\n%s", code, body)
	}
	if code, _ := get(t, ts, "/job/ghost/profiler"); code != 404 {
		t.Errorf("GET /job/ghost/profiler = %d, want 404", code)
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
