package gui

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"graft/internal/dfs"
	"graft/internal/metrics"
	"graft/internal/pregel"
	"graft/internal/trace"
)

// seedMetrics builds a finished job's metrics with enough telemetry to
// exercise the dashboard: two supersteps, a flagged straggler, workers.
func seedMetrics(jobID string) metrics.JobMetrics {
	reg := metrics.NewRegistry(jobID, "cc")
	reg.JobStarted(pregel.JobInfo{NumWorkers: 2, NumVertices: 50, NumEdges: 120})
	for i := 0; i < 2; i++ {
		reg.SuperstepFinished(i, pregel.SuperstepStats{
			Superstep:         i,
			ActiveAtEnd:       int64(50 - i*25),
			MessagesSent:      120,
			MessagesReceived:  120,
			VerticesProcessed: 50,
			ComputeTime:       4 * time.Millisecond,
			BarrierWait:       time.Millisecond,
			CaptureTime:       200 * time.Microsecond,
			ComputeSkew:       1.8, // above the 1.5 straggler threshold
			MessageSkew:       1.1,
			Straggler:         1,
			Workers: []pregel.WorkerStepStats{
				{Worker: 0, VerticesProcessed: 25, MessagesSent: 60, ComputeTime: 2 * time.Millisecond, BarrierWait: 2 * time.Millisecond},
				{Worker: 1, VerticesProcessed: 25, MessagesSent: 60, ComputeTime: 4 * time.Millisecond},
			},
		})
	}
	reg.JobFinished(&pregel.Stats{Supersteps: 2, Runtime: 20 * time.Millisecond}, nil)
	return reg.Snapshot()
}

func TestMetricsDashboardRendersPersistedJob(t *testing.T) {
	store := trace.NewStore(dfs.NewMemFS(), "traces")
	if err := metrics.WriteJobMetrics(store.FS, store.MetricsPath("demo"), seedMetrics("demo")); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(store).Handler())
	defer ts.Close()

	code, body := get(t, ts, "/job/demo/metrics")
	if code != 200 {
		t.Fatalf("GET /job/demo/metrics = %d\n%s", code, body)
	}
	for _, want := range []string{
		"Supersteps",           // per-superstep table
		"<svg",                 // sparklines
		"Workers at superstep", // per-worker drill-down
		"straggler",            // flagged straggler marker
		"Compute skew",         // skew column
	} {
		if !strings.Contains(body, want) {
			t.Errorf("dashboard missing %q", want)
		}
	}

	// Drill into a specific superstep.
	code, body = get(t, ts, "/job/demo/metrics?superstep=0")
	if code != 200 || !strings.Contains(body, "Workers at superstep 0") {
		t.Errorf("superstep drill-down failed: %d", code)
	}
}

func TestMetricsDashboardWithoutMetricsFile(t *testing.T) {
	store := trace.NewStore(dfs.NewMemFS(), "traces")
	ts := httptest.NewServer(NewServer(store).Handler())
	defer ts.Close()
	code, body := get(t, ts, "/job/ghost/metrics")
	if code != 200 || !strings.Contains(body, "No metrics were recorded") {
		t.Errorf("missing-metrics page: %d\n%s", code, body)
	}
}

// TestAttachMetricsMountsLiveEndpoints: with a metrics source attached,
// a running job's per-job endpoints serve from its live registry before
// any job.metrics file exists.
func TestAttachMetricsMountsLiveEndpoints(t *testing.T) {
	store := trace.NewStore(dfs.NewMemFS(), "traces")
	srv := NewServer(store)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Without a source (and no persisted file) there is nothing to serve.
	if code, _ := get(t, ts, "/job/live-job/metrics.json"); code != 404 {
		t.Errorf("GET metrics.json without a source = %d, want 404", code)
	}

	reg := metrics.NewRegistry("live-job", "cc")
	reg.JobStarted(pregel.JobInfo{NumWorkers: 2})
	srv.AttachMetricsSource(func(jobID string) *metrics.Registry {
		if jobID == "live-job" {
			return reg
		}
		return nil
	})

	code, body := get(t, ts, "/job/live-job/metrics.json")
	if code != 200 {
		t.Fatalf("GET metrics.json = %d", code)
	}
	var jm metrics.JobMetrics
	if err := json.Unmarshal([]byte(body), &jm); err != nil || jm.JobID != "live-job" {
		t.Errorf("live metrics.json = %q err=%v", body, err)
	}
	code, body = get(t, ts, "/job/live-job/metrics")
	if code != 200 || !strings.Contains(body, "running") {
		t.Errorf("live dashboard = %d\n%s", code, body)
	}
	if code, _ := get(t, ts, "/job/other/metrics.json"); code != 404 {
		t.Errorf("GET metrics.json of a job the source does not know = %d, want 404", code)
	}
}

func TestSparklineSVG(t *testing.T) {
	if s := string(sparklineSVG(nil, 100, 30, "#000")); !strings.Contains(s, "no data") {
		t.Errorf("empty sparkline = %q", s)
	}
	s := string(sparklineSVG([]float64{1, 3, 2}, 100, 30, "#246"))
	if !strings.Contains(s, "<polyline") || !strings.Contains(s, "</svg>") {
		t.Errorf("sparkline lacks polyline: %q", s)
	}
	if one := string(sparklineSVG([]float64{5}, 100, 30, "#246")); !strings.Contains(one, "<circle") {
		t.Errorf("single-point sparkline = %q", one)
	}
}

// TestOneRowReachesEverySurface is the "one line per counter" claim as
// an assertion: a throw-away row appended to the metric table shows on
// /debug/vars, the dashboard and the run summary with no other edit.
func TestOneRowReachesEverySurface(t *testing.T) {
	saved := metrics.Table
	defer func() { metrics.Table = saved }()
	metrics.Table = append(saved[:len(saved):len(saved)],
		metrics.Metric{Key: "scratch_vertices", Label: "Scratch vertices", Line: "scratch", Job: "NumVertices", Step: "ActiveAtEnd"})

	jm := seedMetrics("demo")
	store := trace.NewStore(dfs.NewMemFS(), "traces")
	if err := metrics.WriteJobMetrics(store.FS, store.MetricsPath("demo"), jm); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(store).Handler())
	defer ts.Close()
	if _, body := get(t, ts, "/job/demo/metrics"); !strings.Contains(body, "<th>Scratch vertices</th><td>50</td>") ||
		!strings.Contains(body, "<th>Scratch vertices</th><th>Migrated</th>") {
		t.Errorf("dashboard lacks the row's summary cell or its per-superstep column:\n%s", body)
	}

	if summary := fmt.Sprint(metrics.Sections(&jm)); !strings.Contains(summary, "scratch: scratch-vertices=50") {
		t.Errorf("run summary lacks the row:\n%s", summary)
	}

	reg := metrics.NewRegistry("demo", "cc")
	reg.JobStarted(pregel.JobInfo{NumVertices: 50})
	vs := httptest.NewServer(metrics.NewMux(reg, metrics.MuxOptions{}))
	defer vs.Close()
	if _, body := get(t, vs, "/debug/vars"); !strings.Contains(body, `"graft.scratch_vertices": 50`) {
		t.Errorf("/debug/vars lacks the row:\n%s", body)
	}
}
