package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"testing"
	"time"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestDeclaration checks BENCHMARK.json against the limits of the
// benchmark contract and against the matrix this binary runs.
func TestDeclaration(t *testing.T) {
	decl, err := loadDeclaration()
	if err != nil {
		t.Fatal(err)
	}
	var declared, ours []string
	for _, w := range decl.Workloads {
		declared = append(declared, w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if !slices.Equal(declared, ours) {
		t.Errorf("BENCHMARK.json workloads %v, binary runs %v", declared, ours)
	}
	if n := len(decl.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(decl.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	if decl.RunSeconds < 1 || decl.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", decl.RunSeconds)
	}
	seen := map[string]bool{}
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	hasSetup := false
	for _, m := range slices.Concat(decl.EndToEnd, decl.PerLayer) {
		if !nameRE.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("metric name %q is malformed or repeated", m.Name)
		}
		seen[m.Name] = true
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better = %q", m.Name, m.Better)
		}
	}
	for _, m := range decl.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %g", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range decl.PerLayer {
		if m.Bound != 0 {
			t.Errorf("per-layer metric %s has a bound", m.Name)
		}
	}
}

// checkMetrics requires exactly the declared metrics, each once (a map
// cannot hold twice), finite and in the declared unit.
func checkMetrics(t *testing.T, got map[string]metric, want []declaredMetric, neverZero bool) {
	t.Helper()
	for _, m := range want {
		v, ok := got[m.Name]
		switch {
		case !ok:
			t.Errorf("metric %s not emitted", m.Name)
		case v.Unit != m.Unit:
			t.Errorf("metric %s in %q, declared in %q", m.Name, v.Unit, m.Unit)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			t.Errorf("metric %s = %v", m.Name, v.Value)
		case neverZero && v.Value == 0:
			t.Errorf("metric %s is zero", m.Name)
		}
	}
	if len(got) != len(want) {
		for name := range got {
			if !slices.ContainsFunc(want, func(m declaredMetric) bool { return m.Name == name }) {
				t.Errorf("metric %s emitted but not declared", name)
			}
		}
	}
}

// TestTinyMatrix runs every workload at -size tiny, untraced and
// traced, in this process: the pipeline and its oracles pass, the
// emitted metrics are the declared ones, and the spans nest.
func TestTinyMatrix(t *testing.T) {
	decl, err := loadDeclaration()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			opt := childOptions{workload: w, size: sizes["tiny"], seed: 42, setups: 1, spansDir: t.TempDir()}
			res, detail, err := runChild(opt)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("untraced: correct=%v failed=%d of %d: %v", res.Correct, res.Failed, res.Attempted, detail.Failures)
			}
			checkMetrics(t, res.Metrics, decl.EndToEnd, true)
			if detail.Reps < minReps || len(detail.Samples["job_s"]) != detail.Reps {
				t.Errorf("%d reps, %d samples", detail.Reps, len(detail.Samples["job_s"]))
			}

			opt.traced = true
			res, detail, err = runChild(opt)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Errorf("traced: correct=%v failed=%d of %d: %v", res.Correct, res.Failed, res.Attempted, detail.Failures)
			}
			checkMetrics(t, res.Metrics, decl.PerLayer, false)
			if cov := res.Metrics["bench.span_coverage_pct"].Value; cov < 98 || cov > 100.0001 {
				t.Errorf("top-level spans cover %.2f%% of the pass", cov)
			}
			debugged := w.debug != nil
			if wrote := res.Metrics["dfs.write_bytes"].Value > 0; wrote != debugged {
				t.Errorf("dfs.write_bytes > 0 is %v on a workload with debug=%v", wrote, debugged)
			}
			if read := res.Metrics["dfs.read_bytes"].Value > 0; read != w.readback {
				t.Errorf("dfs.read_bytes > 0 is %v on a workload with readback=%v", read, w.readback)
			}
			checkSpans(t, filepath.Join(opt.spansDir, "spans-"+w.name+".json"))
		})
	}
}

// checkSpans reads the Chrome trace back: every span but the root has
// a parent that encloses it, and no span's children cover more than
// the span itself.
func checkSpans(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []struct {
			Name    string
			Ts, Dur float64
			Args    struct{ ID, Parent int }
		}
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	us := func(f float64) time.Duration { return time.Duration(f * float64(time.Microsecond)) }
	var spans []span
	byID := map[int]span{}
	for _, e := range file.TraceEvents {
		if !nameRE.MatchString(e.Name) {
			t.Errorf("span name %q", e.Name)
		}
		s := span{ID: e.Args.ID, Parent: e.Args.Parent, Name: e.Name, Start: us(e.Ts), End: us(e.Ts + e.Dur)}
		spans = append(spans, s)
		byID[s.ID] = s
	}
	if len(spans) < 10 {
		t.Fatalf("only %d spans", len(spans))
	}
	const slack = time.Microsecond // the file rounds to the microsecond
	roots := 0
	for _, s := range spans {
		if s.Parent == noSpan {
			roots++
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			t.Errorf("span %d (%s) has unknown parent %d", s.ID, s.Name, s.Parent)
		} else if s.Start < p.Start-slack || s.End > p.End+slack {
			t.Errorf("span %d (%s) [%v, %v] leaves its parent %s [%v, %v]", s.ID, s.Name, s.Start, s.End, p.Name, p.Start, p.End)
		}
	}
	if roots != 1 {
		t.Errorf("%d root spans, want 1 (the pass)", roots)
	}
	for id, self := range selfTimes(spans) {
		if self < -slack {
			t.Errorf("span %d (%s): children cover %v more than the span", id, byID[id].Name, -self)
		}
	}
}

// TestSelfTimeTakesTheUnion pins the reason self time subtracts the
// union of the children: flusher goroutines overlap supersteps.
func TestSelfTimeTakesTheUnion(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{ID: 0, Parent: noSpan, Name: "job", Start: 0, End: ms(100)},
		{ID: 1, Parent: 0, Name: "superstep", Start: ms(10), End: ms(60)},
		{ID: 2, Parent: 0, Name: "dfs.write", Start: ms(40), End: ms(80)}, // overlaps the superstep
		{ID: 3, Parent: 1, Name: "inner", Start: ms(20), End: ms(30)},
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{0: ms(30), 1: ms(40), 2: ms(40), 3: ms(10)} {
		if self[id] != want {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], want)
		}
	}
}

// TestQuartilesMatchPython pins summarize to the values Python's
// statistics.quantiles(xs, n=4) gives, which the acceptance check uses.
func TestQuartilesMatchPython(t *testing.T) {
	s := summarize([]float64{1.90, 1.95, 1.87, 2.01, 1.93, 1.91, 1.99, 1.88, 1.92, 1.94})
	if math.Abs(s.Q1-1.895) > 1e-9 || math.Abs(s.Median-1.925) > 1e-9 || math.Abs(s.Q3-1.96) > 1e-9 {
		t.Errorf("quartiles = %v %v %v, want 1.895 1.925 1.96", s.Q1, s.Median, s.Q3)
	}
}

// TestCompareVerdicts covers the three A/A outcomes.
func TestCompareVerdicts(t *testing.T) {
	d := &driver{
		workloads: workloads[:1],
		decl:      &declaration{EndToEnd: []declaredMetric{{Name: "job_s", Bound: 0.05}}},
	}
	set := func(median, q1, q3 float64) *setResult {
		return &setResult{
			EndToEnd: map[string]map[string]summary{"pr-web": {"job_s": {N: 12, Median: median, Q1: q1, Q3: q3}}},
			Counts:   map[string]map[string]int64{"pr-web": {"supersteps": 11}},
		}
	}
	for _, tc := range []struct {
		a, b *setResult
		want string
	}{
		{set(2.00, 1.98, 2.02), set(2.06, 2.04, 2.08), "agree"},
		{set(2.00, 1.98, 2.02), set(2.12, 2.10, 2.14), "disagree"},
		{set(2.00, 1.90, 2.10), set(2.01, 2.00, 2.02), "unresolved"},
	} {
		if got := d.compare(tc.a, tc.b)[0].Verdict; got != tc.want {
			t.Errorf("medians %v vs %v: %s, want %s", tc.a.EndToEnd["pr-web"]["job_s"].Median, tc.b.EndToEnd["pr-web"]["job_s"].Median, got, tc.want)
		}
	}
}
