package graft_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"testing"
)

// trajectoryRow is one (PR, workload, seed) line of BENCH_trajectory.json:
// the medians of alternating parent/change pairs of `bash bench/run.sh`.
type trajectoryRow struct {
	PR     int    `json:"pr"`
	Commit string `json:"commit,omitempty"` // empty only on the newest PR's rows
	Parent string `json:"parent"`

	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Pairs    int    `json:"pairs"`
	// Claim is the end-to-end metric the PR claims a gain on, or "none".
	Claim string `json:"claim"`

	ParentSide map[string]trajectoryStat `json:"parent_side"`
	ChangeSide map[string]trajectoryStat `json:"change_side"`
	Wins       map[string]string         `json:"wins,omitempty"`
	Counts     map[string]int64          `json:"counts,omitempty"`

	CountsChanged string `json:"counts_changed,omitempty"`
	OverBound     string `json:"over_bound,omitempty"`
}

type trajectoryStat struct {
	Median float64  `json:"median"`
	IQR    *float64 `json:"iqr,omitempty"`
}

type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestBenchTrajectory runs nothing: it checks that the recorded
// trajectory is well formed, that the deterministic counts carry over
// from row to row, and that no recorded median is worse than
// BENCHMARK.json's bound unless the row says why.
func TestBenchTrajectory(t *testing.T) {
	var spec benchmarkSpec
	readStrict(t, "BENCHMARK.json", &spec, false)
	var file struct {
		About string          `json:"about"`
		Rows  []trajectoryRow `json:"rows"`
	}
	readStrict(t, "BENCH_trajectory.json", &file, true)
	if file.About == "" || len(file.Rows) == 0 {
		t.Fatal("BENCH_trajectory.json: no about text or no rows")
	}

	workloads := map[string]bool{}
	for _, w := range spec.Workloads {
		workloads[w.Name] = true
	}
	better, bound := map[string]string{}, map[string]float64{}
	for _, m := range spec.EndToEnd {
		better[m.Name], bound[m.Name] = m.Better, m.Bound
	}
	counts := map[string]bool{}
	for _, m := range spec.PerLayer {
		counts[m.Name] = m.Unit == "count"
	}

	hash := regexp.MustCompile(`^[0-9a-f]{7,40}$`)
	wins := regexp.MustCompile(`^(\d+)/(\d+)$`)
	newest := file.Rows[len(file.Rows)-1].PR
	lastCount := map[string]int64{} // workload/seed/count → value
	for i, r := range file.Rows {
		where := fmt.Sprintf("row %d (PR %d, %s, seed %d)", i, r.PR, r.Workload, r.Seed)
		if i > 0 && r.PR < file.Rows[i-1].PR {
			t.Errorf("%s: rows are not in PR order", where)
		}
		if !hash.MatchString(r.Parent) || (r.Commit == "" && r.PR != newest) ||
			(r.Commit != "" && !hash.MatchString(r.Commit)) {
			t.Errorf("%s: commit %q, parent %q", where, r.Commit, r.Parent)
		}
		if !workloads[r.Workload] || r.Pairs < 1 {
			t.Errorf("%s: unknown workload or %d pairs", where, r.Pairs)
		}
		if r.Claim != "none" && (better[r.Claim] == "" || r.Wins[r.Claim] == "") {
			t.Errorf("%s: claim %q is not an end-to-end metric with its wins recorded", where, r.Claim)
		}
		if len(r.ParentSide) == 0 || len(r.ParentSide) != len(r.ChangeSide) {
			t.Errorf("%s: %d parent and %d change medians", where, len(r.ParentSide), len(r.ChangeSide))
		}
		for name, p := range r.ParentSide {
			c, ok := r.ChangeSide[name]
			if better[name] == "" || !ok || p.Median <= 0 || c.Median <= 0 ||
				(p.IQR != nil && *p.IQR < 0) || (c.IQR != nil && *c.IQR < 0) {
				t.Errorf("%s: %s parent %+v, change %+v", where, name, p, c)
				continue
			}
			worse := (c.Median - p.Median) / p.Median
			if better[name] == "higher" {
				worse = -worse
			}
			if worse > bound[name] && r.OverBound == "" {
				t.Errorf("%s: %s %.4g → %.4g is %.0f%% worse, over the %.0f%% bound, and the row says not why",
					where, name, p.Median, c.Median, 100*worse, 100*bound[name])
			}
		}
		for name, s := range r.Wins {
			m := wins.FindStringSubmatch(s)
			var k, n int
			if m != nil {
				fmt.Sscan(m[1], &k)
				fmt.Sscan(m[2], &n)
			}
			if better[name] == "" || m == nil || k > n || n != r.Pairs {
				t.Errorf("%s: wins %s = %q with %d pairs", where, name, s, r.Pairs)
			}
		}
		for name, v := range r.Counts {
			if !counts[name] || v < 0 {
				t.Errorf("%s: %s = %d is not a count of BENCHMARK.json's", where, name, v)
				continue
			}
			key := fmt.Sprintf("%s/%d/%s", r.Workload, r.Seed, name)
			if was, ok := lastCount[key]; ok && was != v && r.CountsChanged == "" {
				t.Errorf("%s: %s %d → %d, and the row says not why", where, name, was, v)
			}
			lastCount[key] = v
		}
	}
}

// readStrict decodes a JSON file at the repository root into v,
// rejecting unknown fields when strict.
func readStrict(t *testing.T, name string, v any, strict bool) {
	t.Helper()
	data, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	if strict {
		dec.DisallowUnknownFields()
	}
	if err := dec.Decode(v); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
}
