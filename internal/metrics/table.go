package metrics

import (
	"fmt"
	"reflect"
	"strings"
	"time"

	"graft/internal/pregel"
)

// Unit says how a metric's value reads and whether it repeats: two runs
// of one job agree on every Count, Percent of counts and Text, and on
// nothing measured with a clock.
type Unit int

const (
	Count    Unit = iota // an integer fixed by the job's inputs
	Duration             // a time.Duration, nanoseconds in JSON
	Ratio                // a max/mean skew, 1.00 = balanced; timing-derived
	Percent              // a 0..1 fraction, printed as a percentage
	Gauge                // a sampled level or index that depends on timing
	Text                 // a name, or a composite that renders itself
)

// Metric declares one of a job's numbers, once. Every page iterates
// Table: the GUI metrics page's summary block, its per-superstep and
// per-worker tables and its placement caption, the `graft run` summary
// and `graft show`'s placement line (Sections), and the keys
// NormalizeJSONL zeroes. On pages a zero value is not shown.
//
// Job, Step and Worker are dotted paths of field and niladic
// method names, read by reflection when a page asks (never at
// a barrier); a name that does not resolve panics at start-up (init
// walks them all). A nil pointer on the way reads as absent, a Count of
// a slice or map is its length, a negative Gauge is absent.
type Metric struct {
	// Key, with dashes for underscores (and no "_ns"), is the name in
	// summary lines; with and without a "max_" prefix it is the JSON key
	// NormalizeJSONL zeroes when Unit is timing-derived.
	Key   string
	Label string // dashboard label and column header
	Unit  Unit
	// Line names the summary line and dashboard section the row
	// belongs to; rows without one show in the dashboard's "job" section.
	Line string

	Job    string // in JobMetrics; without it the row is a per-superstep column only
	Step   string // in pregel.SuperstepStats
	Worker string // in pregel.WorkerStepStats
}

// Table is every metric of a job, in display order; rows sharing a Line
// are adjacent. Adding one is its source field — in pregel.Counters,
// which workers, supersteps and job totals share, or in pregel.JobEnd,
// which pregel.Stats and JobMetrics share — plus one row here.
var Table = []Metric{
	{Key: "num_workers", Label: "Workers", Job: "NumWorkers"},
	{Key: "supersteps", Label: "Supersteps", Job: "Supersteps"},
	{Key: "runtime_ns", Label: "Runtime", Unit: Duration, Job: "Runtime"},
	{Key: "vertices_processed", Label: "Vertices processed", Job: "Totals.VerticesProcessed", Step: "VerticesProcessed", Worker: "VerticesProcessed"},
	{Key: "active", Label: "Active after", Step: "ActiveAtEnd"},
	{Key: "messages_sent", Label: "Messages sent", Job: "Totals.MessagesSent", Step: "MessagesSent", Worker: "MessagesSent"},
	{Key: "messages_combined", Label: "Combined", Job: "Totals.MessagesCombined", Step: "MessagesCombined"},
	{Key: "messages_received", Label: "Received", Job: "Totals.MessagesReceived", Step: "MessagesReceived", Worker: "MessagesReceived"},

	{Key: "compute_ns", Label: "Compute", Unit: Duration, Line: "phases", Job: "Totals.ComputeTime", Step: "ComputeTime", Worker: "ComputeTime"},
	{Key: "barrier_ns", Label: "Barrier wait", Unit: Duration, Line: "phases", Job: "Totals.BarrierWait", Step: "BarrierWait", Worker: "BarrierWait"},
	{Key: "capture_ns", Label: "Capture", Unit: Duration, Line: "phases", Job: "Totals.CaptureTime", Step: "CaptureTime", Worker: "CaptureTime"},
	{Key: "capture_overhead", Label: "Capture / compute", Unit: Percent, Line: "phases", Job: "Totals.CaptureOverhead"},
	{Key: "flush_ns", Label: "Trace flush", Unit: Duration, Line: "phases", Job: "Totals.FlushTime", Step: "FlushTime"},
	{Key: "max_compute_skew", Label: "Compute skew", Unit: Ratio, Line: "phases", Job: "Totals.MaxComputeSkew", Step: "ComputeSkew"},
	{Key: "max_message_skew", Label: "Message skew", Unit: Ratio, Line: "phases", Job: "Totals.MaxMessageSkew", Step: "MessageSkew"},
	{Key: "straggler", Label: "Straggler", Unit: Gauge, Step: "Straggler"},

	{Key: "subgraphs_computed", Label: "Subgraphs computed", Line: "subgraph mode", Job: "Totals.SubgraphsComputed", Step: "SubgraphsComputed", Worker: "SubgraphsComputed"},
	{Key: "internal_iterations", Label: "Internal iterations", Line: "subgraph mode", Job: "Totals.InternalIterations", Step: "InternalIterations", Worker: "InternalIterations"},

	{Key: "recoveries", Label: "Recoveries", Line: "resilience", Job: "Recoveries"},
	{Key: "recovery_ns", Label: "Recovery", Unit: Duration, Line: "resilience", Job: "RecoveryTime"},
	{Key: "faults", Label: "Faults", Unit: Text, Line: "resilience", Job: "Faults"},

	{Key: "partitioner", Label: "Partitioner", Unit: Text, Line: "placement", Job: "Partitioner"},
	{Key: "vertices_per_worker", Label: "Vertices / worker", Unit: Text, Line: "placement", Job: "PartitionSizes"},
	{Key: "edge_cut", Label: "Edge cut", Line: "placement", Job: "EdgeCut"},
	{Key: "local_messages", Label: "Worker-local messages", Line: "placement", Job: "Totals.LocalMessages", Step: "LocalMessages"},
	{Key: "local_ratio", Label: "Worker-local share", Unit: Percent, Line: "placement", Job: "Totals.LocalMessageRatio", Step: "LocalMessageRatio"},

	{Key: "anomalies", Label: "Anomalies", Line: "profiler", Job: "Anomalies", Step: "Anomalies"},
	{Key: "by_kind", Label: "By kind", Unit: Text, Line: "profiler", Job: "AnomalyCounts"},

	{Key: "dfs", Label: "DFS traffic", Unit: Text, Line: "dfs", Job: "DFS"},
}

// walk follows path from v, a pointer to a struct. A nil pointer on the
// way is walked as its zero value, so that every name is looked up, and
// reported as absent.
func walk(v reflect.Value, path string) (_ reflect.Value, present bool) {
	present = true
	for _, name := range strings.Split(path, ".") {
		if m := v.MethodByName(name); m.IsValid() {
			v = m.Call(nil)[0]
		} else if v = reflect.Indirect(v).FieldByName(name); !v.IsValid() {
			panic(fmt.Sprintf("metrics: no field or method %q in path %q", name, path))
		}
		if v.Kind() == reflect.Pointer && v.IsNil() {
			v, present = reflect.New(v.Type().Elem()), false
		}
	}
	return reflect.Indirect(v), present
}

// Every path is walked once at start-up, over zero values: a typo fails
// there, not on a page.
func init() {
	for _, src := range []any{&JobMetrics{}, &pregel.SuperstepStats{}, &pregel.WorkerStepStats{}} {
		Items(src)
	}
}

// Item is one metric value, read and rendered.
type Item struct {
	*Metric
	Raw   any    // as stored (durations in nanoseconds); nil when absent
	Value string // as pages print it
	Zero  bool   // absent or zero
}

// Items reads src — a *JobMetrics, *pregel.SuperstepStats or
// *pregel.WorkerStepStats — under every row with a path into it, in
// Table order.
func Items(src any) []Item {
	var items []Item
	for i := range Table {
		m := &Table[i]
		path := m.Job
		switch src.(type) {
		case *pregel.SuperstepStats:
			path = m.Step
		case *pregel.WorkerStepStats:
			path = m.Worker
		}
		if path == "" {
			continue
		}
		it := Item{Metric: m, Value: "—", Zero: true}
		v, present := walk(reflect.ValueOf(src), path)
		if k := v.Kind(); m.Unit == Count && (k == reflect.Slice || k == reflect.Map) {
			v = reflect.ValueOf(v.Len())
		}
		if present && !(m.Unit == Gauge && v.Int() < 0) {
			it.Raw, it.Zero = v.Interface(), v.IsZero()
			switch m.Unit {
			case Duration:
				it.Value = time.Duration(v.Int()).Round(time.Microsecond).String()
			case Ratio:
				it.Value = fmt.Sprintf("%.2f", v.Float())
			case Percent:
				it.Value = fmt.Sprintf("%.1f%%", v.Float()*100)
			default:
				it.Value = fmt.Sprint(it.Raw)
			}
		}
		items = append(items, it)
	}
	return items
}

// Section is one summary line ("placement: partitioner=hash …"): the
// non-zero job-level items sharing a Line.
type Section struct {
	Name  string
	Items []Item
}

// Sections renders the job-level page rows, grouped by Line in Table
// order; zero items and sections left empty are dropped.
func Sections(jm *JobMetrics) []Section {
	var out []Section
	for _, it := range Items(jm) {
		if it.Zero {
			continue
		}
		if n := len(out); n == 0 || out[n-1].Name != it.Line {
			out = append(out, Section{Name: it.Line})
		}
		out[len(out)-1].Items = append(out[len(out)-1].Items, it)
	}
	return out
}

// String renders the section as a summary line: name=value pairs, a
// composite that names its own parts (a fmt.Stringer) bare.
func (s Section) String() string {
	parts := make([]string, len(s.Items))
	for i, it := range s.Items {
		parts[i] = strings.ReplaceAll(strings.TrimSuffix(it.Key, "_ns"), "_", "-") + "=" + it.Value
		if _, ok := it.Raw.(fmt.Stringer); ok && it.Unit == Text {
			parts[i] = it.Value
		}
	}
	return s.Name + ": " + strings.Join(parts, " ")
}

// volatileKeys are the JSON keys of the timing-derived rows, at the
// job level and per superstep, plus two the table has no row for: a
// recovery event's wall time (recovery_events[].duration_ns) and the
// time storage retries slept (faults.backoff_ns).
func volatileKeys() map[string]bool {
	keys := map[string]bool{"duration_ns": true, "backoff_ns": true}
	for _, m := range Table {
		if m.Unit == Duration || m.Unit == Ratio || m.Unit == Gauge {
			keys[m.Key], keys[strings.TrimPrefix(m.Key, "max_")] = true, true
		}
	}
	return keys
}
