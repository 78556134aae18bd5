package faults

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"graft/internal/dfs"
)

// chattyPlan injects often enough to exercise every path but stays
// under the retry budget per (path, op).
func chattyPlan(seed int64) Plan {
	return Plan{
		Seed:         seed,
		P:            map[Op]float64{OpWrite: 0.5, OpCreate: 0.3, OpClose: 0.3, OpOpen: 0.3},
		MaxPerPathOp: 2,
		ShortWrites:  true,
	}
}

// driveOps runs a fixed op sequence against an injector and returns
// the fault decisions as a signature string.
func driveOps(in *Injector) string {
	sig := ""
	for i := 0; i < 40; i++ {
		path := fmt.Sprintf("dir/file-%d", i%5)
		for _, op := range []Op{OpCreate, OpWrite, OpWrite, OpClose, OpOpen} {
			if err := in.decide(op, path); err != nil {
				sig += fmt.Sprintf("%d:%s:%s;", i, op, path)
			}
		}
	}
	return sig
}

func TestInjectorDeterminism(t *testing.T) {
	a := NewInjector(chattyPlan(7))
	b := NewInjector(chattyPlan(7))
	sigA, sigB := driveOps(a), driveOps(b)
	if sigA != sigB {
		t.Fatalf("same plan, different decisions:\n%s\nvs\n%s", sigA, sigB)
	}
	if a.Injected() == 0 {
		t.Fatal("plan injected nothing; test drives too few ops")
	}
	c := NewInjector(chattyPlan(8))
	if driveOps(c) == sigA {
		t.Fatal("different seed produced identical decisions")
	}
}

func TestInjectorFailNth(t *testing.T) {
	in := NewInjector(Plan{FailNth: map[Op]int{OpCreate: 3}})
	var errs []int
	for i := 1; i <= 5; i++ {
		if err := in.decide(OpCreate, fmt.Sprintf("f%d", i)); err != nil {
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("injected error not marked ErrInjected: %v", err)
			}
			errs = append(errs, i)
		}
	}
	if len(errs) != 1 || errs[0] != 3 {
		t.Fatalf("FailNth(3) failed calls %v, want exactly [3]", errs)
	}
}

func TestInjectorCaps(t *testing.T) {
	in := NewInjector(Plan{P: map[Op]float64{OpWrite: 1}, MaxFaults: 2})
	n := 0
	for i := 0; i < 10; i++ {
		if in.decide(OpWrite, "f") != nil {
			n++
		}
	}
	if n != 2 {
		t.Fatalf("MaxFaults=2 injected %d faults", n)
	}

	per := NewInjector(Plan{P: map[Op]float64{OpWrite: 1}, MaxPerPathOp: 1})
	for _, path := range []string{"a", "a", "a", "b", "b"} {
		per.decide(OpWrite, path)
	}
	if got := per.Injected(); got != 2 {
		t.Fatalf("MaxPerPathOp=1 over paths a,b injected %d faults, want 2", got)
	}
}

func TestShortWriteTruncatesFile(t *testing.T) {
	mem := dfs.NewMemFS()
	ffs := NewFaultFS(mem, Plan{P: map[Op]float64{OpWrite: 1}, MaxPerPathOp: 1, ShortWrites: true})
	w, err := ffs.Create("f")
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("0123456789")
	if _, err := w.Write(data); !errors.Is(err, ErrInjected) {
		t.Fatalf("want injected write fault, got %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := dfs.ReadFile(mem, "f")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(data)/2 {
		t.Fatalf("short write left %d bytes, want %d", len(got), len(data)/2)
	}
}

func TestInjectedCloseDoesNotCommit(t *testing.T) {
	mem := dfs.NewMemFS()
	ffs := NewFaultFS(mem, Plan{FailNth: map[Op]int{OpClose: 1}})
	w, err := ffs.Create("f")
	if err != nil {
		t.Fatal(err)
	}
	w.Write([]byte("data"))
	if err := w.Close(); !errors.Is(err, ErrInjected) {
		t.Fatalf("want injected close fault, got %v", err)
	}
	if _, err := mem.Open("f"); !errors.Is(err, dfs.ErrNotExist) {
		t.Fatalf("file committed despite failed close: err=%v", err)
	}
}

func TestRetryFSAbsorbsBoundedFaults(t *testing.T) {
	mem := dfs.NewMemFS()
	inner := NewFaultFS(mem, Plan{P: map[Op]float64{OpWrite: 1}, MaxPerPathOp: 2})
	rfs := NewRetryFS(inner, 7)
	rfs.Sleep = func(time.Duration) {} // keep the test fast

	if err := dfs.WriteFile(rfs, "f", []byte("payload")); err != nil {
		t.Fatalf("retry layer should outlast 2 faults: %v", err)
	}
	got, err := dfs.ReadFile(mem, "f")
	if err != nil || string(got) != "payload" {
		t.Fatalf("committed file = %q, %v; want %q", got, err, "payload")
	}
	if rfs.FaultStats().Retries == 0 {
		t.Fatal("no retries recorded despite injected faults")
	}
	// Each layer reports its own counters only.
	if s := rfs.FaultStats(); s.Injected != 0 || s.Backoff <= 0 {
		t.Fatalf("retry layer stats look wrong: %+v", s)
	}
	if s := inner.FaultStats(); s.Injected == 0 || s.Injected != inner.Inj.Injected() || s.Retries != 0 {
		t.Fatalf("fault layer stats look wrong: %+v", s)
	}
}

func TestRetryFSGivesUp(t *testing.T) {
	mem := dfs.NewMemFS()
	inner := NewFaultFS(mem, Plan{P: map[Op]float64{OpWrite: 1}}) // unlimited faults
	rfs := NewRetryFS(inner, 7)
	var sleeps int
	rfs.Sleep = func(time.Duration) { sleeps++ }

	err := dfs.WriteFile(rfs, "f", []byte("payload"))
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("want injected error after budget exhausted, got %v", err)
	}
	if sleeps != maxRetries {
		t.Fatalf("slept %d times, want %d", sleeps, maxRetries)
	}
	// The failed attempts must not leave a partial file behind.
	if _, err := mem.Open("f"); !errors.Is(err, dfs.ErrNotExist) {
		t.Fatalf("partial file left after give-up: err=%v", err)
	}
	// Missing files are permanent errors: no retries burned on them.
	before := rfs.FaultStats().Retries
	if _, err := rfs.Open("missing"); !errors.Is(err, dfs.ErrNotExist) {
		t.Fatalf("want ErrNotExist, got %v", err)
	}
	if rfs.FaultStats().Retries != before {
		t.Fatal("retried a permanent ErrNotExist")
	}
}

func TestBackoffDelayBoundsAndDeterminism(t *testing.T) {
	r := NewRetryFS(dfs.NewMemFS(), 3)
	for attempt := 0; attempt < 12; attempt++ {
		d := r.backoffDelay("some/path", attempt)
		if d <= 0 || d >= maxDelay {
			t.Fatalf("attempt %d: delay %v outside (0, %v)", attempt, d, maxDelay)
		}
		if d2 := r.backoffDelay("some/path", attempt); d2 != d {
			t.Fatalf("attempt %d: jitter not deterministic (%v vs %v)", attempt, d, d2)
		}
	}
}

// TestChaosPlanRetriesConverge holds ChaosPlan to its promise: a
// RetryFS over it lands every whole-file write, whatever the seed and
// fault probability.
func TestChaosPlanRetriesConverge(t *testing.T) {
	for _, p := range []float64{0.3, 0.5, 1} {
		failed, injected := 0, int64(0)
		for seed := int64(0); seed < 200; seed++ {
			inner := NewFaultFS(dfs.NewMemFS(), ChaosPlan(seed, p))
			rfs := NewRetryFS(inner, seed)
			rfs.Sleep = func(time.Duration) {}
			for i := 0; i < 20; i++ {
				if err := dfs.WriteFile(rfs, fmt.Sprintf("job/f%02d", i), []byte("payload")); err != nil {
					failed++
				}
			}
			injected += inner.Inj.Injected()
		}
		if failed != 0 {
			t.Errorf("p=%v: %d of 4000 writes ran out of retries", p, failed)
		}
		if injected == 0 {
			t.Errorf("p=%v: nothing injected", p)
		}
	}
}

// TestChainDeterminism replays an identical fault-heavy write workload
// twice through the full RetryFS(FaultFS(MemFS)) chain and demands
// byte-identical outcomes and counters — the property the chaos test
// relies on.
func TestChainDeterminism(t *testing.T) {
	run := func() (string, int64, int64) {
		mem := dfs.NewMemFS()
		ffs := NewFaultFS(mem, chattyPlan(11))
		rfs := NewRetryFS(ffs, 11)
		rfs.Sleep = func(time.Duration) {}
		sig := ""
		for i := 0; i < 25; i++ {
			path := fmt.Sprintf("out/f%d", i%7)
			err := dfs.WriteFile(rfs, path, []byte(fmt.Sprintf("payload-%d", i)))
			sig += fmt.Sprintf("%d:%v;", i, err == nil)
		}
		return sig, ffs.FaultStats().Injected, rfs.FaultStats().Retries
	}
	sigA, injA, retA := run()
	sigB, injB, retB := run()
	if sigA != sigB || injA != injB || retA != retB {
		t.Fatalf("chain not deterministic:\n%s inj=%d ret=%d\nvs\n%s inj=%d ret=%d",
			sigA, injA, retA, sigB, injB, retB)
	}
	if injA == 0 || retA == 0 {
		t.Fatalf("workload too tame: injected=%d retries=%d", injA, retA)
	}
}
