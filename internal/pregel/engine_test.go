package pregel

import (
	"errors"
	"fmt"
	"testing"
)

// ccCompute is HCC connected components: propagate the minimum vertex
// ID seen; converges when no label changes.
var ccCompute = ComputeFunc(func(ctx Context, v *Vertex, msgs []Value) error {
	if ctx.Superstep() == 0 {
		v.SetValue(NewLong(int64(v.ID())))
		ctx.SendMessageToAllEdges(v, NewLong(int64(v.ID())))
		v.VoteToHalt()
		return nil
	}
	cur := v.Value().(*LongValue).Get()
	min := cur
	for _, m := range msgs {
		if x := m.(*LongValue).Get(); x < min {
			min = x
		}
	}
	if min < cur {
		v.SetValue(NewLong(min))
		ctx.SendMessageToAllEdges(v, NewLong(min))
	}
	v.VoteToHalt()
	return nil
})

// pathGraph builds 0-1-2-...-n-1 as an undirected path.
func pathGraph(t *testing.T, n int) *Graph {
	t.Helper()
	g := NewGraph()
	for i := 0; i < n; i++ {
		g.AddVertex(VertexID(i), NewLong(0))
	}
	for i := 1; i < n; i++ {
		if err := g.AddUndirectedEdge(VertexID(i-1), VertexID(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// twoComponentGraph builds two disjoint undirected triangles
// {0,1,2} and {10,11,12}.
func twoComponentGraph(t *testing.T) *Graph {
	t.Helper()
	g := NewGraph()
	for _, id := range []VertexID{0, 1, 2, 10, 11, 12} {
		g.AddVertex(id, NewLong(0))
	}
	for _, e := range [][2]VertexID{{0, 1}, {1, 2}, {0, 2}, {10, 11}, {11, 12}, {10, 12}} {
		if err := g.AddUndirectedEdge(e[0], e[1], nil); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestConnectedComponents(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			g := twoComponentGraph(t)
			stats, err := NewJob(g, ccCompute, Config{NumWorkers: workers}).Run()
			if err != nil {
				t.Fatal(err)
			}
			if stats.Reason != ReasonConverged {
				t.Errorf("reason = %v, want converged", stats.Reason)
			}
			for _, id := range []VertexID{0, 1, 2} {
				if got := g.Vertex(id).Value().(*LongValue).Get(); got != 0 {
					t.Errorf("vertex %d label = %d, want 0", id, got)
				}
			}
			for _, id := range []VertexID{10, 11, 12} {
				if got := g.Vertex(id).Value().(*LongValue).Get(); got != 10 {
					t.Errorf("vertex %d label = %d, want 10", id, got)
				}
			}
		})
	}
}

func TestConnectedComponentsLongPath(t *testing.T) {
	const n = 200
	g := pathGraph(t, n)
	stats, err := NewJob(g, ccCompute, Config{NumWorkers: 4, Combiner: MinLongCombiner}).Run()
	if err != nil {
		t.Fatal(err)
	}
	// Label 0 must walk the whole path: n-1 propagation supersteps
	// plus the initial one plus the final quiescent check.
	if stats.Supersteps < n-1 {
		t.Errorf("supersteps = %d, expected at least %d", stats.Supersteps, n-1)
	}
	for i := 0; i < n; i++ {
		if got := g.Vertex(VertexID(i)).Value().(*LongValue).Get(); got != 0 {
			t.Fatalf("vertex %d label = %d, want 0", i, got)
		}
	}
}

func TestCombinerReducesDeliveredMessages(t *testing.T) {
	// Star graph: all leaves message the hub every superstep.
	build := func() *Graph {
		g := NewGraph()
		g.AddVertex(0, NewLong(0))
		for i := 1; i <= 50; i++ {
			g.AddVertex(VertexID(i), NewLong(0))
			if err := g.AddEdge(VertexID(i), 0, nil); err != nil {
				t.Fatal(err)
			}
		}
		return g
	}
	var hubInbox int
	comp := ComputeFunc(func(ctx Context, v *Vertex, msgs []Value) error {
		if v.ID() == 0 && ctx.Superstep() == 1 {
			hubInbox = len(msgs)
		}
		if ctx.Superstep() == 0 {
			ctx.SendMessageToAllEdges(v, NewLong(1))
		}
		v.VoteToHalt()
		return nil
	})

	if _, err := NewJob(build(), comp, Config{NumWorkers: 4}).Run(); err != nil {
		t.Fatal(err)
	}
	if hubInbox != 50 {
		t.Errorf("without combiner hub got %d messages, want 50", hubInbox)
	}

	if _, err := NewJob(build(), comp, Config{NumWorkers: 4, Combiner: SumLongCombiner}).Run(); err != nil {
		t.Fatal(err)
	}
	if hubInbox != 1 {
		t.Errorf("with combiner hub got %d messages, want 1", hubInbox)
	}
}

func TestCombinedValueIsCorrect(t *testing.T) {
	g := NewGraph()
	g.AddVertex(0, NewLong(0))
	for i := 1; i <= 10; i++ {
		g.AddVertex(VertexID(i), NewLong(0))
		if err := g.AddEdge(VertexID(i), 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	comp := ComputeFunc(func(ctx Context, v *Vertex, msgs []Value) error {
		switch ctx.Superstep() {
		case 0:
			if v.ID() != 0 {
				ctx.SendMessageToAllEdges(v, NewLong(int64(v.ID())))
			}
		case 1:
			if v.ID() == 0 {
				var sum int64
				for _, m := range msgs {
					sum += m.(*LongValue).Get()
				}
				v.SetValue(NewLong(sum))
			}
		}
		v.VoteToHalt()
		return nil
	})
	if _, err := NewJob(g, comp, Config{NumWorkers: 3, Combiner: SumLongCombiner}).Run(); err != nil {
		t.Fatal(err)
	}
	if got := g.Vertex(0).Value().(*LongValue).Get(); got != 55 {
		t.Errorf("combined sum = %d, want 55", got)
	}
}

func TestAggregatorsRegularAndPersistent(t *testing.T) {
	g := pathGraph(t, 4)
	var regularAt2, persistentAt2 int64
	comp := ComputeFunc(func(ctx Context, v *Vertex, msgs []Value) error {
		if ctx.Superstep() < 2 {
			ctx.Aggregate("reg", NewLong(1))
			ctx.Aggregate("per", NewLong(1))
			return nil // stay active to run more supersteps
		}
		if v.ID() == 0 {
			regularAt2 = ctx.GetAggregated("reg").(*LongValue).Get()
			persistentAt2 = ctx.GetAggregated("per").(*LongValue).Get()
		}
		v.VoteToHalt()
		return nil
	})
	job := NewJob(g, comp, Config{NumWorkers: 2})
	job.RegisterAggregator("reg", LongSumAggregator{}, false)
	job.RegisterAggregator("per", LongSumAggregator{}, true)
	if _, err := job.Run(); err != nil {
		t.Fatal(err)
	}
	// 4 vertices aggregate 1 in supersteps 0 and 1.
	if regularAt2 != 4 {
		t.Errorf("regular aggregator at superstep 2 = %d, want 4 (last superstep only)", regularAt2)
	}
	if persistentAt2 != 8 {
		t.Errorf("persistent aggregator at superstep 2 = %d, want 8 (accumulated)", persistentAt2)
	}
}

func TestAggregatorInitialValueVisible(t *testing.T) {
	g := pathGraph(t, 1)
	var seen int64 = -999
	comp := ComputeFunc(func(ctx Context, v *Vertex, msgs []Value) error {
		seen = ctx.GetAggregated("sum").(*LongValue).Get()
		v.VoteToHalt()
		return nil
	})
	job := NewJob(g, comp, Config{})
	job.RegisterAggregator("sum", LongSumAggregator{}, false)
	if _, err := job.Run(); err != nil {
		t.Fatal(err)
	}
	if seen != 0 {
		t.Errorf("initial aggregated value = %d, want 0", seen)
	}
}

func TestUnregisteredAggregatorPanicsBecomeComputeErrors(t *testing.T) {
	g := pathGraph(t, 2)
	comp := ComputeFunc(func(ctx Context, v *Vertex, msgs []Value) error {
		ctx.Aggregate("nope", NewLong(1))
		return nil
	})
	_, err := NewJob(g, comp, Config{}).Run()
	var ce *ComputeError
	if !errors.As(err, &ce) {
		t.Fatalf("expected ComputeError, got %v", err)
	}
	if ce.Panic == nil {
		t.Error("expected panic to be recorded")
	}
	if ce.Superstep != 0 {
		t.Errorf("superstep = %d, want 0", ce.Superstep)
	}
}

func TestMasterComputeCoordinatesPhases(t *testing.T) {
	g := pathGraph(t, 3)
	var phasesSeen []string
	master := MasterComputeFunc(func(ctx MasterContext) error {
		switch ctx.Superstep() {
		case 0:
			ctx.SetAggregated("phase", NewText("A"))
		case 1:
			ctx.SetAggregated("phase", NewText("B"))
		default:
			ctx.HaltComputation()
		}
		return nil
	})
	comp := ComputeFunc(func(ctx Context, v *Vertex, msgs []Value) error {
		if v.ID() == 0 {
			phasesSeen = append(phasesSeen, ctx.GetAggregated("phase").(*TextValue).Get())
		}
		return nil // never halt; master terminates the job
	})
	job := NewJob(g, comp, Config{Master: master})
	job.RegisterAggregator("phase", TextOverwriteAggregator{}, true)
	stats, err := job.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Reason != ReasonMasterHalted {
		t.Errorf("reason = %v, want master-halted", stats.Reason)
	}
	if stats.Supersteps != 2 {
		t.Errorf("supersteps = %d, want 2", stats.Supersteps)
	}
	if len(phasesSeen) != 2 || phasesSeen[0] != "A" || phasesSeen[1] != "B" {
		t.Errorf("phases seen = %v, want [A B]", phasesSeen)
	}
}

func TestMasterSeesMergedAggregates(t *testing.T) {
	g := pathGraph(t, 5)
	var masterSaw []int64
	master := MasterComputeFunc(func(ctx MasterContext) error {
		masterSaw = append(masterSaw, ctx.GetAggregated("sum").(*LongValue).Get())
		return nil
	})
	comp := ComputeFunc(func(ctx Context, v *Vertex, msgs []Value) error {
		if ctx.Superstep() == 0 {
			ctx.Aggregate("sum", NewLong(int64(v.ID())))
			return nil
		}
		v.VoteToHalt()
		return nil
	})
	job := NewJob(g, comp, Config{Master: master, NumWorkers: 3})
	job.RegisterAggregator("sum", LongSumAggregator{}, false)
	if _, err := job.Run(); err != nil {
		t.Fatal(err)
	}
	// Superstep 0: initial 0. Superstep 1: 0+1+2+3+4 = 10.
	if len(masterSaw) < 2 || masterSaw[0] != 0 || masterSaw[1] != 10 {
		t.Errorf("master saw %v, want [0 10ยทยทยท]", masterSaw)
	}
}

func TestMaxSuperstepsStopsInfiniteLoop(t *testing.T) {
	g := pathGraph(t, 2)
	comp := ComputeFunc(func(ctx Context, v *Vertex, msgs []Value) error {
		ctx.SendMessageToAllEdges(v, NewLong(1)) // never quiesces
		v.VoteToHalt()
		return nil
	})
	stats, err := NewJob(g, comp, Config{MaxSupersteps: 17}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Reason != ReasonMaxSupersteps {
		t.Errorf("reason = %v, want max-supersteps", stats.Reason)
	}
	if stats.Supersteps != 17 {
		t.Errorf("supersteps = %d, want 17", stats.Supersteps)
	}
}

func TestVoteToHaltAndReactivation(t *testing.T) {
	// Vertex 1 halts at superstep 0; vertex 0 messages it at
	// superstep 1; vertex 1 must wake at superstep 2.
	g := NewGraph()
	g.AddVertex(0, NewLong(0))
	g.AddVertex(1, NewLong(0))
	if err := g.AddEdge(0, 1, nil); err != nil {
		t.Fatal(err)
	}
	var wokeAt = -1
	comp := ComputeFunc(func(ctx Context, v *Vertex, msgs []Value) error {
		if v.ID() == 1 {
			if ctx.Superstep() > 0 && len(msgs) > 0 {
				wokeAt = ctx.Superstep()
			}
			v.VoteToHalt()
			return nil
		}
		if ctx.Superstep() == 1 {
			ctx.SendMessage(1, NewLong(42))
		}
		if ctx.Superstep() >= 1 {
			v.VoteToHalt()
		}
		return nil
	})
	if _, err := NewJob(g, comp, Config{}).Run(); err != nil {
		t.Fatal(err)
	}
	if wokeAt != 2 {
		t.Errorf("vertex 1 woke at superstep %d, want 2", wokeAt)
	}
}

func TestComputeErrorPropagates(t *testing.T) {
	g := pathGraph(t, 3)
	boom := errors.New("boom")
	comp := ComputeFunc(func(ctx Context, v *Vertex, msgs []Value) error {
		if v.ID() == 1 && ctx.Superstep() == 1 {
			return boom
		}
		return nil
	})
	_, err := NewJob(g, comp, Config{MaxSupersteps: 5}).Run()
	var ce *ComputeError
	if !errors.As(err, &ce) {
		t.Fatalf("expected ComputeError, got %v", err)
	}
	if ce.VertexID != 1 || ce.Superstep != 1 {
		t.Errorf("error context = vertex %d superstep %d", ce.VertexID, ce.Superstep)
	}
	if !errors.Is(err, boom) {
		t.Error("wrapped error lost")
	}
}

func TestPanicInComputeBecomesError(t *testing.T) {
	g := pathGraph(t, 2)
	comp := ComputeFunc(func(ctx Context, v *Vertex, msgs []Value) error {
		if v.ID() == 1 {
			panic("kaboom")
		}
		v.VoteToHalt()
		return nil
	})
	_, err := NewJob(g, comp, Config{}).Run()
	var ce *ComputeError
	if !errors.As(err, &ce) {
		t.Fatalf("expected ComputeError, got %v", err)
	}
	if ce.Panic != "kaboom" {
		t.Errorf("panic value = %v", ce.Panic)
	}
	if ce.Stack == "" {
		t.Error("stack trace missing")
	}
}

func TestMasterErrorPropagates(t *testing.T) {
	g := pathGraph(t, 2)
	master := MasterComputeFunc(func(ctx MasterContext) error {
		if ctx.Superstep() == 1 {
			panic("master bug")
		}
		return nil
	})
	comp := ComputeFunc(func(ctx Context, v *Vertex, msgs []Value) error { return nil })
	_, err := NewJob(g, comp, Config{Master: master, MaxSupersteps: 5}).Run()
	var ce *ComputeError
	if !errors.As(err, &ce) {
		t.Fatalf("expected ComputeError, got %v", err)
	}
	if ce.VertexID != MasterVertexID {
		t.Errorf("vertex = %d, want MasterVertexID", ce.VertexID)
	}
}

func TestDroppedMessagesCounted(t *testing.T) {
	g := NewGraph()
	g.AddVertex(0, NewLong(0))
	comp := ComputeFunc(func(ctx Context, v *Vertex, msgs []Value) error {
		if ctx.Superstep() == 0 {
			ctx.SendMessage(99, NewLong(1))
			ctx.SendMessage(98, NewLong(2))
		}
		v.VoteToHalt()
		return nil
	})
	stats, err := NewJob(g, comp, Config{}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.MessagesDropped != 2 {
		t.Errorf("dropped = %d, want 2", stats.MessagesDropped)
	}
}

func TestVertexRemoval(t *testing.T) {
	g := twoComponentGraph(t)
	comp := ComputeFunc(func(ctx Context, v *Vertex, msgs []Value) error {
		if ctx.Superstep() == 0 && v.ID() >= 10 {
			ctx.RemoveVertexRequest(v.ID())
		}
		if ctx.Superstep() >= 1 {
			v.VoteToHalt() // stay active through superstep 1 so its totals are observable
		}
		return nil
	})
	var endVertices int64 = -1
	listener := &recordingListener{onFinish: func(s *Stats, err error) {}}
	job := NewJob(g, comp, Config{Listener: listener, MaxSupersteps: 3})
	if _, err := job.Run(); err != nil {
		t.Fatal(err)
	}
	for _, info := range listener.superstepInfos {
		if info.Superstep == 1 {
			endVertices = info.NumVertices
		}
	}
	if endVertices != 3 {
		t.Errorf("vertices at superstep 1 = %d, want 3", endVertices)
	}
}

type recordingListener struct {
	jobInfo        JobInfo
	superstepInfos []SuperstepInfo
	superstepStats []SuperstepStats
	finished       bool
	finalStats     *Stats
	finalErr       error
	onFinish       func(*Stats, error)
}

func (l *recordingListener) JobStarted(info JobInfo) { l.jobInfo = info }
func (l *recordingListener) SuperstepStarted(s int, info SuperstepInfo) {
	l.superstepInfos = append(l.superstepInfos, info)
}
func (l *recordingListener) SuperstepFinished(s int, stats SuperstepStats) {
	l.superstepStats = append(l.superstepStats, stats)
}
func (l *recordingListener) JobFinished(stats *Stats, err error) {
	l.finished, l.finalStats, l.finalErr = true, stats, err
	if l.onFinish != nil {
		l.onFinish(stats, err)
	}
}

func TestListenerCallbacks(t *testing.T) {
	g := twoComponentGraph(t)
	l := &recordingListener{}
	stats, err := NewJob(g, ccCompute, Config{Listener: l, NumWorkers: 2}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if l.jobInfo.NumVertices != 6 || l.jobInfo.NumEdges != 12 {
		t.Errorf("job info = %+v", l.jobInfo)
	}
	if !l.finished || l.finalErr != nil {
		t.Error("JobFinished not observed")
	}
	if len(l.superstepInfos) != stats.Supersteps {
		t.Errorf("superstep starts = %d, supersteps = %d", len(l.superstepInfos), stats.Supersteps)
	}
	if len(l.superstepStats) != stats.Supersteps {
		t.Errorf("superstep finishes = %d, supersteps = %d", len(l.superstepStats), stats.Supersteps)
	}
	if l.finalStats.TotalMessages == 0 {
		t.Error("no messages recorded")
	}
}

func TestStatsPerSuperstep(t *testing.T) {
	g := pathGraph(t, 10)
	stats, err := NewJob(g, ccCompute, Config{NumWorkers: 2}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.PerSuperstep) != stats.Supersteps {
		t.Fatalf("PerSuperstep has %d entries for %d supersteps", len(stats.PerSuperstep), stats.Supersteps)
	}
	for i, ss := range stats.PerSuperstep {
		if ss.Superstep != i {
			t.Errorf("entry %d has superstep %d", i, ss.Superstep)
		}
	}
	last := stats.PerSuperstep[len(stats.PerSuperstep)-1]
	if last.ActiveAtEnd != 0 || last.MessagesSent != 0 {
		t.Errorf("final superstep not quiescent: %+v", last)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func(workers int) []int64 {
		g := twoComponentGraph(t)
		if _, err := NewJob(g, ccCompute, Config{NumWorkers: workers}).Run(); err != nil {
			t.Fatal(err)
		}
		var out []int64
		g.Each(func(v *Vertex) { out = append(out, v.Value().(*LongValue).Get()) })
		return out
	}
	a, b, c := run(1), run(4), run(7)
	for i := range a {
		if a[i] != b[i] || a[i] != c[i] {
			t.Fatalf("results differ across worker counts: %v %v %v", a, b, c)
		}
	}
}

func TestZeroVertexGraph(t *testing.T) {
	g := NewGraph()
	stats, err := NewJob(g, ccCompute, Config{}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Supersteps != 1 || stats.Reason != ReasonConverged {
		t.Errorf("empty graph: %+v", stats)
	}
}

func TestDuplicateAggregatorRegistrationPanics(t *testing.T) {
	job := NewJob(NewGraph(), ccCompute, Config{})
	job.RegisterAggregator("x", LongSumAggregator{}, false)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	job.RegisterAggregator("x", LongSumAggregator{}, false)
}

func TestSendMessageToAllEdgesClones(t *testing.T) {
	// With a mutating combiner, recipients sharing one message object
	// would corrupt each other; verify each inbox is independent.
	g := NewGraph()
	g.AddVertex(0, NewLong(0))
	for i := 1; i <= 3; i++ {
		g.AddVertex(VertexID(i), NewLong(0))
	}
	for i := 1; i <= 3; i++ {
		if err := g.AddEdge(0, VertexID(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	got := map[VertexID]int64{}
	comp := ComputeFunc(func(ctx Context, v *Vertex, msgs []Value) error {
		switch ctx.Superstep() {
		case 0:
			if v.ID() == 0 {
				ctx.SendMessageToAllEdges(v, NewLong(7))
				// A second broadcast that the combiner folds in.
				ctx.SendMessageToAllEdges(v, NewLong(int64(10)))
			}
		case 1:
			if len(msgs) > 0 {
				got[v.ID()] = msgs[0].(*LongValue).Get()
			}
		}
		v.VoteToHalt()
		return nil
	})
	if _, err := NewJob(g, comp, Config{NumWorkers: 1, Combiner: SumLongCombiner}).Run(); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if got[VertexID(i)] != 17 {
			t.Errorf("vertex %d combined inbox = %d, want 17", i, got[VertexID(i)])
		}
	}
}
