package pregel

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"graft/internal/dfs"
)

// refHCC is what ccCompute computes, worked out over plain maps with no
// engine underneath: synchronous min-label propagation, one round per
// superstep, every vertex that improved telling all its neighbours. It
// returns the final labels, the messages sent and the supersteps run.
func refHCC(g *Graph) (labels map[VertexID]int64, sent int64, supersteps int) {
	labels = map[VertexID]int64{}
	mail := map[VertexID]int64{} // the least label each vertex was sent
	send := func(v *Vertex, label int64) {
		for _, e := range v.Edges() {
			if cur, ok := mail[e.Target]; !ok || label < cur {
				mail[e.Target] = label
			}
			sent++
		}
	}
	for _, id := range g.VertexIDs() {
		labels[id] = int64(id)
		send(g.Vertex(id), int64(id))
	}
	for supersteps = 1; len(mail) > 0; supersteps++ {
		inbox := mail
		mail = map[VertexID]int64{}
		for id, least := range inbox {
			if least < labels[id] {
				labels[id] = least
				send(g.Vertex(id), least)
			}
		}
	}
	return labels, sent, supersteps
}

// TestLanePlaneMatchesMutexPlane runs connected components over a random
// graph on four workers, with and without a combiner, and requires the
// labels, message total and superstep count refHCC works out. (The name
// dates from when the comparison was against a second message plane.)
func TestLanePlaneMatchesMutexPlane(t *testing.T) {
	build := func() *Graph {
		rng := rand.New(rand.NewSource(7))
		g := NewGraph()
		const n = 300
		for i := 0; i < n; i++ {
			g.AddVertex(VertexID(i), NewLong(int64(i)))
		}
		for i := 0; i < n; i++ {
			for _, j := range rng.Perm(n)[:3] {
				if i != j {
					g.AddEdge(VertexID(i), VertexID(j), nil)
					g.AddEdge(VertexID(j), VertexID(i), nil)
				}
			}
		}
		return g
	}
	wantLabels, wantSent, wantSteps := refHCC(build())
	for _, tc := range []struct {
		name     string
		combiner Combiner
	}{
		{"combiner", MinLongCombiner},
		{"plain", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := build()
			stats, err := NewJob(g, ccCompute, Config{NumWorkers: 4, Combiner: tc.combiner}).Run()
			if err != nil {
				t.Fatal(err)
			}
			for id, want := range wantLabels {
				if got := g.Vertex(id).Value().(*LongValue).Get(); got != want {
					t.Fatalf("vertex %d: label %d, reference %d", id, got, want)
				}
			}
			if stats.TotalMessages != wantSent {
				t.Errorf("TotalMessages = %d, reference %d", stats.TotalMessages, wantSent)
			}
			if stats.Supersteps != wantSteps {
				t.Errorf("Supersteps = %d, reference %d", stats.Supersteps, wantSteps)
			}
		})
	}
}

// TestLaneDeterministicInboxOrder checks the lane plane's ordering
// guarantee: inboxes are merged in sender-worker order, then send
// order, so without a combiner a vertex sees the exact same message
// sequence on every run.
func TestLaneDeterministicInboxOrder(t *testing.T) {
	run := func() map[VertexID][]int64 {
		g := NewGraph()
		const senders = 40
		g.AddVertex(0, NewLong(0))
		for i := 1; i <= senders; i++ {
			g.AddVertex(VertexID(i), NewLong(0))
		}
		var mu sync.Mutex
		order := map[VertexID][]int64{}
		comp := ComputeFunc(func(ctx Context, v *Vertex, msgs []Value) error {
			if ctx.Superstep() == 0 && v.ID() != 0 {
				for k := 0; k < 5; k++ {
					ctx.SendMessage(0, NewLong(int64(v.ID())*100+int64(k)))
				}
			}
			if ctx.Superstep() == 1 && v.ID() == 0 {
				var seq []int64
				for _, m := range msgs {
					seq = append(seq, m.(*LongValue).Get())
				}
				mu.Lock()
				order[v.ID()] = seq
				mu.Unlock()
			}
			v.VoteToHalt()
			return nil
		})
		if _, err := NewJob(g, comp, Config{NumWorkers: 8}).Run(); err != nil {
			t.Fatal(err)
		}
		return order
	}
	first := run()
	for i := 0; i < 3; i++ {
		again := run()
		if fmt.Sprint(again) != fmt.Sprint(first) {
			t.Fatalf("run %d: inbox order diverged:\n%v\nvs\n%v", i, again, first)
		}
	}
}

// TestSenderSideCombining checks that with a combiner installed the
// lane plane merges at the sender: a worker fanning many messages into
// one destination folds them into one cell, every message but one is
// counted as combined, and the combined result must still be exact.
func TestSenderSideCombining(t *testing.T) {
	const leaves = 500
	g := NewGraph()
	g.AddVertex(0, NewLong(0))
	for i := 1; i <= leaves; i++ {
		g.AddVertex(VertexID(i), NewLong(0))
	}
	comp := ComputeFunc(func(ctx Context, v *Vertex, msgs []Value) error {
		if ctx.Superstep() == 0 && v.ID() != 0 {
			// Three messages per leaf, all to the hub.
			for k := 0; k < 3; k++ {
				ctx.SendMessage(0, NewLong(1))
			}
		}
		if ctx.Superstep() == 1 && v.ID() == 0 {
			var sum int64
			for _, m := range msgs {
				sum += m.(*LongValue).Get()
			}
			if sum != 3*leaves {
				t.Errorf("combined sum = %d, want %d", sum, 3*leaves)
			}
		}
		v.VoteToHalt()
		return nil
	})
	stats, err := NewJob(g, comp, Config{NumWorkers: 4, Combiner: SumLongCombiner}).Run()
	if err != nil {
		t.Fatal(err)
	}
	ss := stats.PerSuperstep[0]
	if ss.MessagesSent != 3*leaves {
		t.Errorf("sent = %d, want %d", ss.MessagesSent, 3*leaves)
	}
	// Every message beyond one per (worker, destination) pair must have
	// been merged away before delivery; the hub receives exactly one
	// value per sending worker at most (receiver merge collapses those
	// too, so received is 1).
	if ss.MessagesCombined != 3*leaves-1 {
		t.Errorf("combined = %d, want %d", ss.MessagesCombined, 3*leaves-1)
	}
	if got := stats.PerSuperstep[1].MessagesReceived; got != 1 {
		t.Errorf("received = %d, want 1", got)
	}
}

// TestDuplicateEdgesMutatingCombiner is the regression test for a
// sender-side combining aliasing bug: SendMessageToAllEdges used to
// hand the original Value to the first edge and clone it for the rest,
// but with duplicate parallel edges to one target the combiner mutates
// the stored original in place between sends, so later clones copied
// the partially-combined value and the fold doubled instead of summed.
// The standard combiner folds unboxed bits, which cannot alias;
// "lanes-boxed" keeps the boxed path under the same test.
func TestDuplicateEdgesMutatingCombiner(t *testing.T) {
	const dup = 5
	for _, tc := range []struct {
		name     string
		combiner Combiner
	}{
		{"lanes", SumDoubleCombiner},
		{"lanes-boxed", boxed(SumDoubleCombiner)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := NewGraph()
			g.AddVertex(0, NewDouble(0))
			g.AddVertex(1, NewDouble(0))
			for i := 0; i < dup; i++ {
				g.AddEdge(1, 0, nil) // duplicate parallel edges
			}
			comp := ComputeFunc(func(ctx Context, v *Vertex, msgs []Value) error {
				if ctx.Superstep() == 0 && v.ID() == 1 {
					ctx.SendMessageToAllEdges(v, NewDouble(0.25))
				}
				if ctx.Superstep() == 1 && v.ID() == 0 {
					var sum float64
					for _, m := range msgs {
						sum += m.(*DoubleValue).Get()
					}
					if sum != dup*0.25 {
						t.Errorf("delivered sum = %v, want %v", sum, dup*0.25)
					}
				}
				v.VoteToHalt()
				return nil
			})
			cfg := Config{NumWorkers: 2, Combiner: tc.combiner}
			if _, err := NewJob(g, comp, cfg).Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCombinerPanicAtBarrierFailsJob: four workers each send vertex 0
// one message, so nothing meets at a sender and the combiner first runs
// in the barrier's lane merge. A panic there must fail the job
// with a ComputeError, not take the process down.
func TestCombinerPanicAtBarrierFailsJob(t *testing.T) {
	g := NewGraph()
	for i := 0; i < 4; i++ {
		g.AddVertex(VertexID(i), NewLong(0))
	}
	comp := ComputeFunc(func(ctx Context, v *Vertex, _ []Value) error {
		if ctx.Superstep() == 0 {
			ctx.SendMessage(0, NewLong(1))
		}
		v.VoteToHalt()
		return nil
	})
	boom := CombineFunc(func(VertexID, Value, Value) Value { panic("boom") })
	_, err := NewJob(g, comp, Config{NumWorkers: 4, Combiner: boom}).Run()
	var ce *ComputeError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want a *ComputeError", err)
	}
	if ce.Panic != "boom" || ce.Superstep != 0 || ce.VertexID != 0 {
		t.Errorf("ComputeError = %+v, want panic boom for vertex 0 at superstep 0", ce)
	}
}

// TestScalarCombinerRejectsWrongType: under a standard combiner a
// message is unboxed when it is sent, so one of the wrong type fails in
// the Compute that sent it.
func TestScalarCombinerRejectsWrongType(t *testing.T) {
	g := NewGraph()
	g.AddVertex(0, NewLong(0))
	g.AddVertex(1, NewLong(0))
	comp := ComputeFunc(func(ctx Context, v *Vertex, _ []Value) error {
		if v.ID() == 1 {
			ctx.SendMessage(0, NewLong(1))
		}
		v.VoteToHalt()
		return nil
	})
	_, err := NewJob(g, comp, Config{NumWorkers: 2, Combiner: SumDoubleCombiner}).Run()
	var ce *ComputeError
	if !errors.As(err, &ce) || ce.Panic == nil || ce.VertexID != 1 {
		t.Fatalf("err = %v, want a *ComputeError for the panic in vertex 1's Compute", err)
	}
}

// total returns the number of messages received across all shards
// (before combining), including messages still sitting in unmerged
// lanes.
func (s *messageStore) total() int64 {
	var n int64
	for i := range s.shards {
		n += s.shards[i].n
	}
	for i := range s.lanes {
		for j := range s.lanes[i] {
			n += s.lanes[i][j].n
		}
	}
	return n
}

// TestScalarPlaneAllocations is the allocation gate for the unboxed
// path, independent of the clock: in steady state, sending 65,536
// messages under a standard combiner into the senders' dense cells and
// merging them allocates next to nothing — at most 0.01 allocations per
// message — until take boxes the delivered cells.
func TestScalarPlaneAllocations(t *testing.T) {
	const workers, nVerts, perWorker = 4, 1024, 16384
	g := NewGraph()
	for i := 0; i < nVerts; i++ {
		g.AddVertex(VertexID(i), NewLong(0))
	}
	noop := ComputeFunc(func(Context, *Vertex, []Value) error { return nil })
	en := newEngine(NewJob(g, noop, Config{NumWorkers: workers, Combiner: SumLongCombiner}))
	msg := NewLong(1)
	superstep := func() {
		for w := 0; w < workers; w++ {
			ctx := en.workerCtx(w, nVerts, 0)
			for k := 0; k < perWorker; k++ {
				ctx.SendMessage(VertexID((w*perWorker+k*7)%nVerts), msg)
			}
		}
		for w := 0; w < workers; w++ {
			en.next.mergeLane(en.parts[w])
		}
		if en.next.total() != workers*perWorker {
			t.Fatalf("merged %d messages, want %d", en.next.total(), workers*perWorker)
		}
		en.next.reset()
	}
	perMsg := testing.AllocsPerRun(5, superstep) / (workers * perWorker)
	if perMsg > 0.01 {
		t.Errorf("send → flush → merge allocates %.4f allocs/message, want at most 0.01", perMsg)
	}
}

// TestTinyFlushBatchLosesNothing forces a tiny flush batch (the
// engine's unexported field; jobs always run at msgFlushBatch) and
// checks nothing is lost.
func TestTinyFlushBatchLosesNothing(t *testing.T) {
	for _, batch := range []int{1, 3} {
		t.Run(fmt.Sprintf("lanes-batch%d", batch), func(t *testing.T) {
			const fanout = 200
			g := NewGraph()
			g.AddVertex(0, NewLong(0))
			for i := 1; i <= fanout; i++ {
				g.AddVertex(VertexID(i), NewLong(0))
			}
			var delivered atomic.Int64
			comp := ComputeFunc(func(ctx Context, v *Vertex, msgs []Value) error {
				if ctx.Superstep() == 0 && v.ID() == 0 {
					for i := 1; i <= fanout; i++ {
						ctx.SendMessage(VertexID(i), NewLong(int64(i)))
					}
				}
				if ctx.Superstep() == 1 && len(msgs) > 0 {
					if got := msgs[0].(*LongValue).Get(); got != int64(v.ID()) {
						t.Errorf("vertex %d got %d", v.ID(), got)
					}
					delivered.Add(int64(len(msgs)))
				}
				v.VoteToHalt()
				return nil
			})
			en := newEngine(NewJob(g, comp, Config{NumWorkers: 4}))
			en.flushBatch = batch
			stats, err := en.run(time.Now())
			if err != nil {
				t.Fatal(err)
			}
			if delivered.Load() != fanout {
				t.Errorf("delivered %d of %d messages", delivered.Load(), fanout)
			}
			if stats.TotalMessages != fanout {
				t.Errorf("TotalMessages = %d", stats.TotalMessages)
			}
		})
	}
}

// TestMutableValueInboxIsolation is the regression test for the
// SendMessageToAllEdges fast path: mutable values must still be cloned
// per recipient, so one receiver mutating its message cannot corrupt
// another's inbox.
func TestMutableValueInboxIsolation(t *testing.T) {
	g := NewGraph()
	g.AddVertex(0, NewLong(0))
	g.AddVertex(1, NewLong(0))
	g.AddVertex(2, NewLong(0))
	g.AddEdge(0, 1, nil)
	g.AddEdge(0, 2, nil)
	comp := ComputeFunc(func(ctx Context, v *Vertex, msgs []Value) error {
		if ctx.Superstep() == 0 && v.ID() == 0 {
			ctx.SendMessageToAllEdges(v, NewLong(7))
		}
		if ctx.Superstep() == 1 && v.ID() != 0 {
			if len(msgs) != 1 {
				t.Errorf("vertex %d got %d messages, want 1", v.ID(), len(msgs))
			} else {
				if got := msgs[0].(*LongValue).Get(); got != 7 {
					t.Errorf("vertex %d read %d, want 7 (inbox not isolated?)", v.ID(), got)
				}
				// Scribble over the received value: with per-recipient
				// clones this must not be visible anywhere else.
				msgs[0].(*LongValue).Set(999)
			}
		}
		v.VoteToHalt()
		return nil
	})
	// One worker makes receiver order deterministic: vertex 1 mutates
	// before vertex 2 reads, so a shared object would be caught.
	if _, err := NewJob(g, comp, Config{NumWorkers: 1}).Run(); err != nil {
		t.Fatal(err)
	}
}

// TestImmutableValueFanout exercises the no-clone fast path (NilValue
// is immutable, no combiner installed) and the fallback when a
// combiner forces cloning anyway.
func TestImmutableValueFanout(t *testing.T) {
	run := func(combiner Combiner) {
		const spokes = 60
		g := NewGraph()
		g.AddVertex(0, NewLong(0))
		for i := 1; i <= spokes; i++ {
			g.AddVertex(VertexID(i), NewLong(0))
			g.AddEdge(0, VertexID(i), nil)
		}
		var arrived atomic.Int64
		comp := ComputeFunc(func(ctx Context, v *Vertex, msgs []Value) error {
			if ctx.Superstep() == 0 && v.ID() == 0 {
				ctx.SendMessageToAllEdges(v, Nil())
			}
			if ctx.Superstep() == 1 {
				arrived.Add(int64(len(msgs)))
			}
			v.VoteToHalt()
			return nil
		})
		cfg := Config{NumWorkers: 4}
		if combiner != nil {
			cfg.Combiner = combiner
		}
		if _, err := NewJob(g, comp, cfg).Run(); err != nil {
			t.Fatal(err)
		}
		want := int64(spokes)
		if combiner != nil {
			// One combined Nil per destination vertex: still spokes inboxes.
			want = spokes
		}
		if arrived.Load() != want {
			t.Errorf("arrived = %d, want %d", arrived.Load(), want)
		}
	}
	run(nil)
	run(CombineFunc(func(to VertexID, a, b Value) Value { return a }))
}

// starGraph builds a hub-and-spokes graph whose hub fans out every
// superstep. The locality placer packs the hub's partition with spokes
// up to capacity, so its table differs from the hash for most vertices.
func starGraph(t testing.TB, spokes int) *Graph {
	t.Helper()
	g := NewGraph()
	g.AddVertex(0, NewLong(0))
	for i := 1; i <= spokes; i++ {
		g.AddVertex(VertexID(i), NewLong(0))
		if err := g.AddEdge(0, VertexID(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// pulseCompute keeps the hub broadcasting for a fixed number of
// supersteps; spokes count what arrives.
func pulseCompute(rounds int, got *atomic.Int64) ComputeFunc {
	return func(ctx Context, v *Vertex, msgs []Value) error {
		got.Add(int64(len(msgs)))
		if v.ID() == 0 && ctx.Superstep() < rounds {
			ctx.SendMessageToAllEdges(v, NewLong(int64(ctx.Superstep())))
			return nil
		}
		v.VoteToHalt()
		return nil
	}
}

// placementOf reads which partition holds every live vertex.
func placementOf(en *engine) map[VertexID]int {
	at := make(map[VertexID]int)
	for i, p := range en.parts {
		for _, v := range p.slots {
			if v != nil {
				at[v.id] = i
			}
		}
	}
	return at
}

// TestRebalancerOffByDefault: placement is fixed at load, so no config
// ever moves a vertex. After a hash- or locality-placed run, with or
// without a whole-job crash and checkpoint restart, every vertex sits
// on the partition it was loaded into, and partitionFor still names it.
func TestRebalancerOffByDefault(t *testing.T) {
	const spokes, rounds = 200, 4
	for _, p := range []PartitionerMode{PartitionHash, PartitionLocality} {
		for _, crash := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v/crash=%v", p, crash), func(t *testing.T) {
				cfg := Config{NumWorkers: 4, Partitioner: p}
				if crash {
					fired := false
					cfg.CheckpointEvery = 2
					cfg.CheckpointFS = dfs.NewMemFS()
					cfg.FailureAt = func(superstep int) bool {
						if superstep == 3 && !fired {
							fired = true
							return true
						}
						return false
					}
				}
				var got atomic.Int64
				en := newEngine(NewJob(starGraph(t, spokes), pulseCompute(rounds, &got), cfg))
				loaded := placementOf(en)
				stats, err := en.run(time.Now())
				if err != nil {
					t.Fatal(err)
				}
				if wantRec := map[bool]int{false: 0, true: 1}[crash]; stats.Recoveries != wantRec {
					t.Fatalf("recoveries = %d, want %d", stats.Recoveries, wantRec)
				}
				if got.Load() < spokes*rounds {
					t.Errorf("delivered %d messages, want at least %d", got.Load(), spokes*rounds)
				}
				final := placementOf(en)
				if len(final) != len(loaded) {
					t.Fatalf("%d vertices after the run, %d at load", len(final), len(loaded))
				}
				for id, at := range loaded {
					if final[id] != at {
						t.Errorf("vertex %d moved from partition %d to %d", id, at, final[id])
					}
					if route := en.partitionFor(id); route != at {
						t.Errorf("vertex %d lives on partition %d but routes to %d", id, at, route)
					}
				}
			})
		}
	}
}

// TestRebalancerSurvivesRecovery crashes a locality-placed job after
// its first checkpoints and checks that the restore installs the
// checkpoint's placement table (checkpoint format v2): the restored
// table holds the same assignments as the one built at load, so
// post-recovery messages still reach the spokes the placer moved off
// their hash partition.
func TestRebalancerSurvivesRecovery(t *testing.T) {
	const spokes, rounds = 200, 8
	var got atomic.Int64
	crashed := false
	en := newEngine(NewJob(starGraph(t, spokes), pulseCompute(rounds, &got), Config{
		NumWorkers:      4,
		Partitioner:     PartitionLocality,
		CheckpointEvery: 2,
		CheckpointFS:    dfs.NewMemFS(),
		FailureAt: func(superstep int) bool {
			if superstep == 5 && !crashed {
				crashed = true
				return true
			}
			return false
		},
	}))
	if en.assign.len() == 0 {
		t.Fatal("locality placement matched the hash everywhere; the table is not exercised")
	}
	wantIDs, wantParts := en.assign.pairs()
	stats, err := en.run(time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Recoveries != 1 {
		t.Fatalf("recoveries = %d, want 1", stats.Recoveries)
	}
	if en.assign.len() != len(wantIDs) {
		t.Fatalf("restored table holds %d assignments, want %d", en.assign.len(), len(wantIDs))
	}
	gotIDs, gotParts := en.assign.pairs()
	for i := range wantIDs {
		if gotIDs[i] != wantIDs[i] || gotParts[i] != wantParts[i] {
			t.Fatalf("assignment %d: restored %d→%d, loaded %d→%d",
				i, gotIDs[i], gotParts[i], wantIDs[i], wantParts[i])
		}
	}
	// Deliveries replayed after recovery are counted twice by the
	// observer; the invariant is "at least every logical message".
	if got.Load() < spokes*rounds {
		t.Errorf("delivered %d messages, want at least %d", got.Load(), spokes*rounds)
	}
	// The hub must have kept broadcasting correctly to the final round.
	last := stats.PerSuperstep[len(stats.PerSuperstep)-1]
	if last.Superstep != rounds {
		t.Errorf("final superstep = %d, want %d", last.Superstep, rounds)
	}
}

// TestEdgeTargetChangesReachColumn: a Compute that changes its vertex's
// targets — AddEdge (one to a vertex that does not exist), RemoveEdges,
// RemoveAllEdges, SortEdges — and then calls SendMessageToAllEdges in
// the same superstep reaches exactly its new targets, with the
// partition's edge slot column already built. Every vertex sends 1
// along each edge, so under SumLong a vertex receives its new in-degree.
// The CombineFunc twin also adds 1000·to at every combine: a
// destination slot paired with the wrong edge target (a stale run after
// SortEdges) changes what it delivers.
func TestEdgeTargetChangesReachColumn(t *testing.T) {
	const n = 40
	toAware := CombineFunc(func(to VertexID, a, b Value) Value {
		return NewLong(a.(*LongValue).Get() + b.(*LongValue).Get() + 1000*int64(to))
	})
	comp := ComputeFunc(func(ctx Context, v *Vertex, msgs []Value) error {
		id := int64(v.ID())
		switch ctx.Superstep() {
		case 0:
		case 1:
			switch id % 5 {
			case 0:
				v.AddEdge(Edge{Target: VertexID((id + 20) % n)})
				v.AddEdge(Edge{Target: VertexID(n + id)}) // no such vertex: dropped
			case 1:
				v.RemoveEdges(VertexID((id + 3) % n)) // a duplicated target
			case 2:
				v.RemoveAllEdges()
				v.AddEdge(Edge{Target: VertexID((id + 5) % n)})
			case 3:
				v.SortEdges()
			default:
				if id%10 == 4 {
					v.RemoveAllEdges()
				}
			}
		default:
			var sum int64
			for _, m := range msgs {
				sum += m.(*LongValue).Get()
			}
			v.SetValue(NewLong(sum))
			v.VoteToHalt()
			return nil
		}
		ctx.SendMessageToAllEdges(v, NewLong(1))
		return nil
	})
	for _, tc := range []struct {
		name     string
		combiner Combiner
	}{{"rows", SumLongCombiner}, {"boxed", toAware}} {
		t.Run(tc.name, func(t *testing.T) {
			g := NewGraph()
			for i := 0; i < n; i++ {
				g.AddVertex(VertexID(i), NewLong(0))
			}
			for i := 0; i < n; i++ {
				for _, d := range []int{7, 3, 3, 11, 1} { // unsorted, one target twice
					if err := g.AddEdge(VertexID(i), VertexID((i+d)%n), nil); err != nil {
						t.Fatal(err)
					}
				}
			}
			en := newEngine(NewJob(g, comp, Config{NumWorkers: 2, Combiner: tc.combiner}))
			stats, err := en.run(time.Now())
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range en.parts {
				if p.dst == nil {
					t.Fatalf("partition %d never built its edge slot column", p.idx)
				}
			}
			indeg := map[VertexID]int64{}
			for i := 0; i < n; i++ {
				for _, e := range g.Vertex(VertexID(i)).Edges() {
					indeg[e.Target]++
				}
			}
			for i := 0; i < n; i++ {
				id := VertexID(i)
				want := indeg[id]
				if tc.name == "boxed" && want > 0 {
					want += 1000 * int64(id) * (want - 1)
				}
				if got := g.Vertex(id).Value().(*LongValue).Get(); got != want {
					t.Errorf("vertex %d received %d, want %d", id, got, want)
				}
			}
			if stats.MessagesDropped != n/5 {
				t.Errorf("MessagesDropped = %d, want %d", stats.MessagesDropped, n/5)
			}
		})
	}
}

// TestCombinedMailToRemovedVertex sends combined mail in superstep 0 to
// vertices that superstep 0's barrier removes — seven in eight, so the
// partitions also compact at that barrier and the survivors' mail moves
// with their slots. Each removed vertex's message is counted as
// dropped. The standard combiner and its CombineFunc twin must end in
// the same values.
func TestCombinedMailToRemovedVertex(t *testing.T) {
	const n, hub = 40, 5
	comp := ComputeFunc(func(ctx Context, v *Vertex, msgs []Value) error {
		id := int64(v.ID())
		if ctx.Superstep() == 0 {
			if id != hub {
				ctx.SendMessage(hub, NewLong(id))
				ctx.SendMessage(hub, NewLong(id))
			}
			ctx.SendMessageToAllEdges(v, NewLong(1))
			if id%8 != 0 {
				ctx.RemoveVertexRequest(v.ID())
			}
			return nil
		}
		if len(msgs) != 1 {
			t.Errorf("vertex %d got %d messages, want one combined", id, len(msgs))
		}
		var sum int64
		for _, m := range msgs {
			sum += m.(*LongValue).Get()
		}
		v.SetValue(NewLong(sum))
		v.VoteToHalt()
		return nil
	})
	digests := map[string]string{}
	for _, col := range []struct {
		suffix   string
		combiner Combiner
	}{{"/rows", SumLongCombiner}, {"/boxed", boxed(SumLongCombiner)}} {
		// create=false: mail to a missing ID is dropped and creates nothing.
		t.Run("create=false"+col.suffix, func(t *testing.T) {
			g := NewGraph()
			for i := 0; i < n; i++ {
				g.AddVertex(VertexID(i), NewLong(0))
			}
			for i := 0; i < n; i++ {
				for d := 1; d <= 3; d++ {
					if err := g.AddEdge(VertexID(i), VertexID((i+d)%n), nil); err != nil {
						t.Fatal(err)
					}
				}
			}
			stats, c := runChecked(t, NewJob(g, comp, Config{NumWorkers: 2, Combiner: col.combiner}))
			if !c.compacted {
				t.Error("no partition compacted at the removal barrier")
			}
			removed := int64(0)
			for i := int64(0); i < n; i++ {
				want := int64(3) // one from each of three in-edges
				if i == hub {
					want += 2 * (n*(n-1)/2 - hub)
				}
				if i%8 != 0 {
					removed++
					want = 0 // removed before its mail arrived: the loaded value
				}
				if got := g.Vertex(VertexID(i)).Value().(*LongValue).Get(); got != want {
					t.Errorf("vertex %d holds %d, want %d", i, got, want)
				}
			}
			if stats.MessagesDropped != removed {
				t.Errorf("MessagesDropped = %d, want %d", stats.MessagesDropped, removed)
			}
			digests[col.suffix] = g.ValuesDigest()
		})
	}
	if digests["/rows"] != digests["/boxed"] {
		t.Error("standard combiner and its CombineFunc twin end in different values")
	}
}
