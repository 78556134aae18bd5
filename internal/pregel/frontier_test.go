package pregel

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"graft/internal/dfs"
)

// frontierChecker is a JobListener that audits the frontier
// bookkeeping on the coordinator goroutine, at the start of every
// superstep (which is also where a job resumes after either kind of
// recovery) and at every barrier:
//
//	awake          == {live slots whose vertex has not halted}
//	partActive[w]  == popcount(awake)
//	pending        == {slots with a non-empty inbox cell}, all live
//	                  (a cs cell has no empty state: its pending bit is
//	                  what makes it one, so there the check is that the
//	                  column covers every bit and the boxed columns stay
//	                  unused)
//	orphans        == {} once integrateMissing has run
//
// plus the slot index agreeing with the slot array and the routing
// table. It also notes whether it ever saw tombstones and a compaction
// (a vertex that stayed in its partition but moved to a lower slot), so
// a case can prove it exercised them.
type frontierChecker struct {
	t          *testing.T
	en         *engine
	lastSeat   map[VertexID][2]int // partition and slot at the previous check
	tombstones bool
	compacted  bool
	sawRows    bool // audited at least one scalar (cs) shard
}

func (c *frontierChecker) JobStarted(JobInfo)        {}
func (c *frontierChecker) JobFinished(*Stats, error) {}
func (c *frontierChecker) SuperstepStarted(s int, _ SuperstepInfo) {
	c.check(fmt.Sprintf("start of superstep %d", s), c.en.cur, c.en.next)
}
func (c *frontierChecker) SuperstepFinished(s int, _ SuperstepStats) {
	c.check(fmt.Sprintf("barrier of superstep %d", s), c.en.next, c.en.cur)
}

// check audits every partition against `full`, the store holding the
// inboxes of the superstep about to run, and `drained`, the one the
// last scan emptied.
func (c *frontierChecker) check(where string, full, drained *messageStore) {
	en := c.en
	seats := map[VertexID][2]int{}
	defer func() { c.lastSeat = seats }()
	for _, p := range en.parts {
		at := fmt.Sprintf("%s, partition %d", where, p.idx)
		live, awake := 0, 0
		for s, v := range p.slots {
			if v == nil {
				if p.awake.test(s) {
					c.t.Errorf("%s: tombstone %d is awake", at, s)
				}
				continue
			}
			live++
			seats[v.id] = [2]int{p.idx, s}
			if was, ok := c.lastSeat[v.id]; ok && was[0] == p.idx && was[1] > s {
				c.compacted = true
			}
			if got, ok := p.index.lookup(v.id); !ok || got != s {
				c.t.Errorf("%s: index maps vertex %d to (%d, %v), slot is %d", at, v.id, got, ok, s)
			}
			if v.owner != p || en.partitionFor(v.id) != p.idx {
				c.t.Errorf("%s: vertex %d in slot %d is owned or routed elsewhere", at, v.id, s)
			}
			if p.awake.test(s) == v.halted {
				c.t.Errorf("%s: vertex %d halted=%v but awake bit=%v", at, v.id, v.halted, p.awake.test(s))
			}
			if !v.halted {
				awake++
			}
		}
		if p.live != live || p.removed != len(p.slots)-live {
			c.t.Errorf("%s: live=%d removed=%d, slots hold %d live of %d", at, p.live, p.removed, live, len(p.slots))
		}
		if n := p.awake.count(); n != awake || en.partActive[p.idx] != int64(awake) {
			c.t.Errorf("%s: %d vertices awake, bitmap has %d, partActive %d", at, awake, n, en.partActive[p.idx])
		}
		if p.removed > 0 {
			c.tombstones = true
		}

		sh := &full.shards[p.idx]
		if full.scalar != 0 {
			c.sawRows = true
			if len(sh.c) != 0 || len(sh.m) != 0 {
				c.t.Errorf("%s: scalar shard also has %d boxed and %d list cells", at, len(sh.c), len(sh.m))
			}
		} else if len(sh.cs) != 0 {
			c.t.Errorf("%s: boxed shard also has %d scalar cells", at, len(sh.cs))
		}
		cells := max(len(sh.c), len(sh.m), len(sh.cs), len(sh.pending)<<6)
		pending := 0
		for s := 0; s < cells; s++ {
			nonEmpty := false
			switch {
			case full.scalar != 0:
				nonEmpty = sh.pending.test(s)
				if nonEmpty && s >= len(sh.cs) {
					c.t.Errorf("%s: pending bit %d beyond the %d scalar cells", at, s, len(sh.cs))
				}
			case full.combiner != nil:
				nonEmpty = s < len(sh.c) && sh.c[s] != nil
			default:
				nonEmpty = s < len(sh.m) && len(sh.m[s]) > 0
			}
			if sh.pending.test(s) != nonEmpty {
				c.t.Errorf("%s: cell %d non-empty=%v but pending bit=%v", at, s, nonEmpty, sh.pending.test(s))
			}
			if nonEmpty {
				pending++
				if s >= len(p.slots) || p.slots[s] == nil {
					c.t.Errorf("%s: cell %d holds mail for no vertex", at, s)
				}
			}
		}
		if sh.pending.count() != pending {
			c.t.Errorf("%s: %d cells pending, bitmap has %d", at, pending, sh.pending.count())
		}
		if d := &drained.shards[p.idx]; d.pending.any() {
			c.t.Errorf("%s: drained shard still has %d pending cells", at, d.pending.count())
		}
		if len(sh.orphans) != 0 || len(drained.shards[p.idx].orphans) != 0 {
			c.t.Errorf("%s: orphans survive the barrier: %v", at, sh.orphans)
		}
	}
}

// boxed hides a standard combiner inside a CombineFunc: the same
// reduction, of a type the engine does not recognise, so its messages
// stay boxed.
func boxed(std Combiner) Combiner {
	return CombineFunc(func(to VertexID, a, b Value) Value { return std.Combine(to, a, b) })
}

// inboxColumns are the three layouts an inbox shard can have, as subtest
// suffixes: message lists (no combiner), boxed cells (a combiner the
// engine does not recognise) and the unboxed cs column (a standard
// combiner). Every test message here is a LongValue
// folded by min, so all three run the same job.
var inboxColumns = []struct {
	suffix   string
	combiner Combiner
}{
	{"", nil},
	{"/boxed", boxed(MinLongCombiner)},
	{"/rows", MinLongCombiner},
}

// runChecked runs the job with a frontierChecker attached. A job that
// should have travelled as rows must have had its cs column audited.
func runChecked(t *testing.T, job *Job) (*Stats, *frontierChecker) {
	t.Helper()
	c := &frontierChecker{t: t}
	job.cfg.Listener = c
	en := newEngine(job)
	en.ctx = context.Background()
	c.en = en
	stats, err := en.run(time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if _, rows := job.cfg.Combiner.(scalarCombiner); rows != c.sawRows {
		t.Errorf("job should use the scalar column = %v, checker saw one = %v", rows, c.sawRows)
	}
	return stats, c
}

// ccSubgraph is ccCompute's subgraph port: collapse each component to
// the minimum label it has seen and push it across boundary edges.
var ccSubgraph = SubgraphFunc(func(ctx SubgraphContext, sg *Subgraph) error {
	min := int64(sg.ID())
	changed := ctx.Superstep() == 0
	for i, v := range sg.Members() {
		if ctx.Superstep() > 0 {
			if x := v.Value().(*LongValue).Get(); x < min {
				min = x
			}
		}
		for _, m := range sg.Messages(i) {
			if x := m.(*LongValue).Get(); x < min {
				min = x
			}
		}
	}
	for _, v := range sg.Members() {
		if ctx.Superstep() == 0 || v.Value().(*LongValue).Get() != min {
			v.SetValue(NewLong(min))
			changed = true
		}
	}
	if changed {
		for _, v := range sg.Members() {
			for _, e := range v.Edges() {
				if !sg.Has(e.Target) {
					ctx.SendMessage(v.ID(), e.Target, NewLong(min))
				}
			}
		}
	}
	ctx.VoteToHalt()
	return nil
})

// churnCompute drives every mutation path over a 40-vertex ring: halts
// that mail revokes, mass self-removal (compaction), mail to the just
// removed, re-adding a removed ID, remove-and-add of one ID in one
// superstep, an ID beyond the load-time range, and mail to an ID that
// never existed, and a lone removal whose tombstone stays.
var churnCompute = ComputeFunc(func(ctx Context, v *Vertex, msgs []Value) error {
	id := v.ID()
	switch ctx.Superstep() {
	case 0:
		ctx.SendMessageToAllEdges(v, NewLong(int64(id)))
		if id%8 == 0 {
			v.VoteToHalt()
		}
	case 1:
		ctx.SendMessageToAllEdges(v, NewLong(int64(id)))
		if id%4 != 0 {
			ctx.RemoveVertexRequest(id)
		}
	case 2:
		if id == 0 {
			ctx.AddVertexRequest(1, NewLong(100))
			ctx.AddVertexRequest(1000, NewLong(100))
			ctx.RemoveVertexRequest(4)
			ctx.AddVertexRequest(4, NewLong(100))
			ctx.SendMessage(2000, NewLong(0))
			ctx.SendMessage(1000, NewLong(0))
		}
	default:
		if id == 8 && ctx.Superstep() == 3 {
			ctx.RemoveVertexRequest(12) // a lone tombstone, left in place
		}
		v.VoteToHalt()
	}
	return nil
})

func ringGraph(t *testing.T, n int) *Graph {
	t.Helper()
	g := pathGraph(t, n)
	if err := g.AddUndirectedEdge(VertexID(n-1), 0, nil); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestFrontierInvariantsAcrossMutations(t *testing.T) {
	for _, create := range []bool{true, false} {
		for _, col := range inboxColumns {
			t.Run(fmt.Sprintf("lanes/create=%v%s", create, col.suffix), func(t *testing.T) {
				g := ringGraph(t, 40)
				stats, c := runChecked(t, NewJob(g, churnCompute, Config{
					NumWorkers:            3,
					Combiner:              col.combiner,
					CreateMissingVertices: create,
					DefaultVertexValue:    func() Value { return NewLong(-1) },
				}))
				if !c.tombstones || !c.compacted {
					t.Errorf("tombstones seen=%v, compaction seen=%v; the case exercised neither", c.tombstones, c.compacted)
				}
				if (stats.MessagesDropped > 0) == create {
					t.Errorf("CreateMissingVertices=%v but MessagesDropped=%d", create, stats.MessagesDropped)
				}
				if g.Vertex(1000) == nil || g.Vertex(1000).Value().(*LongValue).Get() != 100 {
					t.Errorf("vertex 1000 was not added beyond the load-time ID range")
				}
				if got := g.Vertex(4).Value().(*LongValue).Get(); got != 100 {
					t.Errorf("vertex 4 removed and added in one superstep has value %d, want the added 100", got)
				}
				// Mail to the never-existing 2000 creates it only under the
				// resolver; mail to the just-removed ring members re-creates
				// them with the default value.
				if (g.Vertex(2000) != nil) != create {
					t.Errorf("vertex 2000 exists=%v with CreateMissingVertices=%v", g.Vertex(2000) != nil, create)
				}
				if got := g.Vertex(1).Value().(*LongValue).Get(); create && got != -1 {
					t.Errorf("vertex 1 re-created by the resolver has value %d, want the default -1", got)
				} else if !create && got != 100 {
					t.Errorf("vertex 1 re-added by request has value %d, want 100", got)
				}
			})
		}
	}
}

func TestFrontierInvariantsAcrossMigrationAndRecovery(t *testing.T) {
	once := func(at int) func(int) bool {
		fired := false
		return func(s int) bool {
			if s == at && !fired {
				fired = true
				return true
			}
			return false
		}
	}
	type testCase struct {
		name  string
		graph func(t *testing.T) *Graph
		cfg   func() Config
		check func(t *testing.T, stats *Stats)
	}
	cc := func(t *testing.T) *Graph { return pathGraph(t, 24) }
	cases := []testCase{
		{
			name:  "edgecut-migration",
			graph: func(t *testing.T) *Graph { return clusteredGraph(t, 24, 30, 5) },
			cfg:   func() Config { return Config{NumWorkers: 4, RebalanceObjective: ObjectiveEdgeCut} },
			check: func(t *testing.T, stats *Stats) {
				if stats.VerticesMigrated == 0 {
					t.Error("edge-cut rebalancer never migrated")
				}
			},
		},
		{
			name:  "checkpoint-restart",
			graph: cc,
			cfg: func() Config {
				return Config{NumWorkers: 3, CheckpointEvery: 2, CheckpointFS: dfs.NewMemFS(), FailureAt: once(3)}
			},
			check: func(t *testing.T, stats *Stats) {
				if len(stats.RecoveryEvents) != 1 || stats.RecoveryEvents[0].Mode != "checkpoint" {
					t.Errorf("recovery events = %+v, want one checkpoint restart", stats.RecoveryEvents)
				}
			},
		},
		{
			name:  "log-recovery-nested",
			graph: cc,
			cfg: func() Config {
				// Partition 1 fails at live barrier 3; the next hook
				// consultation is a replayed barrier, where partition 0
				// fails inside the first recovery.
				stage := 0
				return Config{
					NumWorkers: 3, CheckpointEvery: 4, CheckpointFS: dfs.NewMemFS(),
					Recovery: RecoveryLog, MsgLogFS: dfs.NewMemFS(),
					PartitionFailureAt: func(s int) []int {
						switch {
						case stage == 0 && s == 3:
							stage = 1
							return []int{1}
						case stage == 1:
							stage = 2
							return []int{0}
						}
						return nil
					},
				}
			},
			check: func(t *testing.T, stats *Stats) {
				if stats.Recoveries != 2 || len(stats.RecoveryEvents) != 1 || stats.RecoveryEvents[0].Mode != "log" {
					t.Errorf("recoveries=%d events=%+v, want one log recovery with a nested failure",
						stats.Recoveries, stats.RecoveryEvents)
				}
			},
		},
	}
	for _, tc := range cases {
		want := tc.graph(t)
		if _, err := NewJob(want, ccCompute, Config{NumWorkers: 3}).Run(); err != nil {
			t.Fatal(err)
		}
		for _, mode := range []ComputeMode{ModeVertex, ModeSubgraph} {
			for _, col := range inboxColumns {
				t.Run(fmt.Sprintf("%s/%v%s", tc.name, mode, col.suffix), func(t *testing.T) {
					g := tc.graph(t)
					cfg := tc.cfg()
					cfg.Combiner = col.combiner
					job := NewJob(g, ccCompute, cfg)
					if mode == ModeSubgraph {
						job = NewSubgraphJob(g, ccSubgraph, cfg)
					}
					stats, _ := runChecked(t, job)
					tc.check(t, stats)
					if g.ValuesDigest() != want.ValuesDigest() {
						t.Error("labels differ from the undisturbed vertex-mode run")
					}
				})
			}
		}
	}
}

// TestFrontierInvariantsAcrossSkewMigration moves spokes that hold
// pending hub broadcasts between partitions: a migration that dropped
// an inbox would lose deliveries.
func TestFrontierInvariantsAcrossSkewMigration(t *testing.T) {
	const spokes, rounds = 400, 6
	for _, col := range inboxColumns {
		cfg := Config{NumWorkers: 4, RebalanceSkew: 1.5, Combiner: col.combiner}
		t.Run("vertex"+col.suffix, func(t *testing.T) {
			var got atomic.Int64
			stats, _ := runChecked(t, NewJob(starGraph(t, spokes), pulseCompute(rounds, &got), cfg))
			if stats.VerticesMigrated == 0 {
				t.Fatalf("rebalancer never triggered: %+v", stats)
			}
			if got.Load() != spokes*rounds {
				t.Errorf("delivered %d messages, want %d", got.Load(), spokes*rounds)
			}
		})
		t.Run("subgraph"+col.suffix, func(t *testing.T) {
			var got atomic.Int64
			pulse := SubgraphFunc(func(ctx SubgraphContext, sg *Subgraph) error {
				for i := range sg.Members() {
					got.Add(int64(len(sg.Messages(i))))
				}
				if hub, ok := sg.Index(0); ok && ctx.Superstep() < rounds {
					for _, e := range sg.Member(hub).Edges() {
						ctx.SendMessage(0, e.Target, NewLong(int64(ctx.Superstep())))
					}
					return nil
				}
				ctx.VoteToHalt()
				return nil
			})
			stats, _ := runChecked(t, NewSubgraphJob(starGraph(t, spokes), pulse, cfg))
			if stats.VerticesMigrated == 0 {
				t.Fatalf("rebalancer never triggered: %+v", stats)
			}
			if got.Load() != spokes*rounds {
				t.Errorf("delivered %d messages, want %d", got.Load(), spokes*rounds)
			}
		})
	}
}
