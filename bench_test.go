package graft_test

// Benchmarks regenerating the paper's evaluation artifacts. One bench
// target exists for every table and figure (EXPERIMENTS.md maps them),
// plus ablations for the design choices DESIGN.md §5 calls out.
//
// Scale note: the paper ran on a 36-node cluster over billion-edge
// graphs; these benches run the same grid over seeded synthetic
// stand-ins at laptop scale (override with GRAFT_BENCH_SCALE). The
// reproduced quantity is the *relative* overhead of each DebugConfig,
// not absolute seconds.

import (
	"context"
	"fmt"
	"io"
	"os"
	"strconv"
	"testing"

	"graft/internal/algorithms"
	"graft/internal/core"
	"graft/internal/dfs"
	"graft/internal/graphgen"
	"graft/internal/gui"
	"graft/internal/harness"
	"graft/internal/pregel"
	"graft/internal/repro"
	"graft/internal/trace"
)

const benchSeed = 42

// benchScale returns the dataset scale for Figure 8 benches.
func benchScale() float64 {
	if s := os.Getenv("GRAFT_BENCH_SCALE"); s != "" {
		if f, err := strconv.ParseFloat(s, 64); err == nil && f > 0 {
			return f
		}
	}
	return 0.0002 // sk ~10k, twitter ~8k, bipartite ~400k vertices
}

// BenchmarkTable1 regenerates Table 1: building each demonstration
// dataset stand-in, reporting its synthetic size.
func BenchmarkTable1(b *testing.B) {
	for _, ds := range graphgen.Table1Datasets(0.002, benchSeed) {
		b.Run(ds.Name, func(b *testing.B) {
			var v, e int64
			for i := 0; i < b.N; i++ {
				g := ds.Build()
				v, e = g.NumVertices(), g.NumEdges()
			}
			b.ReportMetric(float64(v), "vertices")
			b.ReportMetric(float64(e), "edges")
		})
	}
}

// BenchmarkTable2 regenerates Table 2: the performance dataset
// stand-ins.
func BenchmarkTable2(b *testing.B) {
	for _, ds := range graphgen.Table2Datasets(benchScale(), benchSeed) {
		b.Run(ds.Name, func(b *testing.B) {
			var v, e int64
			for i := 0; i < b.N; i++ {
				g := ds.Build()
				v, e = g.NumVertices(), g.NumEdges()
			}
			b.ReportMetric(float64(v), "vertices")
			b.ReportMetric(float64(e), "edges")
		})
	}
}

// BenchmarkTable3 exercises each Table 3 DebugConfig's construction
// and static target selection, the cost paid when instrumentation
// attaches.
func BenchmarkTable3(b *testing.B) {
	g := graphgen.RegularBipartite(100_000, 3)
	store := trace.NewStore(dfs.NewMemFS(), "t3")
	for _, cfg := range harness.StandardConfigs(benchSeed) {
		if cfg.Make == nil {
			continue
		}
		b.Run(cfg.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				session, err := core.Attach(context.Background(), store, trace.JobMeta{
					JobID:      fmt.Sprintf("t3-%s-%d", cfg.Name, i),
					Algorithm:  "bench",
					NumWorkers: 4,
				}, g, cfg.Make())
				if err != nil {
					b.Fatal(err)
				}
				_ = session.Targets()
			}
		})
	}
}

// BenchmarkFig8 regenerates the Figure 8 grid: every (algorithm ×
// dataset) cluster under no-debug and each Table 3 DebugConfig. Each
// iteration is one full job run; compare ns/op across configs of a
// cluster for the relative-overhead bars, and the captures metric for
// the numbers printed on them.
func BenchmarkFig8(b *testing.B) {
	workloads := harness.StandardWorkloads(benchScale(), benchSeed, 4)
	configs := harness.StandardConfigs(benchSeed)
	for _, wl := range workloads {
		base := wl.Dataset.Build()
		for _, cfg := range configs {
			b.Run(wl.Label+"/"+cfg.Name, func(b *testing.B) {
				var captures int64
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					g := base.Clone()
					alg := wl.Algorithm()
					engCfg := pregel.Config{
						NumWorkers:    wl.Workers,
						Combiner:      alg.Combiner,
						Master:        alg.Master,
						MaxSupersteps: alg.MaxSupersteps,
					}
					comp := alg.Compute
					var session *core.Graft
					if cfg.Make != nil {
						store := trace.NewStore(dfs.NewMemFS(), "bench")
						var err error
						session, err = core.Attach(context.Background(), store, trace.JobMeta{
							JobID:      fmt.Sprintf("%s-%s-%d", wl.Label, cfg.Name, i),
							Algorithm:  alg.Name,
							NumWorkers: wl.Workers,
						}, g, cfg.Make())
						if err != nil {
							b.Fatal(err)
						}
						comp = session.Instrument(comp)
						engCfg.Master = session.InstrumentMaster(engCfg.Master)
						engCfg.Listener = session
					}
					job := pregel.NewJob(g, comp, engCfg)
					for _, spec := range alg.Aggregators {
						job.RegisterAggregator(spec.Name, spec.Agg, spec.Persistent)
					}
					b.StartTimer()
					if _, err := job.Run(); err != nil {
						b.Fatal(err)
					}
					b.StopTimer()
					if session != nil {
						captures = session.Captures()
					}
					b.StartTimer()
				}
				b.ReportMetric(float64(captures), "captures")
			})
		}
	}
}

// BenchmarkFig2 measures attaching the Figure 2 example DebugConfig
// (5 random vertices + neighbors + message constraint) to a job.
func BenchmarkFig2(b *testing.B) {
	g := graphgen.WebGraph(50_000, 8, benchSeed)
	store := trace.NewStore(dfs.NewMemFS(), "fig2")
	for i := 0; i < b.N; i++ {
		if _, err := core.Attach(context.Background(), store, trace.JobMeta{
			JobID: fmt.Sprintf("fig2-%d", i), Algorithm: "rw", NumWorkers: 4,
		}, g, core.Fig2Config(benchSeed)); err != nil {
			b.Fatal(err)
		}
	}
}

// fig3to5DB builds one traced buggy-GC run shared by the GUI-view
// benches (Figures 3, 4, 5).
func fig3to5DB(b *testing.B) *trace.Reader {
	b.Helper()
	store := trace.NewStore(dfs.NewMemFS(), "gui")
	g := graphgen.RegularBipartite(2000, 3)
	alg := algorithms.NewBuggyGraphColoring(benchSeed)
	session, err := core.Attach(context.Background(), store, trace.JobMeta{
		JobID: "gui-bench", Algorithm: alg.Name, NumWorkers: 4,
	}, g, core.DebugConfig{
		NumRandomCaptures: 20, CaptureNeighbors: true, RandomSeed: 3,
		VertexValueConstraint: func(v pregel.Value, id pregel.VertexID, s int) bool {
			val, ok := v.(*algorithms.GCValue)
			return !ok || val.State != algorithms.GCInSet || s < 2 // synthesize some violations
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	cfg := pregel.Config{NumWorkers: 4, Listener: session,
		Master: session.InstrumentMaster(alg.Master), MaxSupersteps: alg.MaxSupersteps}
	job := pregel.NewJob(g, session.Instrument(alg.Compute), cfg)
	for _, spec := range alg.Aggregators {
		job.RegisterAggregator(spec.Name, spec.Agg, spec.Persistent)
	}
	if _, err := job.Run(); err != nil {
		b.Fatal(err)
	}
	db, err := store.OpenReader("gui-bench")
	if err != nil {
		b.Fatal(err)
	}
	return db
}

// BenchmarkFig3NodeLink measures rendering the node-link view.
func BenchmarkFig3NodeLink(b *testing.B) {
	db := fig3to5DB(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gui.RenderNodeLink(db, 1)
	}
}

// BenchmarkFig4Tabular measures the tabular view's search path.
func BenchmarkFig4Tabular(b *testing.B) {
	db := fig3to5DB(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = db.Search(trace.Query{Superstep: 1, ValueContains: "TENTATIVELY"})
	}
}

// BenchmarkFig5Violations measures building the violations &
// exceptions rows.
func BenchmarkFig5Violations(b *testing.B) {
	db := fig3to5DB(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = db.AllViolations()
	}
}

// BenchmarkFig6Reproduce measures generating a Figure 6 style
// reproduction test from a capture.
func BenchmarkFig6Reproduce(b *testing.B) {
	db := fig3to5DB(b)
	id := db.CapturedVertexIDs()[0]
	s := db.CapturesOf(id)[0].Superstep
	spec := repro.GenSpec{
		ComputationExpr: "algorithms.NewBuggyGraphColoring(42).Compute",
		ExtraImports:    []string{"graft/internal/algorithms"},
		Assert:          true,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := repro.GenerateVertexTest(db, s, id, spec); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations (DESIGN.md §5) ---

// BenchmarkAblationInstrumentation isolates the wrapper cost: the same
// job bare, instrumented with an empty static set (exception tracking
// only), and instrumented with constraints.
func BenchmarkAblationInstrumentation(b *testing.B) {
	build := func() *pregel.Graph { return graphgen.RegularBipartite(40_000, 3) }
	run := func(b *testing.B, dc *core.DebugConfig) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			g := build()
			alg := algorithms.NewRandomWalk(benchSeed, 8)
			cfg := pregel.Config{NumWorkers: 4, MaxSupersteps: alg.MaxSupersteps}
			comp := alg.Compute
			if dc != nil {
				store := trace.NewStore(dfs.NewMemFS(), "abl")
				session, err := core.Attach(context.Background(), store, trace.JobMeta{
					JobID: fmt.Sprintf("abl-%d", i), Algorithm: alg.Name, NumWorkers: 4,
				}, g, *dc)
				if err != nil {
					b.Fatal(err)
				}
				comp = session.Instrument(comp)
				cfg.Listener = session
			}
			b.StartTimer()
			if _, err := pregel.NewJob(g, comp, cfg).Run(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("bare", func(b *testing.B) { run(b, nil) })
	b.Run("wrapper-only", func(b *testing.B) {
		run(b, &core.DebugConfig{CaptureExceptions: true})
	})
	b.Run("message-constraint", func(b *testing.B) {
		run(b, &core.DebugConfig{CaptureExceptions: true,
			MessageConstraint: algorithms.NonNegativeRWMessages})
	})
}

// discardFS satisfies the FileSystem interface while throwing all
// writes away, isolating capture-serialization cost from storage cost.
type discardFS struct{ dfs.FileSystem }

func newDiscardFS() *discardFS { return &discardFS{FileSystem: dfs.NewMemFS()} }

func (d *discardFS) Create(path string) (io.WriteCloser, error) {
	return nopWriteCloser{}, nil
}

type nopWriteCloser struct{}

func (nopWriteCloser) Write(p []byte) (int, error) { return len(p), nil }
func (nopWriteCloser) Close() error                { return nil }

// BenchmarkAblationTraceSink compares trace storage backends under a
// capture-heavy config (all active vertices).
func BenchmarkAblationTraceSink(b *testing.B) {
	run := func(b *testing.B, mkfs func(b *testing.B) dfs.FileSystem) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			g := graphgen.RegularBipartite(4000, 3)
			alg := algorithms.NewRandomWalk(benchSeed, 6)
			store := trace.NewStore(mkfs(b), "sink")
			session, err := core.Attach(context.Background(), store, trace.JobMeta{
				JobID: fmt.Sprintf("sink-%d", i), Algorithm: alg.Name, NumWorkers: 4,
			}, g, core.DebugConfig{CaptureAllActive: true, MaxCaptures: -1})
			if err != nil {
				b.Fatal(err)
			}
			cfg := pregel.Config{NumWorkers: 4, Listener: session, MaxSupersteps: alg.MaxSupersteps}
			b.StartTimer()
			if _, err := pregel.NewJob(g, session.Instrument(alg.Compute), cfg).Run(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("discard", func(b *testing.B) {
		run(b, func(b *testing.B) dfs.FileSystem { return newDiscardFS() })
	})
	b.Run("mem", func(b *testing.B) {
		run(b, func(b *testing.B) dfs.FileSystem { return dfs.NewMemFS() })
	})
	b.Run("local-disk", func(b *testing.B) {
		run(b, func(b *testing.B) dfs.FileSystem {
			fs, err := dfs.NewLocalFS(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			return fs
		})
	})
	b.Run("dist-cluster", func(b *testing.B) {
		run(b, func(b *testing.B) dfs.FileSystem { return dfs.NewCluster(4, 2, 0) })
	})
}

// BenchmarkAblationCombiner measures the engine-level effect of
// message combining on a combiner-friendly algorithm.
func BenchmarkAblationCombiner(b *testing.B) {
	run := func(b *testing.B, combiner pregel.Combiner) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			g := graphgen.WebGraph(30_000, 10, benchSeed)
			alg := algorithms.NewConnectedComponents()
			cfg := pregel.Config{NumWorkers: 4, Combiner: combiner}
			b.StartTimer()
			if _, err := pregel.NewJob(g, alg.Compute, cfg).Run(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("without", func(b *testing.B) { run(b, nil) })
	b.Run("min-combiner", func(b *testing.B) { run(b, pregel.MinLongCombiner) })
}

// BenchmarkAblationSafetyNet measures capture-all-active with and
// without the MaxCaptures safety net engaged early.
func BenchmarkAblationSafetyNet(b *testing.B) {
	run := func(b *testing.B, maxCaptures int64) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			g := graphgen.RegularBipartite(8000, 3)
			alg := algorithms.NewRandomWalk(benchSeed, 6)
			store := trace.NewStore(dfs.NewMemFS(), "net")
			session, err := core.Attach(context.Background(), store, trace.JobMeta{
				JobID: fmt.Sprintf("net-%d", i), Algorithm: alg.Name, NumWorkers: 4,
			}, g, core.DebugConfig{CaptureAllActive: true, MaxCaptures: maxCaptures})
			if err != nil {
				b.Fatal(err)
			}
			cfg := pregel.Config{NumWorkers: 4, Listener: session, MaxSupersteps: alg.MaxSupersteps}
			b.StartTimer()
			if _, err := pregel.NewJob(g, session.Instrument(alg.Compute), cfg).Run(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("unbounded", func(b *testing.B) { run(b, -1) })
	b.Run("capped-1000", func(b *testing.B) { run(b, 1000) })
}

// BenchmarkAblationCheckpoint measures the engine-level cost of
// checkpointing (the fault-tolerance substrate) at different cadences.
func BenchmarkAblationCheckpoint(b *testing.B) {
	run := func(b *testing.B, every int) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			g := graphgen.SocialGraph(20_000, 6, benchSeed)
			cfg := pregel.Config{NumWorkers: 4}
			if every > 0 {
				cfg.CheckpointEvery = every
				cfg.CheckpointFS = dfs.NewMemFS()
			}
			alg := algorithms.NewConnectedComponents()
			cfg.Combiner = alg.Combiner
			b.StartTimer()
			if _, err := pregel.NewJob(g, alg.Compute, cfg).Run(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("none", func(b *testing.B) { run(b, 0) })
	b.Run("every-4", func(b *testing.B) { run(b, 4) })
	b.Run("every-1", func(b *testing.B) { run(b, 1) })
}

// BenchmarkCodec measures the Writable codec underlying traces and
// checkpoints.
func BenchmarkCodec(b *testing.B) {
	vals := []pregel.Value{
		pregel.NewLong(1 << 40),
		pregel.NewDouble(3.14159),
		pregel.NewText("CONFLICT-RESOLUTION"),
		&algorithms.GCValue{Color: 3, State: algorithms.GCColored, Priority: 12345},
	}
	b.Run("encode", func(b *testing.B) {
		e := pregel.NewEncoder()
		for i := 0; i < b.N; i++ {
			e.Reset()
			for _, v := range vals {
				pregel.EncodeTyped(e, v)
			}
		}
	})
	e := pregel.NewEncoder()
	for _, v := range vals {
		pregel.EncodeTyped(e, v)
	}
	buf := append([]byte(nil), e.Bytes()...)
	b.Run("decode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			d := pregel.NewDecoder(buf)
			for range vals {
				if _, err := pregel.DecodeTyped(d); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkEngineMessageThroughput measures raw superstep message
// delivery: a broadcast-heavy computation with no debugging attached.
func BenchmarkEngineMessageThroughput(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				g := graphgen.RegularBipartite(20_000, 3)
				b.StartTimer()
				comp := pregel.ComputeFunc(func(ctx pregel.Context, v *pregel.Vertex, msgs []pregel.Value) error {
					if ctx.Superstep() < 5 {
						ctx.SendMessageToAllEdges(v, pregel.NewLong(int64(v.ID())))
						return nil
					}
					v.VoteToHalt()
					return nil
				})
				stats, err := pregel.NewJob(g, comp, pregel.Config{NumWorkers: workers}).Run()
				if err != nil {
					b.Fatal(err)
				}
				b.SetBytes(stats.TotalMessages) // messages as the throughput unit
			}
		})
	}
}
