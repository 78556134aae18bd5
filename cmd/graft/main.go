// Command graft runs vertex-centric algorithms under the Graft
// debugger and inspects the resulting traces.
//
// Subcommands:
//
//	graft run   -alg gc -dataset bipartite-1M-3M -scale 0.001 -debug DC-full -trace-dir ./traces
//	graft jobs  -trace-dir ./traces
//	graft show  -trace-dir ./traces -job <id> [-superstep N]
//	graft repro -trace-dir ./traces -job <id> -superstep N -vertex V [-assert]
//	graft repro -trace-dir ./traces -job <id> -superstep N -master
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"graft"
	"graft/internal/algorithms"
	"graft/internal/anomaly"
	"graft/internal/core"
	"graft/internal/dfs"
	"graft/internal/faults"
	"graft/internal/graphgen"
	"graft/internal/graphio"
	"graft/internal/metrics"
	"graft/internal/pregel"
	"graft/internal/repro"
	"graft/internal/trace"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "run":
		err = cmdRun(os.Args[2:])
	case "jobs":
		err = cmdJobs(os.Args[2:])
	case "show":
		err = cmdShow(os.Args[2:])
	case "repro":
		err = cmdRepro(os.Args[2:])
	case "diff":
		err = cmdDiff(os.Args[2:])
	case "trace-check":
		err = cmdTraceCheck(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "graft:", strings.TrimPrefix(err.Error(), "graft: "))
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: graft <run|serve|jobs|show|repro|diff|trace-check> [flags]
run         executes an algorithm under the Graft debugger
serve       runs the multi-job daemon: submit/cancel jobs over HTTP, GUI included
jobs        lists traced jobs
show        dumps the captures of a job
repro       generates a context-reproduction Go test
diff        compares the captures of two jobs (e.g. buggy vs fixed)
trace-check verifies a trace: its index against a scan of its segments`)
}

func openStore(dir string) (*trace.Store, error) {
	fs, err := dfs.NewLocalFS(dir)
	if err != nil {
		return nil, err
	}
	return trace.NewStore(fs, ""), nil
}

// buildGraph resolves -dataset: a Table 1/2 name (scaled) or a local
// adjacency-list file.
func buildGraph(dataset string, scale float64, seed int64) (*pregel.Graph, error) {
	if g, err := graphgen.BuildDataset(dataset, scale, seed); err == nil {
		return g, nil
	}
	f, err := os.Open(dataset)
	if err != nil {
		return nil, fmt.Errorf("dataset %q is neither a known name nor a readable file: %w", dataset, err)
	}
	defer f.Close()
	return graphio.ReadAdjacency(f)
}

// cmdRun maps its flags onto one graft.RunOptions and runs it through
// graft.RunAlgorithm; what it keeps for itself is the telemetry
// plumbing (-metrics-*, -anomaly-out, job.metrics) and the summary.
func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	alg := fs.String("alg", "cc", "algorithm to run")
	mode := fs.String("mode", "vertex", "compute mode: vertex (classic, per-vertex) or subgraph (per connected component of a partition)")
	dataset := fs.String("dataset", "soc-Epinions", "dataset name (Table 1/2) or adjacency-list file")
	scale := fs.Float64("scale", 0.01, "dataset scale factor against the paper sizes")
	seed := fs.Int64("seed", algorithms.DefaultSeed, "random seed")
	workers := fs.Int("workers", 4, "worker goroutines")
	supersteps := fs.Int("supersteps", algorithms.DefaultSupersteps, "superstep budget for fixed-length algorithms")
	debug := fs.String("debug", "DC-sp", "debug preset or none")
	traceDir := fs.String("trace-dir", "graft-traces", "trace directory")
	jobID := fs.String("job", "", "job ID (default: <alg>-<timestamp>)")
	checkpointEvery := fs.Int("checkpoint-every", 0, "checkpoint before every Nth superstep (0 disables)")
	crashAt := fs.Int("crash-at", -1, "simulate a worker crash after this superstep (requires -checkpoint-every)")
	crashPartition := fs.Int("crash-partition", -1, "with -crash-at, fail only this partition instead of the whole job (-2: seeded pick)")
	recovery := fs.String("recovery", "checkpoint", "recovery mode for injected failures: checkpoint (full restart) or log (confined replay from sender-side outbox logs)")
	chaos := fs.Float64("chaos", 0, "per-operation storage fault probability injected into the checkpoint FS")
	chaosSeed := fs.Int64("chaos-seed", 0, "seed for fault injection and retry jitter (default: -seed)")
	metricsAddr := fs.String("metrics-addr", "", "serve live /metrics and /debug/vars on this address (e.g. :8090)")
	metricsOut := fs.String("metrics-out", "", "stream metrics events to this file as JSON Lines")
	metricsLinger := fs.Duration("metrics-linger", 0, "keep the -metrics-addr server alive this long after the job ends")
	pprofOn := fs.Bool("pprof", false, "also mount net/http/pprof on -metrics-addr")
	segmentSize := fs.Int("segment-size", trace.DefaultSegmentSize, "trace segment size in bytes before sealing")
	backpressure := fs.String("backpressure", "block", "capture queue policy when full: block or drop")
	queueCap := fs.Int("capture-queue", trace.DefaultQueueCapacity, "per-worker capture queue depth")
	syncCapture := fs.Bool("sync-capture", false, "write trace records inline instead of through the async pipeline")
	partitioner := fs.String("partitioner", "hash", "vertex placement: hash (stateless modulo) or locality (streaming neighbor-affinity placer)")
	rebalanceSkew := fs.Float64("rebalance-skew", 0, "migrate hot vertices off stragglers when compute/message skew exceeds this ratio (0 disables)")
	rebalanceObjective := fs.String("rebalance-objective", "skew", "what the rebalancer optimizes: skew (straggler load) or edgecut (cross-partition traffic)")
	rebalanceMaxMoves := fs.Int("rebalance-max-moves", 0, "cap on vertices migrated per rebalance (0: default 1024)")
	anomalyWindow := fs.Int("anomaly-window", 0, "sliding window in supersteps for the anomaly detectors (0: default 8, negative: disable detection and traffic-matrix capture)")
	anomalyOut := fs.String("anomaly-out", "", "write detected anomaly events to this file as JSON Lines")
	fs.Parse(args)

	eng := pregel.Config{
		NumWorkers:        *workers,
		RebalanceSkew:     *rebalanceSkew,
		RebalanceMaxMoves: *rebalanceMaxMoves,
		AnomalyWindow:     *anomalyWindow,
	}
	switch *partitioner {
	case "hash":
	case "locality":
		eng.Partitioner = pregel.PartitionLocality
	default:
		return fmt.Errorf("unknown -partitioner %q (hash, locality)", *partitioner)
	}
	switch *rebalanceObjective {
	case "skew":
	case "edgecut":
		eng.RebalanceObjective = pregel.ObjectiveEdgeCut
	default:
		return fmt.Errorf("unknown -rebalance-objective %q (skew, edgecut)", *rebalanceObjective)
	}
	if *supersteps < 1 {
		return fmt.Errorf("run: -supersteps must be at least 1, got %d", *supersteps)
	}
	a, err := algorithms.ByName(*alg, *seed, *supersteps)
	if err != nil {
		return err
	}
	switch *mode {
	case "vertex":
	case "subgraph":
		if !a.SupportsSubgraph() {
			return fmt.Errorf("algorithm %q has no subgraph-mode port (available in -mode subgraph: %s)",
				a.Name, strings.Join(algorithms.SubgraphNames(), ", "))
		}
		eng.ComputeMode = pregel.ModeSubgraph
	default:
		return fmt.Errorf("unknown -mode %q (vertex, subgraph)", *mode)
	}
	g, err := buildGraph(*dataset, *scale, *seed)
	if err != nil {
		return err
	}
	fmt.Printf("dataset %s: %d vertices, %d directed edges\n", *dataset, g.NumVertices(), g.NumEdges())

	dc, err := core.PresetConfig(*debug, *seed)
	if err != nil {
		return err
	}
	id := *jobID
	if id == "" {
		id = fmt.Sprintf("%s-%d", a.Name, time.Now().UnixNano())
	}
	if *anomalyOut != "" && *anomalyWindow < 0 {
		return fmt.Errorf("-anomaly-out needs the anomaly layer (use a non-negative -anomaly-window)")
	}

	reg := metrics.NewRegistry(id, a.Name)
	eng.Listener = reg
	if *metricsOut != "" {
		f, err := os.Create(*metricsOut)
		if err != nil {
			return err
		}
		sink := metrics.NewJSONLSink(f)
		defer func() {
			if err := sink.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "graft: metrics-out:", err)
			}
		}()
		reg.SetSink(sink)
	}
	if *metricsAddr != "" {
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			return err
		}
		defer ln.Close()
		go func() { _ = http.Serve(ln, metrics.NewMux(reg, metrics.MuxOptions{Pprof: *pprofOn})) }()
		fmt.Printf("metrics: http://%s/metrics (and /debug/vars)\n", ln.Addr())
	}
	if *checkpointEvery > 0 {
		if *chaosSeed == 0 {
			*chaosSeed = *seed
		}
		var ckptFS dfs.FileSystem = dfs.NewMemFS()
		if *chaos > 0 {
			// Seeded faults on checkpoint writes, absorbed by bounded
			// retries — the run exercises the resilient storage path and
			// reports what it survived in the resilience line below.
			retry := faults.NewRetryFS(faults.NewFaultFS(ckptFS, faults.ChaosPlan(*chaosSeed, *chaos)), *chaosSeed)
			// Live /metrics exposes the chaos counters mid-run, before
			// the engine folds them into the final Stats.
			reg.AddFaultSource(retry)
			ckptFS = retry
		}
		eng.CheckpointEvery = *checkpointEvery
		eng.CheckpointFS = ckptFS
		eng.CheckpointPrefix = "ckpt/"
		switch *recovery {
		case "checkpoint":
		case "log":
			eng.Recovery = pregel.RecoveryLog
			eng.MsgLogFS = dfs.NewMemFS()
		default:
			return fmt.Errorf("unknown -recovery %q (checkpoint, log)", *recovery)
		}
		if *crashAt >= 0 {
			if *crashPartition != -1 {
				victim := *crashPartition
				if victim == -2 {
					victim = faults.PickPartition(*chaosSeed, *workers)
					fmt.Printf("crash: seeded victim partition %d of %d\n", victim, *workers)
				}
				eng.PartitionFailureAt = faults.FailPartitionAt(*crashAt, victim)
			} else {
				crashed := false
				eng.FailureAt = func(superstep int) bool {
					if superstep == *crashAt && !crashed {
						crashed = true
						return true
					}
					return false
				}
			}
		}
	} else if *recovery != "checkpoint" {
		return fmt.Errorf("-recovery=%s requires -checkpoint-every (confined replay rolls the failed partitions back to a checkpoint)", *recovery)
	}

	opts := graft.RunOptions{
		JobID:       id,
		Description: fmt.Sprintf("dataset=%s scale=%g debug=%s mode=%s", *dataset, *scale, *debug, *mode),
		Seed:        *seed,
		Supersteps:  *supersteps,
		Engine:      eng,
		Debug:       dc,
		Trace:       []trace.Option{trace.WithSegmentSize(*segmentSize), trace.WithQueueCapacity(*queueCap)},
	}
	switch *backpressure {
	case "block":
		opts.Trace = append(opts.Trace, trace.WithBackpressure(trace.Block))
	case "drop":
		opts.Trace = append(opts.Trace, trace.WithBackpressure(trace.Drop))
	default:
		return fmt.Errorf("run: -backpressure must be block or drop, got %q", *backpressure)
	}
	if *syncCapture {
		opts.Trace = append(opts.Trace, trace.WithSynchronous())
	}
	if dc != nil {
		if opts.Store, err = openStore(*traceDir); err != nil {
			return err
		}
		fmt.Printf("debugging with %s, traces under %s/%s\n", *debug, *traceDir, id)
	}

	res, runErr := graft.RunAlgorithm(g, a, opts)
	if res == nil {
		return runErr // rejected before a superstep ran: bad options, or the trace could not be opened
	}
	stats := res.Stats
	if opts.Store != nil {
		// Persist next to the trace so the GUI dashboard renders this
		// run after the process exits.
		if err := metrics.WriteJobMetrics(opts.Store.FS, opts.Store.MetricsPath(id), reg.Snapshot()); err != nil {
			fmt.Fprintln(os.Stderr, "graft: writing job.metrics:", err)
		}
	}
	if *anomalyOut != "" && stats != nil {
		if err := writeAnomalyJSONL(*anomalyOut, stats.Anomalies); err != nil {
			fmt.Fprintln(os.Stderr, "graft: anomaly-out:", err)
		}
	}
	// The one place the two kinds of failure part ways. A job the engine
	// gave up on (no Stats: a Compute error or panic) is the expected
	// outcome of the exception scenarios — the capture is the product, so
	// report it and exit 0. A job that ran to the end while its trace
	// writes failed has Stats and an error: print the summary, then exit
	// 1, because the trace the user asked for cannot be trusted.
	if stats == nil {
		fmt.Printf("job FAILED: %v\n", runErr)
		if dc != nil {
			fmt.Printf("the failing context was captured (%d captures); inspect with graft show / graft serve\n", res.Captures)
		}
		linger(*metricsAddr, *metricsLinger)
		return nil
	}
	printSummary(res, reg.Snapshot())
	linger(*metricsAddr, *metricsLinger)
	return runErr
}

// printSummary prints the lines of a finished run: the headline, what
// each recovery did, the metric table's summary lines (each only when
// the run has something to say under it) and the capture count. jm is
// the registry's snapshot, the one job.metrics holds, so `graft show`
// prints the same placement line.
func printSummary(res *graft.RunResult, jm metrics.JobMetrics) {
	stats := res.Stats
	fmt.Printf("finished: %s\n", stats)
	for _, ev := range stats.RecoveryEvents {
		fmt.Printf("  recovery @%d: mode=%s partitions=%v from-ckpt=%d steps-replayed=%d msgs-replayed=%d took=%v\n",
			ev.Superstep, ev.Mode, ev.Partitions, ev.CheckpointSuperstep,
			ev.SuperstepsReplayed, ev.MessagesReplayed, ev.Duration.Round(time.Microsecond))
	}
	for _, s := range metrics.Sections(&jm) {
		if s.Name != "" { // the unnamed section repeats the headline
			fmt.Println(s)
		}
	}
	if res.JobID != "" {
		fmt.Printf("captures: %d (limit hit: %v)\n", res.Captures, res.LimitHit)
		// The session is the only source of dropped records in Faults.
		if n := stats.Faults.DroppedRecords; n > 0 {
			fmt.Printf("capture pipeline dropped %d records under backpressure\n", n)
		}
	}
}

// writeAnomalyJSONL writes one JSON object per detected anomaly event,
// in emission order — the -anomaly-out feed alert pipelines tail.
func writeAnomalyJSONL(path string, evs []anomaly.Event) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, ev := range evs {
		if err := enc.Encode(ev); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// linger keeps the process alive after the job so scrapers can still
// read the final /metrics state of short runs (the CI smoke test
// curls a job that finishes in milliseconds).
func linger(addr string, d time.Duration) {
	if addr == "" || d <= 0 {
		return
	}
	fmt.Printf("metrics: serving for another %v\n", d)
	time.Sleep(d)
}

func cmdJobs(args []string) error {
	fs := flag.NewFlagSet("jobs", flag.ExitOnError)
	traceDir := fs.String("trace-dir", "graft-traces", "trace directory")
	fs.Parse(args)
	store, err := openStore(*traceDir)
	if err != nil {
		return err
	}
	ids, err := store.ListJobs()
	if err != nil {
		return err
	}
	for _, id := range ids {
		meta, err := store.ReadMeta(id)
		if err != nil {
			continue
		}
		status := "running"
		captures := int64(0)
		if res, done, _ := store.ReadResult(id); done {
			status = res.Reason
			if res.Error != "" {
				status = "failed"
			}
			captures = res.Captures
		}
		fmt.Printf("%-32s %-10s %8dv %10de %4dw captures=%d %s\n",
			id, meta.Algorithm, meta.NumVertices, meta.NumEdges, meta.NumWorkers, captures, status)
	}
	if len(ids) == 0 {
		fmt.Println("no traced jobs")
	}
	return nil
}

func cmdShow(args []string) error {
	fs := flag.NewFlagSet("show", flag.ExitOnError)
	traceDir := fs.String("trace-dir", "graft-traces", "trace directory")
	jobID := fs.String("job", "", "job ID")
	superstep := fs.Int("superstep", -1, "superstep to show (-1 = all)")
	violations := fs.Bool("violations", false, "show only violations and exceptions")
	fs.Parse(args)
	if *jobID == "" {
		return fmt.Errorf("show: -job required")
	}
	store, err := openStore(*traceDir)
	if err != nil {
		return err
	}
	db, err := store.OpenReader(*jobID)
	if err != nil {
		return err
	}
	// Placement summary from the persisted job metrics, when the run
	// recorded them (older traces have none).
	if jm, err := metrics.ReadJobMetrics(store.FS, store.MetricsPath(*jobID)); err == nil {
		for _, s := range metrics.Sections(&jm) {
			if s.Name == "placement" {
				fmt.Println(s)
			}
		}
	}
	steps := db.Supersteps()
	if *superstep >= 0 {
		steps = []int{*superstep}
	}
	for _, s := range steps {
		meta := db.MetaAt(s)
		if meta == nil {
			continue
		}
		captures := db.CapturesAt(s)
		st := trace.StatusOf(captures)
		fmt.Printf("superstep %d: %d vertices, %d edges, M=%s V=%s E=%s\n",
			s, meta.NumVertices, meta.NumEdges, redGreen(st.MessageViolation),
			redGreen(st.VertexViolation), redGreen(st.Exception))
		if *violations {
			for _, row := range trace.ViolationRows(s, captures) {
				fmt.Printf("  VIOLATION vertex %d: %s %s (-> %d)\n", row.VertexID, row.Kind, row.Detail, row.DstID)
			}
			continue
		}
		for _, c := range captures {
			fmt.Printf("  vertex %-8d [%s] %s -> %s  in=%d out=%d halted=%v\n",
				c.ID, c.Reasons, pregel.ValueString(c.ValueBefore), pregel.ValueString(c.ValueAfter),
				len(c.Incoming), len(c.Outgoing), c.HaltedAfter)
			if c.Exception != nil {
				fmt.Printf("    EXCEPTION: %s\n", strings.Split(c.Exception.Message, "\n")[0])
			}
			if c.Reasons.Has(trace.ReasonNondeterministic) {
				fmt.Printf("    NONDETERMINISTIC: re-running this compute for the record ended differently; out= may not be what the job sent\n")
			}
		}
		for _, sc := range db.SubgraphsAt(s) {
			fmt.Printf("  subgraph %-6d members=%d iters=%d sent=%d halted=%v digest=%.12s\n",
				sc.ID, len(sc.Members), sc.Iterations, sc.MessagesSent, sc.HaltedAfter, sc.Digest)
		}
	}
	return nil
}

func redGreen(red bool) string {
	if red {
		return "RED"
	}
	return "green"
}

func cmdDiff(args []string) error {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	traceDir := fs.String("trace-dir", "graft-traces", "trace directory")
	jobA := fs.String("a", "", "first job ID")
	jobB := fs.String("b", "", "second job ID")
	max := fs.Int("max", 20, "maximum divergences to print")
	fs.Parse(args)
	if *jobA == "" || *jobB == "" {
		return fmt.Errorf("diff: -a and -b required")
	}
	store, err := openStore(*traceDir)
	if err != nil {
		return err
	}
	dbA, err := store.OpenReader(*jobA)
	if err != nil {
		return err
	}
	dbB, err := store.OpenReader(*jobB)
	if err != nil {
		return err
	}
	diff := trace.DiffJobs(dbA, dbB)
	if len(diff.OnlyA) > 0 {
		fmt.Printf("captured only in %s: %v\n", *jobA, diff.OnlyA)
	}
	if len(diff.OnlyB) > 0 {
		fmt.Printf("captured only in %s: %v\n", *jobB, diff.OnlyB)
	}
	if len(diff.StatusDiffs) > 0 {
		fmt.Printf("M/V/E status differs at supersteps: %v\n", diff.StatusDiffs)
	}
	if len(diff.Divergences) == 0 {
		fmt.Println("no divergences among commonly captured vertices")
		return nil
	}
	fmt.Printf("%d divergences; first at superstep %d vertex %d:\n",
		len(diff.Divergences), diff.FirstDivergence().Superstep, diff.FirstDivergence().ID)
	for i, d := range diff.Divergences {
		if i == *max {
			fmt.Printf("  ... and %d more\n", len(diff.Divergences)-*max)
			break
		}
		fmt.Printf("  superstep %3d vertex %-8d %v: %s=%s vs %s=%s\n",
			d.Superstep, d.ID, d.Fields,
			*jobA, pregel.ValueString(d.A.ValueAfter),
			*jobB, pregel.ValueString(d.B.ValueAfter))
	}
	return nil
}

func cmdRepro(args []string) error {
	fs := flag.NewFlagSet("repro", flag.ExitOnError)
	traceDir := fs.String("trace-dir", "graft-traces", "trace directory")
	jobID := fs.String("job", "", "job ID")
	superstep := fs.Int("superstep", 0, "superstep")
	vertex := fs.Int64("vertex", -1, "vertex to reproduce")
	master := fs.Bool("master", false, "reproduce the master context instead")
	suite := fs.Bool("suite", false, "generate one test per captured superstep of the vertex")
	comp := fs.String("comp", "", "Go expression for the computation (else a TODO placeholder)")
	imports := fs.String("imports", "", "comma-separated extra imports for -comp")
	assert := fs.Bool("assert", false, "add assertions from the captured outcome")
	fs.Parse(args)
	if *jobID == "" {
		return fmt.Errorf("repro: -job required")
	}
	store, err := openStore(*traceDir)
	if err != nil {
		return err
	}
	db, err := store.OpenReader(*jobID)
	if err != nil {
		return err
	}
	spec := repro.GenSpec{Assert: *assert}
	if *imports != "" {
		spec.ExtraImports = strings.Split(*imports, ",")
	}
	var code string
	switch {
	case *master:
		spec.MasterExpr = *comp
		code, err = repro.GenerateMasterTest(db, *superstep, spec)
	case *suite:
		if *vertex < 0 {
			return fmt.Errorf("repro: -vertex required with -suite")
		}
		spec.ComputationExpr = *comp
		code, err = repro.GenerateVertexSuite(db, pregel.VertexID(*vertex), spec)
	default:
		if *vertex < 0 {
			return fmt.Errorf("repro: -vertex required (or -master)")
		}
		if db.JobMeta().ComputeMode == "subgraph" {
			// The trace manifest says the job ran subgraph-centric, so the
			// matching harness reproduces the whole component containing
			// the vertex, member by member.
			spec.SubgraphExpr = *comp
			code, err = repro.GenerateSubgraphTest(db, *superstep, pregel.VertexID(*vertex), spec)
		} else {
			spec.ComputationExpr = *comp
			code, err = repro.GenerateVertexTest(db, *superstep, pregel.VertexID(*vertex), spec)
		}
	}
	if err != nil {
		return err
	}
	fmt.Print(code)
	return nil
}

// cmdTraceCheck checks a trace's index against its segments
// (Reader.Verify) and that a cold single-vertex lookup touches at most
// one segment. CI runs this after the capture-smoke job.
func cmdTraceCheck(args []string) error {
	fs := flag.NewFlagSet("trace-check", flag.ExitOnError)
	traceDir := fs.String("trace-dir", "graft-traces", "trace directory")
	jobID := fs.String("job", "", "job ID")
	fs.Parse(args)
	if *jobID == "" {
		return fmt.Errorf("trace-check: -job required")
	}
	store, err := openStore(*traceDir)
	if err != nil {
		return err
	}
	r, err := store.OpenReader(*jobID)
	if err != nil {
		return err
	}
	if err := r.Verify(); err != nil {
		return fmt.Errorf("trace-check: %w", err)
	}

	// Cold lookup cost: reopen so nothing is cached or checked yet, fetch
	// one captured vertex, and count what was actually read for it. A
	// point lookup fetches the record (and its segment's magic), never a
	// segment.
	if ids := r.CapturedVertexIDs(); len(ids) > 0 {
		id := ids[len(ids)/2]
		history := r.CapturesOf(id)
		if len(history) == 0 {
			return fmt.Errorf("trace-check: vertex %d is indexed but unreadable: %v", id, r.Err())
		}
		step := history[0].Superstep
		cold, err := store.OpenReader(*jobID)
		if err != nil {
			return err
		}
		if cold.Capture(step, id) == nil {
			return fmt.Errorf("trace-check: cold lookup of vertex %d at superstep %d returned nothing: %v", id, step, cold.Err())
		}
		segs, ranges, bytes := cold.SegmentReads(), cold.RangeReads(), cold.BytesRead()
		if segs > 0 || bytes > 2*dfs.DefaultBlockSize {
			return fmt.Errorf("trace-check: cold single-vertex lookup read %d whole segment(s) and %d bytes, want 0 segments and at most %d bytes",
				segs, bytes, 2*dfs.DefaultBlockSize)
		}
		fmt.Printf("cold lookup: vertex %d @ superstep %d served from %d whole segment(s), %d ranged read(s), %d bytes; index loaded from %d part(s)\n",
			id, step, segs, ranges, bytes, cold.IndexParts())
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("trace-check: %w", err)
	}
	fmt.Printf("trace-check ok: %s — %d supersteps, %d captures, index matches segments\n",
		*jobID, len(r.Supersteps()), r.TotalCaptures())
	return nil
}
