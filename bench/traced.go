package main

import (
	"fmt"
	"runtime"
	"time"

	"graft"
	"graft/internal/dfs"
	"graft/internal/pregel"
	"graft/internal/repro"
	"graft/internal/trace"
)

// The traced pass gives the per-layer numbers. It wraps each call into
// a layer in a span, tees a listener into the engine, puts the timedFS
// decorator under the trace store and reads MemStats around the timed
// call — all things the end-to-end rounds must not pay for — and
// measures its own cost as tracing_overhead_pct against untraced reps
// in the same process.

const tracedReps = 3

// whereApplicable lists the per-layer metrics that exist only on some
// workloads (debugged ones, ones that write a trace, the read-back),
// with their units. Every traced pass reports all of them: 0 where the
// layer did no work.
var whereApplicable = map[string]string{
	"pregel.edges_per_s":    "edge/s",
	"core.debug_base_job_s": "s", "core.debug_overhead_x": "ratio", "core.intercept_ns_per_msg": "ns",
	"trace.sink_ns_per_record": "ns", "trace.bytes": "B", "trace.files": "count",
	"trace.bytes_per_capture": "B", "trace.scan_s": "s",
	"trace.readback_s": "s", "trace.open_ms": "ms",
	"trace.lookup_us_p50": "us", "trace.lookup_us_p99": "us", "trace.lookup_hits": "count",
	"trace.history_ms_p50": "ms", "trace.step_view_ms_p50": "ms",
	"trace.segment_reads_per_lookup": "ratio",
	"repro.replay_us_p50":            "us", "repro.codegen_ms_p50": "ms", "repro.divergences": "count",
	"dfs.write_s": "s", "dfs.write_bytes": "B", "dfs.write_ops": "count",
	"dfs.read_s": "s", "dfs.read_bytes": "B", "dfs.read_ops": "count", "dfs.list_ops": "count",
	"dfs.replicated_bytes": "B", "dfs.write_amp": "ratio",
}

func (c *child) tracedPass() error {
	for name, unit := range whereApplicable {
		c.set(name, 0, unit)
	}
	rec := newRecorder()
	pass := rec.begin("pass", noSpan)
	// phase opens a top-level span as the previous one closes, so the
	// pass's wall time is covered end to end.
	cur := noSpan
	phase := func(name string) int {
		rec.end(cur)
		cur = rec.begin(name, pass)
		return cur
	}

	sp := phase("bench.setup")
	p, err := c.setup(rec, sp, 3)
	if err != nil {
		return err
	}
	phase("bench.oracle")
	c.checkOracle(p)

	sp = phase("bench.load")
	var loads []time.Duration
	for i := 0; i < 3; i++ {
		d, err := c.loadOnly(p.graph, rec, sp)
		if err != nil {
			return err
		}
		loads = append(loads, d)
	}
	loadS := median(seconds(loads))

	// Untraced and traced reps alternate, so slow drift of the machine
	// lands on both sides of tracing_overhead_pct; a debugged workload
	// also runs undebugged, the base of core.debug_overhead_x.
	var untraced, undebugged []time.Duration
	var runs []*jobRun
	for i := 0; i < tracedReps; i++ {
		phase("bench.untraced")
		run := c.runJob(p.graph, true, nil, noSpan)
		c.verifyJob(run)
		untraced = append(untraced, run.wall)
		if c.w.debug != nil {
			undebugged = append(undebugged, c.runJob(p.graph, false, nil, noSpan).wall)
		}

		rec.nextRun()
		sp = phase("bench.rep")
		run = c.runJob(p.graph, true, rec, sp)
		c.verifyJob(run)
		if run.res == nil || run.res.Stats == nil {
			return fmt.Errorf("traced job failed: %v", c.tally.failures)
		}
		runs = append(runs, run)
	}
	last := runs[len(runs)-1]
	jobS := c.jobMetrics(p, runs, loadS)
	tracedOp, untracedOp := jobS, median(seconds(untraced))

	sp = phase("bench.extras")
	c.debugOverheadMetrics(last, jobS, undebugged)
	if err := c.traceMetrics(runs, rec, sp); err != nil {
		return err
	}
	if c.w.readback {
		sp = phase("bench.readback")
		tracedOp, untracedOp, err = c.readbackMetrics(p, last, rec, sp)
		if err != nil {
			return err
		}
	}
	c.set("tracing_overhead_pct", 100*(tracedOp-untracedOp)/untracedOp, "%")

	rec.end(cur)
	rec.end(pass)
	spans := rec.snapshot()
	c.set("bench.span_coverage_pct", 100*spanCoverage(spans, pass), "%")
	c.detail.Self = map[string]float64{}
	for name, d := range layerSelfTimes(spans) {
		c.detail.Self[name] = d.Seconds()
	}
	c.detail.Vertices, c.detail.Edges = p.input.NumVertices(), p.input.NumEdges()
	c.detail.Reps = tracedReps

	c.set("graphgen.build_s", p.build.Seconds(), "s")
	c.set("graphgen.vertices", float64(p.input.NumVertices()), "count")
	c.set("graphgen.edges", float64(p.input.NumEdges()), "count")
	readS := median(seconds(p.reads))
	c.set("graphio.write_s", p.write.Seconds(), "s")
	c.set("graphio.read_s", readS, "s")
	c.set("graphio.bytes", float64(p.ioBytes), "B")
	c.set("graphio.read_mb_per_s", float64(p.ioBytes)/1e6/readS, "MB/s")
	return writeChrome(fmt.Sprintf("%s/spans-%s.json", c.opt.spansDir, c.w.name), spans)
}

// spanCoverage is the share of the pass that its top-level spans
// cover: how much of the wall time the trace accounts for.
func spanCoverage(spans []span, pass int) float64 {
	var top []span
	var root span
	for _, s := range spans {
		if s.Parent == pass {
			top = append(top, s)
		}
		if s.ID == pass {
			root = s
		}
	}
	return float64(covered(top, root.Start, root.End)) / float64(root.End-root.Start)
}

// loadOnly times a job whose compute only votes to halt: graph load,
// placement and one empty superstep — the fixed cost inside job_s.
func (c *child) loadOnly(base *pregel.Graph, rec *recorder, parent int) (time.Duration, error) {
	g := base.Clone()
	halt := pregel.ComputeFunc(func(_ pregel.Context, v *pregel.Vertex, _ []pregel.Value) error {
		v.VoteToHalt()
		return nil
	})
	runtime.GC()
	sp := rec.begin("pregel.load", parent)
	t := time.Now()
	_, err := pregel.NewJob(g, halt, pregel.Config{NumWorkers: numWorkers}).Run()
	d := time.Since(t)
	rec.end(sp)
	if err != nil {
		return 0, fmt.Errorf("load-only job: %w", err)
	}
	return d, nil
}

// jobMetrics reports the pregel, core and trace-write layers from the
// traced jobs: times as the median over the reps, counts from the last
// one (verifyJob has already checked that they repeat). It returns the
// traced job_s.
func (c *child) jobMetrics(p *prepared, runs []*jobRun, loadS float64) float64 {
	med := func(f func(*jobRun) float64) float64 {
		xs := make([]float64, len(runs))
		for i, r := range runs {
			xs[i] = f(r)
		}
		return median(xs)
	}
	last := runs[len(runs)-1]
	st := last.res.Stats
	jobS := med(func(r *jobRun) float64 { return r.wall.Seconds() })
	runS := med(func(r *jobRun) float64 { return r.res.Stats.Runtime.Seconds() })
	computeS := med(func(r *jobRun) float64 { d, _, _ := r.res.Stats.PhaseTotals(); return d.Seconds() })
	barrierS := med(func(r *jobRun) float64 { _, d, _ := r.res.Stats.PhaseTotals(); return d.Seconds() })
	captureS := med(func(r *jobRun) float64 { _, _, d := r.res.Stats.PhaseTotals(); return d.Seconds() }) / numWorkers
	flushS := med(func(r *jobRun) float64 { return flushTime(r.res.Stats).Seconds() })

	var queueMax int
	for _, ss := range st.PerSuperstep {
		queueMax = max(queueMax, ss.CaptureQueueDepth)
	}
	steps, vertices := float64(st.Supersteps), float64(p.input.NumVertices())
	msgs, combined := float64(st.TotalMessages), float64(combinedMessages(st))
	captures := float64(last.res.Captures)

	c.set("pregel.clone_s", med(func(r *jobRun) float64 { return r.clone.Seconds() }), "s")
	c.set("pregel.load_s", loadS, "s")
	c.set("pregel.run_s", runS, "s")
	c.set("pregel.supersteps", steps, "count")
	c.set("pregel.superstep_us", runS/steps*1e6, "us")
	c.set("pregel.supersteps_per_s", steps/jobS, "1/s")
	c.set("pregel.compute_s", computeS, "s")
	c.set("pregel.barrier_wait_s", barrierS, "s")
	c.set("pregel.compute_skew_max", st.MaxComputeSkew(), "ratio")
	c.set("pregel.serial_s", runS-computeS-flushS-loadS, "s")
	c.set("pregel.scan_ns_per_vertex", computeS*1e9/(steps*vertices), "ns")
	c.set("pregel.ns_per_msg", jobS*1e9/msgs, "ns")
	c.set("pregel.msgs_per_s", msgs/jobS, "1/s")
	if c.w.workUnit == "edges" { // the issue's edges_per_s, where the unit of work is the edge
		c.set("pregel.edges_per_s", c.w.work(p.input, last.res, c.opt.size)/jobS, "edge/s")
	}
	c.set("pregel.msgs_sent", msgs, "count")
	c.set("pregel.msgs_combined", combined, "count")
	c.set("pregel.combine_ratio", combined/msgs, "ratio")
	c.set("pregel.local_msg_ratio", st.LocalMessageRatio(), "ratio")
	c.set("pregel.vertices_computed", float64(verticesComputed(st)), "count")
	c.set("pregel.allocs_per_msg", med(func(r *jobRun) float64 { return float64(r.mem.mallocs) })/msgs, "1/msg")
	c.set("pregel.alloc_bytes_per_msg", med(func(r *jobRun) float64 { return float64(r.mem.bytes) })/msgs, "B/msg")
	c.set("pregel.gc_cycles_per_job", med(func(r *jobRun) float64 { return float64(r.mem.gcCycles) }), "count")
	c.set("pregel.gc_pause_ms", med(func(r *jobRun) float64 { return r.mem.gcPause.Seconds() * 1e3 }), "ms")

	c.set("core.capture_s", captureS, "s")
	c.set("core.captures", captures, "count")
	c.set("core.ns_per_capture", ratio(captureS*1e9, captures), "ns")
	c.set("core.captures_per_s", captures/jobS, "1/s")

	c.set("trace.flush_s", flushS, "s")
	c.set("trace.queue_depth_max", float64(queueMax), "count")
	c.set("trace.dropped_records", float64(st.Faults.DroppedRecords), "count")
	return jobS
}

// ratio is a/b, or 0 where the metric does not apply (b == 0).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// debugOverheadMetrics reports what the DebugConfig costs against the
// same job undebugged on the same graph. The paper's ratio is reported
// with both its bases but gated nowhere: it gets worse when the engine
// gets faster and capture cost stays put.
func (c *child) debugOverheadMetrics(last *jobRun, jobS float64, undebugged []time.Duration) {
	if len(undebugged) == 0 {
		return
	}
	base := median(seconds(undebugged))
	c.set("core.debug_base_job_s", base, "s")
	c.set("core.debug_overhead_x", jobS/base, "ratio")
	c.set("core.intercept_ns_per_msg", (jobS-base)*1e9/float64(last.res.Stats.TotalMessages), "ns")
}

// traceMetrics reports what the traced jobs wrote: the decorator's
// write counters, the stored trace, the replication behind it, a full
// digest scan of each rep's trace (which must agree), and the sink
// driven alone.
func (c *child) traceMetrics(runs []*jobRun, rec *recorder, parent int) error {
	last := runs[len(runs)-1]
	if last.tfs == nil {
		return nil
	}
	wrote := last.tfs.counters()
	c.set("dfs.write_s", wrote.WriteTime.Seconds(), "s")
	c.set("dfs.write_bytes", float64(wrote.WriteBytes), "B")
	c.set("dfs.write_ops", float64(wrote.WriteOps), "count")

	files, stored, err := storedBytes(last.fs, traceRoot+"/"+last.jobID+"/")
	if err != nil {
		return err
	}
	c.set("trace.files", float64(files), "count")
	c.set("trace.bytes", float64(stored), "B")
	c.set("trace.bytes_per_capture", ratio(float64(stored), float64(last.res.Captures)), "B")
	var replicated float64
	if cluster, ok := last.fs.(*dfs.Cluster); ok {
		replicated = float64(cluster.Stats().BytesWritten)
	}
	c.set("dfs.replicated_bytes", replicated, "B")
	c.set("dfs.write_amp", ratio(replicated, float64(stored)), "ratio")

	var digests []string
	var scans []time.Duration
	var reader *graft.TraceReader
	for _, run := range runs {
		reader, err = graft.OpenTrace(graft.NewStore(run.fs, traceRoot), run.jobID)
		if err != nil {
			return fmt.Errorf("open trace %s: %w", run.jobID, err)
		}
		sp := rec.begin("trace.scan", parent)
		t := time.Now()
		digests = append(digests, graft.TraceDigest(reader))
		scans = append(scans, time.Since(t))
		rec.end(sp)
		c.tally.check(reader.Err() == nil, "%s: digest scan: %v", run.jobID, reader.Err())
	}
	c.tally.check(digests[0] == digests[len(digests)-1], "trace digests differ between traced reps")
	c.set("trace.scan_s", median(seconds(scans)), "s")

	return c.sinkAlone(reader, rec, parent)
}

// storedBytes counts the files under prefix and the bytes in them.
func storedBytes(fs dfs.FileSystem, prefix string) (files int, total int64, err error) {
	names, err := fs.List(prefix)
	if err != nil {
		return 0, 0, err
	}
	for _, name := range names {
		raw, err := dfs.ReadFile(fs, name)
		if err != nil {
			return 0, 0, err
		}
		total += int64(len(raw))
	}
	return len(names), total, nil
}

// sinkAlone re-submits superstep 0's captures four times through a
// fresh sink into memory with no engine around it: encode + queue +
// segment write, isolated from core's record building.
func (c *child) sinkAlone(reader *graft.TraceReader, rec *recorder, parent int) error {
	caps := reader.CapturesAt(0)
	if len(caps) == 0 {
		return nil
	}
	const rounds = 4
	sink, err := trace.NewStore(dfs.NewMemFS(), "sink").NewSink(trace.JobMeta{JobID: "sink", NumWorkers: numWorkers})
	if err != nil {
		return err
	}
	sp := rec.begin("trace.sink", parent)
	t := time.Now()
	for round := 0; round < rounds && err == nil; round++ {
		for i, capture := range caps {
			resubmitted := *capture
			resubmitted.Superstep = round
			if err = sink.WorkerSink(i % numWorkers).WriteVertexCapture(&resubmitted); err != nil {
				break
			}
		}
		if err == nil {
			err = sink.BarrierFlush(round)
		}
	}
	if cerr := sink.CloseFiles(); err == nil {
		err = cerr
	}
	d := time.Since(t)
	rec.end(sp)
	c.tally.check(err == nil && sink.DroppedRecords() == 0, "sink alone: %v, %d dropped", err, sink.DroppedRecords())
	c.set("trace.sink_ns_per_record", float64(d.Nanoseconds())/float64(rounds*len(caps)), "ns")
	return nil
}

// readbackMetrics runs untraced and traced read-backs of the last
// traced job's trace and reports the read side of trace, repro and
// dfs. It returns the traced and untraced read-back times.
func (c *child) readbackMetrics(p *prepared, job *jobRun, rec *recorder, parent int) (traced, untraced float64, err error) {
	var plain, timed []time.Duration
	var rb *readback
	var reads fsCounters
	for i := 0; i < tracedReps; i++ {
		runtime.GC()
		rb = runReadback(job.fs, nil, job.jobID, p.plan, c.alg.Compute, nil, noSpan)
		c.verifyReadback(rb)
		plain = append(plain, rb.wall)

		rec.nextRun()
		runtime.GC()
		before := job.tfs.counters()
		sp := rec.begin("readback", parent)
		rb = runReadback(job.tfs, job.tfs, job.jobID, p.plan, c.alg.Compute, rec, sp)
		rec.end(sp)
		reads = job.tfs.counters().sub(before)
		c.verifyReadback(rb)
		timed = append(timed, rb.wall)
	}
	if rb.err != nil {
		return 0, 0, rb.err
	}
	traced, untraced = median(seconds(timed)), median(seconds(plain))
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	c.set("trace.readback_s", traced, "s")
	c.set("trace.open_ms", us(rb.open)/1e3, "ms")
	c.set("trace.lookup_us_p50", us(percentile(rb.lookupTimes, 0.50)), "us")
	c.set("trace.lookup_us_p99", us(percentile(rb.lookupTimes, 0.99)), "us")
	c.set("trace.lookup_hits", float64(rb.numHits()), "count")
	c.set("trace.history_ms_p50", us(percentile(rb.historyTimes, 0.50))/1e3, "ms")
	c.set("trace.step_view_ms_p50", us(percentile(rb.stepTimes, 0.50))/1e3, "ms")
	c.set("trace.segment_reads_per_lookup", float64(rb.segReadsLookups)/float64(len(rb.hits)), "ratio")
	c.set("repro.replay_us_p50", us(percentile(rb.replayTimes, 0.50)), "us")
	c.set("repro.divergences", float64(rb.divergences), "count")
	c.set("dfs.read_s", reads.ReadTime.Seconds(), "s")
	c.set("dfs.read_bytes", float64(reads.ReadBytes), "B")
	c.set("dfs.read_ops", float64(reads.ReadOps), "count")
	c.set("dfs.list_ops", float64(reads.ListCalls), "count")

	// Render the first hits as standalone tests, as `graft repro` does.
	reader, err := graft.OpenTrace(graft.NewStore(job.fs, traceRoot), job.jobID)
	if err != nil {
		return 0, 0, err
	}
	var codegen []time.Duration
	spec := repro.GenSpec{ComputationExpr: "algorithms.NewGraphColoring(seed).Compute", Assert: true}
	for i, key := range p.plan.lookups {
		if !rb.hits[i] {
			continue
		}
		if len(codegen) == c.opt.size.codegenHits {
			break
		}
		sp := rec.begin("repro.codegen", parent)
		t := time.Now()
		_, gerr := repro.GenerateVertexTest(reader, key.superstep, key.id, spec)
		codegen = append(codegen, time.Since(t))
		rec.end(sp)
		c.tally.check(gerr == nil, "codegen (%d, %d): %v", key.superstep, key.id, gerr)
	}
	c.set("repro.codegen_ms_p50", us(percentile(codegen, 0.50))/1e3, "ms")
	return traced, untraced, nil
}
