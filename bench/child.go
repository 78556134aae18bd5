package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"graft"
	"graft/internal/algorithms"
	"graft/internal/dfs"
	"graft/internal/graphio"
	"graft/internal/pregel"
)

// A child measures one workload in one process: the driver (this
// program's own, or the one that reads BENCHMARK.json) starts a fresh
// child per workload per round, so no child inherits another's heap.

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// childResult is the child's last line of output.
type childResult struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// childDetail is what this program's own driver reads beside the
// result: raw samples to pool across rounds, the counts that must
// repeat exactly, and what failed.
type childDetail struct {
	Workload string               `json:"workload"`
	Vertices int64                `json:"vertices"`
	Edges    int64                `json:"edges"`
	Reps     int                  `json:"reps"`
	Samples  map[string][]float64 `json:"samples"`
	Counts   map[string]int64     `json:"counts"`
	Failures []string             `json:"failures,omitempty"`
	// Self is the traced pass's self time per span name, in seconds.
	Self map[string]float64 `json:"self,omitempty"`
}

type childOptions struct {
	workload *workload
	size     size
	seed     int64
	// seconds is how long the timed reps measure; at least minReps run.
	seconds float64
	traced  bool
	// setups is how many times the set-up is repeated for setup_s.
	setups int
	// spansDir receives spans-<workload>.json after a traced pass.
	spansDir string
}

const (
	minReps = 3
	// setupsPerRun set-ups per run; setup_s is their median.
	setupsPerRun = 3
	// hardCap stops the timed reps early so a slow machine still ends
	// inside the 180 s a run is allowed.
	hardCap = 120 * time.Second
)

// tally counts operations attempted and failed; failed_share is their
// quotient.
type tally struct {
	attempted, failed int64
	failures          []string
}

// add counts operations and, when any failed, records why.
func (t *tally) add(attempted, failed int, format string, args ...any) {
	t.attempted += int64(attempted)
	t.failed += int64(failed)
	if failed > 0 && len(t.failures) < 20 {
		t.failures = append(t.failures, fmt.Sprintf(format, args...))
	}
}

func (t *tally) check(ok bool, format string, args ...any) {
	failed := 0
	if !ok {
		failed = 1
	}
	t.add(1, failed, format, args...)
}

// fingerprint is everything about a job that must repeat exactly.
type fingerprint struct {
	digest                   string
	supersteps               int
	sent, combined, captures int64
}

func (f fingerprint) counts() map[string]int64 {
	return map[string]int64{
		"supersteps": int64(f.supersteps), "msgs_sent": f.sent,
		"msgs_combined": f.combined, "captures": f.captures,
	}
}

type child struct {
	opt   childOptions
	w     *workload
	alg   *algorithms.Algorithm
	start time.Time
	tally tally
	// first is the fingerprint of the first job (the warm-up); every
	// later job is compared with it.
	first   *fingerprint
	hits    []bool // the first read-back's hit set
	jobSeq  int
	metrics map[string]metric
	detail  childDetail
}

func (c *child) set(name string, value float64, unit string) {
	c.metrics[name] = metric{Value: value, Unit: unit}
}

// jobRun is one graft.RunAlgorithm call and what was measured around it.
type jobRun struct {
	jobID string
	graph *pregel.Graph // the clone the job ran on and mutated
	res   *graft.RunResult
	fs    dfs.FileSystem // the store a debugged job wrote into
	tfs   *timedFS       // the decorator over fs, traced runs only
	clone time.Duration
	wall  time.Duration
	mem   memDelta
}

type memDelta struct {
	mallocs, bytes uint64
	gcCycles       uint32
	gcPause        time.Duration
}

// runJob clones base (untimed), collects garbage, and times the call.
// debugged=false runs the workload's job without its DebugConfig, the
// base of core.debug_overhead_x.
func (c *child) runJob(base *pregel.Graph, debugged bool, rec *recorder, parent int) *jobRun {
	run := &jobRun{jobID: fmt.Sprintf("job-%03d", c.jobSeq)}
	c.jobSeq++

	sp := rec.begin("pregel.clone", parent)
	t := time.Now()
	run.graph = base.Clone()
	run.clone = time.Since(t)
	rec.end(sp)

	opts := graft.RunOptions{JobID: run.jobID}
	opts.Engine.NumWorkers = numWorkers
	if debugged && c.w.debug != nil {
		run.fs = c.w.newFS()
		store := run.fs
		if rec != nil {
			run.tfs = newTimedFS(run.fs, rec)
			store = run.tfs
		}
		opts.Debug = c.w.debug()
		opts.Store = graft.NewStore(store, traceRoot)
	}

	runtime.GC()
	var before, after runtime.MemStats
	if rec != nil {
		runtime.ReadMemStats(&before)
	}
	sp = rec.begin("job", parent)
	if rec != nil {
		opts.Engine.Listener = &spanListener{rec: rec, job: sp}
		if run.tfs != nil {
			run.tfs.setParent(sp)
		}
	}
	t = time.Now()
	res, err := graft.RunAlgorithm(run.graph, c.alg, opts)
	run.wall = time.Since(t)
	rec.end(sp)
	if rec != nil {
		runtime.ReadMemStats(&after)
		run.mem = memDelta{
			mallocs: after.Mallocs - before.Mallocs, bytes: after.TotalAlloc - before.TotalAlloc,
			gcCycles: after.NumGC - before.NumGC,
			gcPause:  time.Duration(after.PauseTotalNs - before.PauseTotalNs),
		}
	}
	run.res = res
	c.tally.check(err == nil && res != nil && res.Stats != nil, "%s: job failed: %v", run.jobID, err)
	return run
}

// spanListener turns the engine's superstep callbacks into spans under
// the job's span. Graft tees it with its own listener.
type spanListener struct {
	rec  *recorder
	job  int
	step int
}

func (l *spanListener) JobStarted(pregel.JobInfo) {}
func (l *spanListener) SuperstepStarted(int, pregel.SuperstepInfo) {
	l.step = l.rec.begin("pregel.superstep", l.job)
}
func (l *spanListener) SuperstepFinished(int, pregel.SuperstepStats) { l.rec.end(l.step) }
func (l *spanListener) JobFinished(*pregel.Stats, error)             {}

func combinedMessages(st *pregel.Stats) (n int64) {
	for _, ss := range st.PerSuperstep {
		n += ss.MessagesCombined
	}
	return n
}

func flushTime(st *pregel.Stats) (d time.Duration) {
	for _, ss := range st.PerSuperstep {
		d += ss.FlushTime
	}
	return d
}

func verticesComputed(st *pregel.Stats) (n int64) {
	for _, ss := range st.PerSuperstep {
		n += ss.VerticesProcessed
	}
	return n
}

// verifyJob checks a finished job against the first one: same final
// values, same deterministic counts, nothing dropped.
func (c *child) verifyJob(run *jobRun) {
	if run.res == nil || run.res.Stats == nil {
		return // already counted as a failed job
	}
	st := run.res.Stats
	fp := fingerprint{
		digest: run.graph.ValuesDigest(), supersteps: st.Supersteps,
		sent: st.TotalMessages, combined: combinedMessages(st), captures: run.res.Captures,
	}
	c.tally.check(st.Faults.DroppedRecords == 0, "%s: %d trace records dropped", run.jobID, st.Faults.DroppedRecords)
	if c.first == nil {
		c.first = &fp
		return
	}
	c.tally.check(fp == *c.first, "%s: run differs from the first: %+v vs %+v", run.jobID, fp, *c.first)
}

// verifyReadback checks a read-back: no reader error, every replay
// faithful, and the same hit set as the first read-back.
func (c *child) verifyReadback(rb *readback) {
	c.tally.check(rb.err == nil, "read-back: %v", rb.err)
	c.tally.add(len(rb.hits)+rb.numHits(), rb.divergences+rb.replayErrs,
		"read-back: %d replays diverged, %d failed", rb.divergences, rb.replayErrs)
	if c.hits == nil {
		c.hits = rb.hits
		return
	}
	c.tally.check(slices.Equal(rb.hits, c.hits), "read-back: hit set differs from the first")
}

// prepared is one finished set-up: the input, the graph jobs clone,
// and the warm-up job (whose trace a read-back workload reads).
type prepared struct {
	input *pregel.Graph // as generated: what the oracle sees
	graph *pregel.Graph // as graphio read it back: what jobs clone
	warm  *jobRun
	plan  readbackPlan
	total time.Duration

	build, write time.Duration
	reads        []time.Duration
	ioBytes      int
}

// setup runs generate → graphio round trip → clone → warm-up job (and
// warm-up read-back), the sequence setup_s times. reads > 1 repeats
// the graphio read for the traced pass's median.
func (c *child) setup(rec *recorder, parent int, reads int) (*prepared, error) {
	p := &prepared{}
	start := time.Now()

	sp := rec.begin("graphgen.build", parent)
	p.input = c.w.generate(c.opt.size, c.opt.seed)
	rec.end(sp)
	p.build = time.Since(start)

	var buf bytes.Buffer
	t := time.Now()
	sp = rec.begin("graphio.write", parent)
	err := graphio.WriteAdjacency(&buf, p.input)
	rec.end(sp)
	p.write = time.Since(t)
	if err != nil {
		return nil, fmt.Errorf("graphio write: %w", err)
	}
	p.ioBytes = buf.Len()
	for i := 0; i < reads; i++ {
		t = time.Now()
		sp = rec.begin("graphio.read", parent)
		p.graph, err = graphio.ReadAdjacency(bytes.NewReader(buf.Bytes()))
		rec.end(sp)
		p.reads = append(p.reads, time.Since(t))
		if err != nil {
			return nil, fmt.Errorf("graphio read: %w", err)
		}
	}

	p.warm = c.runJob(p.graph, true, rec, parent)
	if p.warm.res == nil || p.warm.res.Stats == nil {
		return nil, fmt.Errorf("warm-up job failed: %s", strings.Join(c.tally.failures, "; "))
	}
	if c.w.readback {
		p.plan = newReadbackPlan(c.opt.seed, c.opt.size, p.input.NumVertices(), p.warm.res.Stats.Supersteps)
		sp = rec.begin("readback", parent)
		rb := runReadback(p.warm.fs, nil, p.warm.jobID, p.plan, c.alg.Compute, nil, noSpan)
		rec.end(sp)
		c.verifyReadback(rb)
	}
	p.total = time.Since(start)
	c.verifyJob(p.warm)
	return p, nil
}

// checkOracle runs the workload's independent oracle on the warm-up
// job's result. Once per child, untimed.
func (c *child) checkOracle(p *prepared) {
	err := c.w.check(p.input, p.warm.graph, p.warm.res.Stats)
	c.tally.check(err == nil, "%v", err)
	if c.w.debug != nil && c.w.debug().CaptureAllActive {
		computed := verticesComputed(p.warm.res.Stats)
		c.tally.check(p.warm.res.Captures == computed,
			"captures %d differ from vertices computed %d", p.warm.res.Captures, computed)
	}
}

// runChild measures one workload and returns its result and detail.
func runChild(opt childOptions) (*childResult, *childDetail, error) {
	c := &child{
		opt: opt, w: opt.workload, start: time.Now(),
		alg:     opt.workload.algorithm(opt.seed),
		metrics: map[string]metric{},
	}
	c.detail = childDetail{Workload: c.w.name, Samples: map[string][]float64{}}
	var err error
	if opt.traced {
		err = c.tracedPass()
	} else {
		err = c.timedPass()
	}
	if err != nil {
		return nil, nil, err
	}
	if c.first != nil {
		c.detail.Counts = c.first.counts()
		if c.hits != nil {
			c.detail.Counts["lookup_hits"] = int64(countHits(c.hits))
		}
	}
	c.detail.Failures = c.tally.failures
	return &childResult{
		Correct: c.tally.failed == 0, Attempted: c.tally.attempted, Failed: c.tally.failed,
		Metrics: c.metrics,
	}, &c.detail, nil
}

// timedPass is the untraced run behind the end-to-end metrics: no
// listener, no decorator, no MemStats reads.
func (c *child) timedPass() error {
	var p *prepared
	var setups []time.Duration
	for i := 0; i < c.opt.setups; i++ {
		p = nil
		runtime.GC() // the previous set-up's graphs and store are garbage, not peak
		var err error
		if p, err = c.setup(nil, noSpan, 1); err != nil {
			return err
		}
		setups = append(setups, p.total)
	}
	c.checkOracle(p)

	var samples []time.Duration
	var measured time.Duration
	budget := time.Duration(c.opt.seconds * float64(time.Second))
	for len(samples) < minReps || (measured < budget && time.Since(c.start) < hardCap) {
		var wall time.Duration
		if c.w.readback {
			runtime.GC()
			rb := runReadback(p.warm.fs, nil, p.warm.jobID, p.plan, c.alg.Compute, nil, noSpan)
			c.verifyReadback(rb)
			wall = rb.wall
		} else {
			run := c.runJob(p.graph, true, nil, noSpan)
			c.verifyJob(run)
			wall = run.wall
		}
		samples = append(samples, wall)
		measured += wall
	}

	c.detail.Vertices, c.detail.Edges = p.input.NumVertices(), p.input.NumEdges()
	c.detail.Reps = len(samples)
	// Every rep does the same work, so its rate is that work over its time.
	work := c.w.work(p.input, p.warm.res, c.opt.size)
	rates := make([]float64, len(samples))
	for i, d := range samples {
		rates[i] = work / d.Seconds()
	}
	for name, m := range map[string]struct {
		samples []float64
		unit    string
	}{
		"setup_s": {seconds(setups), "s"}, "job_s": {seconds(samples), "s"},
		"work_per_s": {rates, "1/s"}, "peak_rss_mb": {[]float64{peakRSSMB()}, "MB"},
	} {
		c.detail.Samples[name] = m.samples
		c.set(name, median(m.samples), m.unit)
	}
	return nil
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	if raw, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			var kb float64
			if n, _ := fmt.Sscanf(line, "VmHWM: %f kB", &kb); n == 1 {
				return kb / 1024
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}
