package graft

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"graft/internal/core"
	"graft/internal/metrics"
	"graft/internal/pregel"
)

// Typed option errors, so callers (and the serve daemon's HTTP layer)
// can distinguish a bad request from a saturated session.
var (
	// ErrInvalidOptions is the sentinel every RunOptions/SessionConfig
	// validation failure wraps; the message names the offending field.
	ErrInvalidOptions = errors.New("graft: invalid options")
	// ErrInvalidConfig is the engine-level sentinel wrapped by
	// EngineConfig.Validate failures (re-exported from internal/pregel).
	// Errors returned by Run/Submit for a bad EngineConfig match both
	// ErrInvalidOptions and ErrInvalidConfig under errors.Is.
	ErrInvalidConfig = pregel.ErrInvalidConfig
	// ErrSessionFull rejects a Submit when the session's admission
	// control is saturated (too many queued jobs).
	ErrSessionFull = errors.New("graft: session full")
	// ErrSessionClosed rejects a Submit after Close.
	ErrSessionClosed = errors.New("graft: session closed")
)

// MetricsRegistry is the per-job metrics collector (re-exported from
// internal/metrics): a JobListener accumulating per-superstep telemetry,
// served over HTTP by the daemon and persisted as job.metrics.
type MetricsRegistry = metrics.Registry

// JobState is the lifecycle of a submitted Job.
type JobState int

const (
	// JobQueued: admitted but waiting for a concurrency slot.
	JobQueued JobState = iota
	// JobRunning: the superstep loop is executing.
	JobRunning
	// JobSucceeded: finished cleanly.
	JobSucceeded
	// JobFailed: finished with a non-cancellation error.
	JobFailed
	// JobCanceled: interrupted by Job.Cancel or a canceled context.
	JobCanceled
)

func (s JobState) String() string {
	switch s {
	case JobQueued:
		return "queued"
	case JobRunning:
		return "running"
	case JobSucceeded:
		return "succeeded"
	case JobFailed:
		return "failed"
	case JobCanceled:
		return "canceled"
	}
	return fmt.Sprintf("JobState(%d)", int(s))
}

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool { return s >= JobSucceeded }

// SessionConfig configures a Session: the shared trace store plus the
// admission-control knobs bounding what N tenants can demand at once.
type SessionConfig struct {
	// Store receives every job's trace and metrics files; jobs share it,
	// isolated by job ID. Required for debugged jobs that do not bring
	// their own RunOptions.Store.
	Store *Store
	// MaxConcurrentJobs bounds how many jobs run superstep loops at
	// once; further admitted jobs queue. 0 means the default of 4.
	MaxConcurrentJobs int
	// MaxPendingJobs bounds the queue of admitted-but-not-running jobs;
	// Submit returns ErrSessionFull beyond it. 0 means the default of
	// 4x MaxConcurrentJobs.
	MaxPendingJobs int
	// MaxWorkersPerJob caps one job's EngineConfig.NumWorkers (its
	// partition count, hence its per-job memory footprint); a Submit
	// asking for more is rejected with ErrInvalidOptions. 0 means
	// uncapped.
	MaxWorkersPerJob int
	// MaxTotalWorkers is the global worker budget: across every running
	// job, at most this many worker goroutines scan partitions at once
	// (a shared pregel.WorkerPool). 0 means uncapped.
	MaxTotalWorkers int
}

// Session is a long-lived multi-job context: a shared trace store and
// worker budget that N concurrent jobs run against, each with its own
// trace directory and metrics registry. It is what `graft serve` wraps
// in HTTP; graft.Run is a one-job session.
type Session struct {
	cfg  SessionConfig
	pool *pregel.WorkerPool
	// slots is the running-jobs semaphore: a queued job's runner blocks
	// here until a slot frees.
	slots chan struct{}

	mu      sync.Mutex
	jobs    map[string]*Job
	order   []*Job // submission order, for Jobs()
	pending int    // admitted, not yet holding a slot
	nextID  int
	closed  bool
	wg      sync.WaitGroup
}

// NewSession validates cfg and returns an empty session.
func NewSession(cfg SessionConfig) (*Session, error) {
	if cfg.MaxConcurrentJobs < 0 {
		return nil, fmt.Errorf("%w: MaxConcurrentJobs = %d, must be >= 0", ErrInvalidOptions, cfg.MaxConcurrentJobs)
	}
	if cfg.MaxPendingJobs < 0 {
		return nil, fmt.Errorf("%w: MaxPendingJobs = %d, must be >= 0", ErrInvalidOptions, cfg.MaxPendingJobs)
	}
	if cfg.MaxWorkersPerJob < 0 {
		return nil, fmt.Errorf("%w: MaxWorkersPerJob = %d, must be >= 0", ErrInvalidOptions, cfg.MaxWorkersPerJob)
	}
	if cfg.MaxTotalWorkers < 0 {
		return nil, fmt.Errorf("%w: MaxTotalWorkers = %d, must be >= 0", ErrInvalidOptions, cfg.MaxTotalWorkers)
	}
	if cfg.MaxConcurrentJobs == 0 {
		cfg.MaxConcurrentJobs = 4
	}
	if cfg.MaxPendingJobs == 0 {
		cfg.MaxPendingJobs = 4 * cfg.MaxConcurrentJobs
	}
	return &Session{
		cfg:   cfg,
		pool:  pregel.NewWorkerPool(cfg.MaxTotalWorkers),
		slots: make(chan struct{}, cfg.MaxConcurrentJobs),
		jobs:  make(map[string]*Job),
	}, nil
}

// Store returns the session's shared trace store (may be nil).
func (s *Session) Store() *Store { return s.cfg.Store }

// Job returns the job with the given ID, or nil.
func (s *Session) Job(id string) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// Jobs returns every job ever submitted, in submission order.
func (s *Session) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, len(s.order))
	copy(out, s.order)
	return out
}

// Submit admits one job and returns its handle without waiting for it
// to run. The job executes comp over g — debugged exactly as graft.Run
// would when opts.Debug is set — once a concurrency slot frees; cancel
// ctx (or call Job.Cancel) to interrupt it mid-superstep. opts.Store
// defaults to the session store, so debugged jobs land in per-job
// directories of the shared DFS. Rejections: ErrSessionClosed after
// Close, ErrSessionFull when the queue is at MaxPendingJobs,
// ErrInvalidOptions for bad options or a NumWorkers above the per-job
// cap, and a duplicate-ID error (job IDs name trace directories, so
// they must be unique within the store).
func (s *Session) Submit(ctx context.Context, g *Graph, comp Computation, opts RunOptions) (*Job, error) {
	if opts.Store == nil {
		opts.Store = s.cfg.Store
	}
	if err := validateRunOptions(&opts); err != nil {
		return nil, err
	}
	if cap := s.cfg.MaxWorkersPerJob; cap > 0 && opts.Engine.NumWorkers > cap {
		return nil, fmt.Errorf("%w: Engine.NumWorkers = %d exceeds the session's per-job cap of %d",
			ErrInvalidOptions, opts.Engine.NumWorkers, cap)
	}
	opts.Engine.WorkerPool = s.pool

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrSessionClosed
	}
	if opts.JobID == "" {
		s.nextID++
		opts.JobID = fmt.Sprintf("job-%04d", s.nextID)
	}
	if _, dup := s.jobs[opts.JobID]; dup {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: duplicate job ID %q", ErrInvalidOptions, opts.JobID)
	}
	if pending := s.pending; pending >= s.cfg.MaxPendingJobs {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: %d jobs pending (MaxPendingJobs = %d)",
			ErrSessionFull, pending, s.cfg.MaxPendingJobs)
	}
	jctx, cancel := context.WithCancel(ctx)
	algName := opts.Algorithm
	if algName == "" {
		algName = "unnamed"
	}
	j := &Job{
		id:      opts.JobID,
		session: s,
		cancel:  cancel,
		reg:     metrics.NewRegistry(opts.JobID, algName),
		state:   JobQueued,
		done:    make(chan struct{}),
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j)
	s.pending++
	s.wg.Add(1)
	s.mu.Unlock()

	go s.runJob(jctx, j, g, comp, opts)
	return j, nil
}

// SubmitAlgorithm is Submit for a packaged Algorithm, applying the same
// defaulting as RunAlgorithm.
func (s *Session) SubmitAlgorithm(ctx context.Context, g *Graph, alg *Algorithm, opts RunOptions) (*Job, error) {
	mergeAlgorithm(&opts, alg)
	return s.Submit(ctx, g, alg.Compute, opts)
}

// runJob is one job's runner goroutine: wait for a slot, run, record.
func (s *Session) runJob(ctx context.Context, j *Job, g *Graph, comp Computation, opts RunOptions) {
	defer s.wg.Done()
	defer j.cancel() // release the context's resources whatever happened

	// Hold the queue until a running slot frees; a cancel while queued
	// finishes the job without ever running a superstep.
	select {
	case s.slots <- struct{}{}:
	case <-ctx.Done():
		s.mu.Lock()
		s.pending--
		s.mu.Unlock()
		j.finish(nil, fmt.Errorf("graft: job %s canceled while queued: %w", j.id, ctx.Err()))
		return
	}
	s.mu.Lock()
	s.pending--
	s.mu.Unlock()
	j.setState(JobRunning)
	defer func() { <-s.slots }()

	res, err := runJob(ctx, g, comp, opts, j.reg)

	// Persist the metrics snapshot next to the trace so the GUI's
	// dashboard can render the job after it leaves the live set.
	if store := opts.Store; store != nil && opts.Debug != nil {
		snap := j.reg.Snapshot()
		if werr := metrics.WriteJobMetrics(store.FS, store.MetricsPath(j.id), snap); werr != nil && err == nil {
			err = fmt.Errorf("graft: writing job.metrics: %w", werr)
		}
	}
	j.finish(res, err)
}

// Close cancels every unfinished job, waits for their barriers, and
// rejects further submissions.
func (s *Session) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	jobs := make([]*Job, len(s.order))
	copy(jobs, s.order)
	s.mu.Unlock()
	for _, j := range jobs {
		j.Cancel()
	}
	s.wg.Wait()
	return nil
}

// Job is the handle of one submitted job.
type Job struct {
	id      string
	session *Session
	cancel  context.CancelFunc
	reg     *metrics.Registry
	done    chan struct{}

	mu    sync.Mutex
	state JobState
	res   *RunResult
	err   error
}

// ID returns the job's ID (its trace directory name).
func (j *Job) ID() string { return j.id }

// State returns the job's current lifecycle state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Metrics returns the job's own metrics registry: live telemetry while
// the job runs, the final numbers after. Never nil.
func (j *Job) Metrics() *MetricsRegistry { return j.reg }

// Cancel asks the job to stop. The engine notices within one partition
// scan stride and shuts down at the next superstep barrier: Stats
// counts the supersteps that completed, the trace is readable through
// them, and the job's checkpoints and outbox logs are garbage-collected.
// The trace may also hold the interrupted superstep (number
// Stats.Supersteps) — its meta record and what was captured before the
// workers noticed — as it does when a Compute error interrupts one.
// Safe to call any number of times, in any state.
func (j *Job) Cancel() { j.cancel() }

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Wait blocks until the job finishes or ctx is canceled (which does
// NOT cancel the job — only the wait). It returns the job's result and
// error exactly as graft.Run would have: on a compute failure or a
// cancellation the RunResult is still returned alongside the error,
// carrying whatever was captured.
func (j *Job) Wait(ctx context.Context) (*RunResult, error) {
	select {
	case <-j.done:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.res, j.err
}

// Stats returns the finished (or cancellation-partial) job stats, nil
// while the job is still queued or running.
func (j *Job) Stats() *Stats {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.res == nil {
		return nil
	}
	return j.res.Stats
}

// Err returns the job's terminal error, nil while unfinished or on
// success.
func (j *Job) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

func (j *Job) setState(st JobState) {
	j.mu.Lock()
	j.state = st
	j.mu.Unlock()
}

func (j *Job) finish(res *RunResult, err error) {
	j.mu.Lock()
	j.res = res
	j.err = err
	switch {
	case err == nil:
		j.state = JobSucceeded
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		j.state = JobCanceled
	default:
		j.state = JobFailed
	}
	j.mu.Unlock()
	close(j.done)
}

// teeListener fans one job's events out to two listeners (the per-job
// metrics registry and the caller's own listener).
type teeListener struct{ a, b pregel.JobListener }

func tee(a, b pregel.JobListener) pregel.JobListener {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	return &teeListener{a: a, b: b}
}

func (t *teeListener) JobStarted(info pregel.JobInfo) {
	t.a.JobStarted(info)
	t.b.JobStarted(info)
}

func (t *teeListener) SuperstepStarted(superstep int, info pregel.SuperstepInfo) {
	t.a.SuperstepStarted(superstep, info)
	t.b.SuperstepStarted(superstep, info)
}

func (t *teeListener) SuperstepFinished(superstep int, stats pregel.SuperstepStats) {
	t.a.SuperstepFinished(superstep, stats)
	t.b.SuperstepFinished(superstep, stats)
}

func (t *teeListener) JobFinished(stats *pregel.Stats, err error) {
	t.a.JobFinished(stats, err)
	t.b.JobFinished(stats, err)
}

// validateRunOptions rejects contradictory options with typed errors
// wrapping ErrInvalidOptions (and, for engine-level failures, also
// pregel.ErrInvalidConfig).
func validateRunOptions(opts *RunOptions) error {
	if opts.Debug != nil {
		if opts.Store == nil {
			return fmt.Errorf("%w: Debug set without Store", ErrInvalidOptions)
		}
		if opts.JobID == "" {
			return fmt.Errorf("%w: Debug set without JobID", ErrInvalidOptions)
		}
	}
	if opts.Engine.ComputeMode == pregel.ModeSubgraph && opts.Subgraph == nil {
		return fmt.Errorf("%w: ComputeMode is ModeSubgraph but no SubgraphComputation was provided (set RunOptions.Subgraph, or use an Algorithm with a Subgraph port)", ErrInvalidOptions)
	}
	if err := opts.Engine.Validate(); err != nil {
		return fmt.Errorf("%w: %w", ErrInvalidOptions, err)
	}
	return nil
}

// mergeAlgorithm folds a packaged Algorithm's wiring into opts
// (explicit opts.Engine fields win), shared by RunAlgorithm and
// SubmitAlgorithm.
func mergeAlgorithm(opts *RunOptions, alg *Algorithm) {
	if opts.Algorithm == "" {
		opts.Algorithm = alg.Name
	}
	alg.ApplyDefaults(&opts.Engine)
	if opts.Subgraph == nil {
		opts.Subgraph = alg.Subgraph
	}
	opts.Aggregators = append(opts.Aggregators, alg.Aggregators...)
}

// faultSink is a listener that wants a job's resilient storage layers
// as live counter sources (metrics.Registry's AddFaultSource).
type faultSink interface {
	AddFaultSource(pregel.FaultStatsProvider)
}

// runJob is the only place a job is assembled — under Run,
// RunAlgorithm, Session.Submit, `graft run`, `graft serve` and the
// harness alike: attach Graft if asked, wire listeners, run the engine
// under ctx, and turn a failed trace write into the job's error.
func runJob(ctx context.Context, g *Graph, comp Computation, opts RunOptions, extra pregel.JobListener) (*RunResult, error) {
	cfg := opts.Engine
	scomp := opts.Subgraph
	res := &RunResult{}
	var session *core.Graft
	cfg.Listener = tee(extra, cfg.Listener)
	if opts.Debug != nil {
		mode := ""
		if cfg.ComputeMode == pregel.ModeSubgraph {
			mode = "subgraph"
		}
		var err error
		session, err = core.Attach(opts.Store, core.Options{
			JobID:       opts.JobID,
			Algorithm:   opts.Algorithm,
			Description: opts.Description,
			NumWorkers:  cfg.NumWorkers,
			Trace:       opts.Trace,
			ComputeMode: mode,
			Seed:        opts.Seed,
			Supersteps:  opts.Supersteps,
			Context:     ctx,
		}, g, *opts.Debug)
		if err != nil {
			return nil, err
		}
		if cfg.ComputeMode == pregel.ModeSubgraph && scomp != nil {
			scomp = session.InstrumentSubgraph(scomp)
		} else {
			comp = session.Instrument(comp)
		}
		cfg.Master = session.InstrumentMaster(cfg.Master)
		// Live /metrics should expose trace-write resilience counters
		// mid-run, before the engine folds them into the final Stats.
		for _, l := range []pregel.JobListener{extra, opts.Engine.Listener} {
			if sink, ok := l.(faultSink); ok {
				sink.AddFaultSource(session)
			}
		}
		cfg.Listener = session.Chain(cfg.Listener)
		res.JobID = opts.JobID
	}

	var job *pregel.Job
	if cfg.ComputeMode == pregel.ModeSubgraph {
		job = pregel.NewSubgraphJob(g, scomp, cfg)
	} else {
		job = pregel.NewJob(g, comp, cfg)
	}
	for _, spec := range opts.Aggregators {
		job.RegisterAggregator(spec.Name, spec.Agg, spec.Persistent)
	}
	stats, err := job.RunContext(ctx)
	res.Stats = stats
	if session != nil {
		res.Captures = session.Captures()
		res.LimitHit = session.LimitHit()
		if werr := session.Err(); werr != nil && err == nil {
			err = fmt.Errorf("graft: trace write: %w", werr)
		}
	}
	return res, err
}
