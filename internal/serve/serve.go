// Package serve is the graft daemon: a long-lived HTTP service
// multiplexing N concurrent debugged jobs over one graft.Session — the
// ROADMAP's multi-tenant direction. It exposes a small job-control API
// (submit / list / status / cancel), admission control inherited from
// the session (max concurrent jobs, per-job worker caps, a global
// worker pool), and mounts the GUI so every live job's dashboard,
// profiler and trace views render under /job/{id}/ while it runs.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"graft"
	"graft/internal/algorithms"
	"graft/internal/core"
	"graft/internal/graphgen"
	"graft/internal/gui"
	"graft/internal/metrics"
	"graft/internal/pregel"
	"graft/internal/repro"
	"graft/internal/trace"
)

// Daemon wraps one graft.Session in HTTP.
type Daemon struct {
	session *graft.Session
	gui     *gui.Server
	mux     *http.ServeMux
}

// New builds a daemon over an existing session. The session must have
// a Store (jobs are submitted with debugging on by default, and the
// GUI serves from it).
func New(sess *graft.Session) (*Daemon, error) {
	if sess.Store() == nil {
		return nil, fmt.Errorf("serve: session has no trace store")
	}
	d := &Daemon{session: sess}
	d.gui = gui.NewServer(sess.Store())
	// Live jobs render from their own registries; finished jobs fall
	// back to the persisted job.metrics next to their trace.
	d.gui.AttachMetricsSource(func(jobID string) *metrics.Registry {
		if j := sess.Job(jobID); j != nil {
			return j.Metrics()
		}
		return nil
	})
	// Reproduce Context and the replay check rebuild a job's algorithm
	// as source and as a live function from what its manifest recorded.
	d.gui.AttachAlgorithms(func(meta trace.JobMeta) (pregel.Computation, repro.GenSpec) {
		if meta.Supersteps == 0 { // recorded neither; with a budget, seed 0 is a seed
			meta.Seed, meta.Supersteps = algorithms.DefaultSeed, algorithms.DefaultSupersteps
		}
		alg, err := algorithms.ByName(meta.Algorithm, meta.Seed, meta.Supersteps)
		if err != nil {
			return nil, repro.GenSpec{}
		}
		var spec repro.GenSpec
		if expr := algorithms.ReproExpr(meta.Algorithm, meta.Seed, meta.Supersteps); expr != "" {
			spec = repro.GenSpec{ComputationExpr: expr + ".Compute", ExtraImports: []string{"graft/internal/algorithms"}, Assert: true}
			if alg.Master != nil {
				spec.MasterExpr = expr + ".Master"
			}
		}
		return alg.Compute, spec
	})

	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", d.handleHealth)
	mux.HandleFunc("POST /api/jobs", d.handleSubmit)
	mux.HandleFunc("GET /api/jobs", d.handleList)
	mux.HandleFunc("GET /api/jobs/{id}", d.handleStatus)
	mux.HandleFunc("POST /api/jobs/{id}/cancel", d.handleCancel)
	// Everything else — the job list, /job/{id}/metrics, the profiler,
	// the trace views — is the GUI.
	mux.Handle("/", d.gui.Handler())
	d.mux = mux
	return d, nil
}

// Handler returns the daemon's HTTP handler.
func (d *Daemon) Handler() http.Handler { return d.mux }

// Close shuts the session down: cancels every unfinished job and waits
// for their barriers.
func (d *Daemon) Close() error { return d.session.Close() }

// SubmitRequest is the POST /api/jobs body. Datasets are the Table 1/2
// stand-ins the CLI accepts (scaled); algorithms are the
// algorithms.ByName set; debug is a preset name ("none" to run without
// capture).
type SubmitRequest struct {
	JobID      string  `json:"job_id"`
	Alg        string  `json:"alg"`
	Dataset    string  `json:"dataset"`
	Scale      float64 `json:"scale"`
	Seed       int64   `json:"seed"`
	Workers    int     `json:"workers"`
	Supersteps int     `json:"supersteps"`
	Debug      string  `json:"debug"`
}

// JobInfo is one job's status, as served by list and status.
type JobInfo struct {
	JobID      string `json:"job_id"`
	State      string `json:"state"`
	Algorithm  string `json:"algorithm"`
	Supersteps int    `json:"supersteps"`
	Reason     string `json:"reason,omitempty"`
	Error      string `json:"error,omitempty"`
}

func (d *Daemon) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (d *Daemon) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	if req.Alg == "" {
		req.Alg = "pagerank"
	}
	if req.Dataset == "" {
		req.Dataset = "soc-Epinions"
	}
	if req.Scale == 0 {
		req.Scale = 0.001
	}
	if req.Seed == 0 {
		req.Seed = algorithms.DefaultSeed
	}
	if req.Workers == 0 {
		req.Workers = 4
	}
	if req.Supersteps == 0 {
		req.Supersteps = algorithms.DefaultSupersteps
	}
	if req.Debug == "" {
		req.Debug = "DC-sp"
	}

	alg, err := algorithms.ByName(req.Alg, req.Seed, req.Supersteps)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	// Submissions name datasets, never paths: unlike the CLI, the daemon
	// does not read local files.
	g, err := graphgen.BuildDataset(req.Dataset, req.Scale, req.Seed)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	dc, err := core.PresetConfig(req.Debug, req.Seed)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}

	opts := graft.RunOptions{
		JobID:       req.JobID,
		Description: fmt.Sprintf("dataset=%s scale=%g debug=%s", req.Dataset, req.Scale, req.Debug),
		Seed:        req.Seed,
		Supersteps:  req.Supersteps,
		Engine: graft.EngineConfig{
			NumWorkers:    req.Workers,
			MaxSupersteps: req.Supersteps,
		},
		Debug: dc,
	}
	if dc != nil && opts.JobID == "" {
		httpError(w, http.StatusBadRequest, fmt.Errorf("debugged jobs need a job_id (it names the trace directory)"))
		return
	}
	// The submit's context must outlive the request: the job is
	// canceled through its handle, not by the client hanging up.
	job, err := d.session.SubmitAlgorithm(context.Background(), g, alg, opts)
	if err != nil {
		switch {
		case errors.Is(err, graft.ErrSessionFull):
			httpError(w, http.StatusTooManyRequests, err)
		case errors.Is(err, graft.ErrSessionClosed):
			httpError(w, http.StatusServiceUnavailable, err)
		case errors.Is(err, graft.ErrInvalidOptions):
			httpError(w, http.StatusBadRequest, err)
		default:
			httpError(w, http.StatusInternalServerError, err)
		}
		return
	}
	writeJSON(w, http.StatusCreated, d.info(job))
}

func (d *Daemon) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := d.session.Jobs()
	out := make([]JobInfo, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, d.info(j))
	}
	writeJSON(w, http.StatusOK, out)
}

func (d *Daemon) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := d.session.Job(r.PathValue("id"))
	if j == nil {
		httpError(w, http.StatusNotFound, fmt.Errorf("no such job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, d.info(j))
}

func (d *Daemon) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := d.session.Job(r.PathValue("id"))
	if j == nil {
		httpError(w, http.StatusNotFound, fmt.Errorf("no such job %q", r.PathValue("id")))
		return
	}
	j.Cancel()
	writeJSON(w, http.StatusAccepted, d.info(j))
}

func (d *Daemon) info(j *graft.Job) JobInfo {
	snap := j.Metrics().Snapshot()
	info := JobInfo{
		JobID:      j.ID(),
		State:      j.State().String(),
		Algorithm:  snap.Algorithm,
		Supersteps: len(snap.Supersteps),
		Reason:     snap.Reason,
	}
	if err := j.Err(); err != nil {
		info.Error = err.Error()
	}
	return info
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
