package trace

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"

	"graft/internal/dfs"
)

// Store lays traces out in a file system the way Graft lays them out
// in HDFS:
//
//	<root>/<jobID>/job.meta    JSON manifest
//	<root>/<jobID>/worker_NN/  per-worker vertex captures (see segment.go)
//	<root>/<jobID>/master/     superstep metas + master captures
//	<root>/<jobID>/job.done    JSON result, written at job end
//	<root>/<jobID>/job.metrics per-superstep telemetry (internal/metrics)
type Store struct {
	FS   dfs.FileSystem
	Root string
}

// NewStore returns a store rooted at root within fs.
func NewStore(fs dfs.FileSystem, root string) *Store {
	return &Store{FS: fs, Root: strings.TrimSuffix(root, "/")}
}

func (s *Store) jobDir(jobID string) string {
	if s.Root == "" {
		return jobID
	}
	return s.Root + "/" + jobID
}

// MetricsPath returns the conventional location of a job's telemetry
// file, written by the internal/metrics layer and rendered by the
// GUI's metrics dashboard.
func (s *Store) MetricsPath(jobID string) string {
	return s.jobDir(jobID) + "/job.metrics"
}

// ListJobs returns the IDs of all jobs with a manifest, sorted.
func (s *Store) ListJobs() ([]string, error) {
	prefix := ""
	if s.Root != "" {
		prefix = s.Root + "/"
	}
	names, err := s.FS.List(prefix)
	if err != nil {
		return nil, err
	}
	var jobs []string
	seen := map[string]bool{}
	for _, name := range names {
		rel := strings.TrimPrefix(name, prefix)
		parts := strings.SplitN(rel, "/", 2)
		if len(parts) != 2 || parts[1] != "job.meta" || seen[parts[0]] {
			continue
		}
		seen[parts[0]] = true
		jobs = append(jobs, parts[0])
	}
	sort.Strings(jobs)
	return jobs, nil
}

// ReadMeta loads a job's manifest.
func (s *Store) ReadMeta(jobID string) (JobMeta, error) {
	var meta JobMeta
	raw, err := dfs.ReadFile(s.FS, s.jobDir(jobID)+"/job.meta")
	if err != nil {
		return meta, fmt.Errorf("trace: job %q: %w", jobID, err)
	}
	err = json.Unmarshal(raw, &meta)
	return meta, err
}

// ReadResult loads a job's result, reporting done=false if the job has
// not finished.
func (s *Store) ReadResult(jobID string) (res JobResult, done bool, err error) {
	raw, err := dfs.ReadFile(s.FS, s.jobDir(jobID)+"/job.done")
	if errors.Is(err, dfs.ErrNotExist) {
		return res, false, nil
	}
	if err != nil {
		return res, false, err
	}
	err = json.Unmarshal(raw, &res)
	return res, err == nil, err
}

// RemoveJob deletes every file of a job.
func (s *Store) RemoveJob(jobID string) error {
	names, err := s.FS.List(s.jobDir(jobID) + "/")
	if err != nil {
		return err
	}
	for _, name := range names {
		if err := s.FS.Remove(name); err != nil {
			return err
		}
	}
	return nil
}
