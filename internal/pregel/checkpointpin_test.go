package pregel_test

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"io"
	"testing"

	"graft/internal/algorithms"
	"graft/internal/dfs"
	"graft/internal/graphgen"
	"graft/internal/pregel"
)

// hashingFS feeds every file written through it, as (name, length,
// bytes) in write order, into one SHA-256, so checkpoints the retention
// GC deletes still count.
type hashingFS struct {
	dfs.FileSystem
	h hash.Hash
}

type hashingFile struct {
	io.WriteCloser
	fs   *hashingFS
	name string
	buf  []byte
}

func (f *hashingFS) Create(path string) (io.WriteCloser, error) {
	w, err := f.FileSystem.Create(path)
	if err != nil {
		return nil, err
	}
	return &hashingFile{WriteCloser: w, fs: f, name: path}, nil
}

func (f *hashingFile) Write(p []byte) (int, error) {
	f.buf = append(f.buf, p...)
	return f.WriteCloser.Write(p)
}

func (f *hashingFile) Close() error {
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(f.name)))
	f.fs.h.Write(n[:])
	f.fs.h.Write([]byte(f.name))
	binary.LittleEndian.PutUint64(n[:], uint64(len(f.buf)))
	f.fs.h.Write(n[:])
	f.fs.h.Write(f.buf)
	return f.WriteCloser.Close()
}

// TestCheckpointBytesPinned pins every checkpoint file written by eight
// vertex-removing jobs (k-core peeling and maximum-weight matching,
// under hash and locality placement, on one and three workers), byte
// for byte: slot order, compaction and inbox encoding all feed the
// checkpoint, and none of them may change what it holds. At least one
// job must compact a partition while mail for it is pending, so
// rebuild, the lane remap and the inbox encode all run.
func TestCheckpointBytesPinned(t *testing.T) {
	jobs := map[string]struct {
		alg   func() *algorithms.Algorithm
		graph func() *pregel.Graph
	}{
		"kcore": {func() *algorithms.Algorithm { return algorithms.NewKCore(4) }, func() *pregel.Graph { return graphgen.SocialGraph(3000, 6, 7) }},
		"mwm":   {func() *algorithms.Algorithm { return algorithms.NewMaximumWeightMatching(200) }, func() *pregel.Graph { return graphgen.SocialGraph(2000, 6, 9) }},
	}
	placements := map[string]pregel.PartitionerMode{"hash": pregel.PartitionHash, "locality": pregel.PartitionLocality}
	want := map[string]string{
		"kcore/hash/1":     "51462287a6766cca8a0d800b50aa169c79b40921b09111fed56f4627ff2f937a",
		"kcore/hash/3":     "7827d9000407cb6a631f485c909bd8e6f95a4624cbf42ef93910756f54a14895",
		"kcore/locality/1": "51462287a6766cca8a0d800b50aa169c79b40921b09111fed56f4627ff2f937a",
		"kcore/locality/3": "dcace48896525bfc519bc801f9ca3251a16ebe90070eea973e296e98cda341ee",
		"mwm/hash/1":       "e165427f93984b80f47c417dbda23a99afc7db631d4e7baca2efd6dc6ef93bdc",
		"mwm/hash/3":       "7e7892bd98fa088b710c3327e77e07033dc8b04884533a44a16f725a090fbb45",
		"mwm/locality/1":   "e165427f93984b80f47c417dbda23a99afc7db631d4e7baca2efd6dc6ef93bdc",
		"mwm/locality/3":   "2f881d60a0779a7ed4c7bf6191bed964ed988e311df2039fe01697d9ce133634",
	}
	compactions := 0
	for jobName, job := range jobs {
		for placeName, placement := range placements {
			for _, workers := range []int{1, 3} {
				name := fmt.Sprintf("%s/%s/%d", jobName, placeName, workers)
				fs := &hashingFS{FileSystem: dfs.NewMemFS(), h: sha256.New()}
				alg := job.alg()
				cfg := pregel.Config{NumWorkers: workers, Partitioner: placement, CheckpointEvery: 1, CheckpointFS: fs}
				alg.ApplyDefaults(&cfg)
				j := pregel.NewJob(job.graph(), alg.Compute, cfg)
				_, n, err := pregel.RunCountingPendingCompactions(j)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				compactions += n
				if got := fmt.Sprintf("%x", fs.h.Sum(nil)); got != want[name] {
					t.Errorf("%s: checkpoint digest %s, want %s", name, got, want[name])
				}
			}
		}
	}
	if compactions == 0 {
		t.Error("no job compacted a partition with mail pending for it")
	}
	t.Logf("%d compactions with mail pending", compactions)
}
