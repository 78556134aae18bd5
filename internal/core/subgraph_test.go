package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"testing"

	"graft/internal/algorithms"
	"graft/internal/dfs"
	"graft/internal/graphgen"
	"graft/internal/pregel"
	"graft/internal/repro"
	"graft/internal/trace"
)

// subgraphTraceDigest runs alg's subgraph port over g with a session
// attached, requires every capture of the trace it leaves to replay, and
// returns a SHA-256 over every (file name, bytes) pair of that trace,
// job.done and job.metrics aside: they hold wall times.
func subgraphTraceDigest(t *testing.T, alg *algorithms.Algorithm, g *pregel.Graph, workers int, dc DebugConfig) string {
	t.Helper()
	fs := dfs.NewMemFS()
	store := trace.NewStore(fs, "t")
	session, err := Attach(context.Background(), store, trace.JobMeta{JobID: "pin", Algorithm: alg.Name, NumWorkers: workers,
		ComputeMode: "subgraph"}, g, dc)
	if err != nil {
		t.Fatal(err)
	}
	cfg := pregel.Config{NumWorkers: workers, Listener: session, Master: session.InstrumentMaster(alg.Master),
		Combiner: alg.Combiner, MaxSupersteps: alg.MaxSupersteps}
	job := pregel.NewSubgraphJob(g, session.InstrumentSubgraph(alg.Subgraph), cfg)
	for _, spec := range alg.Aggregators {
		job.RegisterAggregator(spec.Name, spec.Agg, spec.Persistent)
	}
	if _, err := job.Run(); err != nil {
		t.Fatal(err)
	}
	if session.LimitHit() {
		t.Fatal("capture limit engaged: which member takes the last slot depends on scheduling")
	}
	db, err := store.OpenReader("pin")
	if err != nil {
		t.Fatal(err)
	}
	diverged, err := repro.CheckTrace(db, alg)
	if err != nil {
		t.Fatal(err)
	}
	if len(diverged) != 0 {
		t.Errorf("%d captures do not replay, first %+v", len(diverged), diverged[0])
	}
	names, err := fs.List("t/")
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(names)
	h := sha256.New()
	for _, n := range names {
		if strings.HasSuffix(n, "/job.done") || strings.HasSuffix(n, "/job.metrics") {
			continue
		}
		raw, err := dfs.ReadFile(fs, n)
		if err != nil {
			t.Fatal(err)
		}
		h.Write([]byte(n))
		h.Write([]byte{0})
		h.Write(binary.LittleEndian.AppendUint64(nil, uint64(len(raw))))
		h.Write(raw)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestSubgraphTraceBytesPinned pins the trace subgraph mode writes, byte
// for byte, under three capture configurations, two graphs, two
// algorithms and one and three workers.
func TestSubgraphTraceBytesPinned(t *testing.T) {
	configs := map[string]DebugConfig{
		"static": {
			CaptureIDs: []pregel.VertexID{3, 17, 150}, CaptureNeighbors: true,
			MessageConstraint:     func(m pregel.Value, _, dst pregel.VertexID, _ int) bool { return sometimes(m, dst) },
			VertexValueConstraint: func(v pregel.Value, id pregel.VertexID, _ int) bool { return sometimes(v, id) },
			CaptureExceptions:     true, MaxCaptures: -1,
		},
		"all-active": {CaptureAllActive: true, MaxCaptures: -1},
		"incoming": {
			IncomingMessageConstraint: func(m, _ pregel.Value, dst pregel.VertexID, _ int) bool { return sometimes(m, dst) },
			MaxCaptures:               -1,
		},
	}
	graphs := map[string]func() *pregel.Graph{
		"bipartite": func() *pregel.Graph { return graphgen.RegularBipartite(400, 4) },
		"chained":   func() *pregel.Graph { return graphgen.ChainedCommunities(600, 12, 4, 7) },
	}
	algs := map[string]func() *algorithms.Algorithm{
		"bfs": func() *algorithms.Algorithm { return algorithms.NewBFS(0) },
		"cc":  algorithms.NewConnectedComponents,
	}
	want := map[string]string{
		"all-active/bipartite/bfs/1": "9539e42abc5e1ea3cd9d077af940d7a731b603f16c3ac2f7f36e336d8797f548",
		"all-active/bipartite/bfs/3": "200161fa37d490ba1d6462ce58a1ae4b0dffca7644322b72b11aa9a2caad64cf",
		"all-active/bipartite/cc/1":  "f3396f0c82dbb00a10b262a28ff91b91179c11119d1b2f2743a942f3291d86de",
		"all-active/bipartite/cc/3":  "6bfbd54c5b074cf2033e6cb35c848cfe399c0cf5fdea484ceb2b62b1f6b3483a",
		"all-active/chained/bfs/1":   "99a623d81102cc7bffeb92c92192def057c4cd360ee2e3b440dcaecb5bd92196",
		"all-active/chained/bfs/3":   "73d0f55f23eac2374d9dda467060b3732a177fc665a7f76e39f821bbfce2e2dc",
		"all-active/chained/cc/1":    "d3b0536b7ff93c4fb9de4dd076131e823e3845cae19f83db0edd0cea7b2328eb",
		"all-active/chained/cc/3":    "3e7fbf1ebcd896ecb86861120266767e51fc74eafff577a78b5bbfe1ff297900",
		"incoming/bipartite/bfs/1":   "00d8cf29aac1223124aa9b1228d282f1e02def740e6880d565f055f66c006d3b",
		"incoming/bipartite/bfs/3":   "54d0311aaf6a137f6610690528c67773c8a41b87037706ab9b5a8dac0faa06e1",
		"incoming/bipartite/cc/1":    "f7327f2a2762c6f31aa904afde7d176233454e0921dadb4915dcfea5367ff8c0",
		"incoming/bipartite/cc/3":    "044852e8327a6e9812bcd39c8ab0de1b5a54e34e111443951101a152c493df05",
		"incoming/chained/bfs/1":     "732495988f1971e016ae9ed934ad01147d01f37e3d7942605a9f7655c869df87",
		"incoming/chained/bfs/3":     "ff5da38f3720990b4f9b4926af1e1aa3715b91442b02f56f7cc0a0b736e485e2",
		"incoming/chained/cc/1":      "6f37188dbbd154feb98ba176039b96a5d07c90da73049a7568e1a2eb9b47cc61",
		"incoming/chained/cc/3":      "ad5ef06b90f45542f96d72db4aa0d234176296422d019a393ca14fffa4e84ea2",
		"static/bipartite/bfs/1":     "06ef484a0ded828ed10ee8b57eefd87bd4bfa1cdda221b1061c4a58f8f39e561",
		"static/bipartite/bfs/3":     "12e768bada6e7d7942d682cf6757dc21820b94e83fc2d9283863242945a9a071",
		"static/bipartite/cc/1":      "1f3a873aab812039249a56383c7c066b27a652f1dd58fadaab229a35a9bd0643",
		"static/bipartite/cc/3":      "c1540e3fe3fb55478f2e6b194828f9e100328f32cf64de0b022bb0109c5b3347",
		"static/chained/bfs/1":       "2dc27a5be7e2a94ed96476e10f3872abbf54a8c8f7a3336e14f7bf4006ce128a",
		"static/chained/bfs/3":       "0920570f403e0781526010dec30043a2ca10c1bc5167bc72269fa09915bb5b7d",
		"static/chained/cc/1":        "6b561b75f2b33527b3568d66f826a099687f1b2e0168395ccd438365417d6f96",
		"static/chained/cc/3":        "24b42fa104dc096e79441bff7f4cf4a264d4d4f049222e88584325f99ab3167d",
	}
	for cfgName, dc := range configs {
		for graphName, graph := range graphs {
			for algName, alg := range algs {
				for _, workers := range []int{1, 3} {
					name := fmt.Sprintf("%s/%s/%s/%d", cfgName, graphName, algName, workers)
					got := subgraphTraceDigest(t, alg(), graph(), workers, dc)
					if got != want[name] {
						t.Errorf("%s: trace digest %s, want %s", name, got, want[name])
					}
				}
			}
		}
	}
}
