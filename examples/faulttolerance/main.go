// faulttolerance demonstrates the substrate features Graft inherits
// from the Giraph/HDFS stack it stands in for: the engine checkpoints
// into a simulated distributed file system through a deterministic
// fault injector and a retry layer, a worker "crashes" mid-job, the
// engine recovers from the latest checkpoint and finishes with exactly
// the result of an undisturbed run — and the DFS itself survives a
// datanode failure through replication.
package main

import (
	"fmt"
	"log"

	"graft"
	"graft/internal/algorithms"
	"graft/internal/dfs"
	"graft/internal/faults"
	"graft/internal/graphgen"
	"graft/internal/pregel"
)

func main() {
	build := func() *graft.Graph { return graphgen.SocialGraph(2000, 6, 3) }

	// Reference: an undisturbed run.
	ref := build()
	if _, err := graft.RunAlgorithm(ref, algorithms.NewConnectedComponents(), graft.RunOptions{}); err != nil {
		log.Fatal(err)
	}

	// A simulated HDFS: 4 datanodes, 2 replicas per block. Checkpoint
	// writes pass through a seeded fault injector (so some writes fail
	// deterministically) and a retry layer that absorbs those failures
	// with capped exponential backoff.
	cluster := dfs.NewCluster(4, 2, 8<<10)
	ckptFS := graft.NewRetryFS(graft.NewFaultFS(cluster, faults.ChaosPlan(7, 0.3)), 7)

	// The same job, checkpointing every 2 supersteps, with a worker
	// crash injected after superstep 3.
	fmt.Println("!! simulated worker crash after superstep 3")
	g := build()
	res, err := graft.RunAlgorithm(g, algorithms.NewConnectedComponents(), graft.RunOptions{
		Engine: pregel.Config{
			NumWorkers:       4,
			CheckpointEvery:  2,
			CheckpointFS:     ckptFS,
			CheckpointPrefix: "cc-job/",
			FailureAt:        graft.FailAt(3),
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recovered run: %d supersteps, %d recovery, reason=%v\n",
		res.Stats.Supersteps, res.Stats.Recoveries, res.Stats.Reason)
	fmt.Printf("resilience: %s\n", res.Stats.Faults)

	// The recovered run's output matches the reference exactly.
	diffs := 0
	ref.Each(func(v *graft.Vertex) {
		a := v.Value().(*pregel.LongValue).Get()
		b := g.Vertex(v.ID()).Value().(*pregel.LongValue).Get()
		if a != b {
			diffs++
		}
	})
	fmt.Printf("labels differing from the undisturbed run: %d\n", diffs)

	// Checkpoints landed in the DFS as replicated blocks.
	files, err := cluster.List("cc-job/")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("checkpoints in the simulated DFS: %d files\n", len(files))

	// Now a datanode dies; every block has a second replica, so the
	// checkpoints stay readable.
	cluster.Kill(0)
	fmt.Println("datanode 0 killed")
	if _, err := dfs.ReadFile(cluster, files[len(files)-1]); err != nil {
		log.Fatalf("checkpoint unreadable after single-node failure: %v", err)
	}
	fmt.Println("latest checkpoint still readable from surviving replicas")
}
