// Package pregel is a Pregel-style bulk-synchronous-parallel graph
// processing engine: the Giraph-equivalent substrate the Graft
// debugger attaches to.
//
// Computation follows the model of Malewicz et al. (and its Giraph/GPS
// incarnation the paper targets): the graph is hash-partitioned across
// worker goroutines; execution proceeds in supersteps; in each
// superstep every active vertex runs a user Computation that may read
// its incoming messages, mutate its own value and edges, send messages
// for the next superstep, aggregate into global aggregators, and vote
// to halt. An optional MasterComputation runs at the beginning of
// every superstep and typically coordinates multi-phase algorithms
// through aggregators. The job terminates when every vertex has halted
// and no messages are in flight, when the master calls
// HaltComputation, or at the Config.MaxSupersteps safety bound.
//
// The engine also provides the substrate features Graft's story
// depends on:
//
//   - a Writable-style binary codec and value registry (Value,
//     Encoder/Decoder, RegisterValue) shared by messages, trace files
//     and checkpoints;
//   - message combiners and regular/persistent aggregators;
//   - vertex removal requested during a superstep and applied at its
//     barrier (the engine never creates vertices: mail to a missing
//     ID is dropped and counted);
//   - checkpointing to a FileSystem with simulated worker failure and
//     automatic recovery (Config.CheckpointEvery, Config.FailureAt);
//   - a JobListener interface through which Graft's instrumentation
//     observes superstep boundaries.
//
// Determinism: given fixed inputs and seeds, results are identical
// across runs and worker counts for order-insensitive computations.
// Message delivery order within an inbox is unspecified, exactly as in
// Pregel; computations must not depend on it.
package pregel
