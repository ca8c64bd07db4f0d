// Package conc provides what the analysis layers share about concurrency:
// Stage, the one way a layer spends a worker budget on independent solves
// (metaopt's cluster-pair waves, the fleet sweep, the experiment figures):
// Split divides the budget between the fan-out and the workers inside each
// solve, the split is traced, and ForEach (errgroup-shaped but
// stdlib-only, per the repository's no-dependency rule) runs the jobs;
// Deque, the work-stealing queue of the branch-and-bound workers; and
// FreeList, the bounded stack in which solver scratch outlives the job that
// grew it.
package conc
