// Package conc provides what the analysis layers share about concurrency:
// ForEach, the bounded fan-out metaopt's cluster-pair waves, the fleet
// sweep and the experiment figures run their independent solves through
// (errgroup-shaped but stdlib-only, per the repository's no-dependency
// rule); Split, the one rule for dividing a worker budget between that
// fan-out and the workers inside each solve; Deque, the work-stealing
// queue of the branch-and-bound workers; and FreeList, the bounded stack in
// which solver scratch outlives the job that grew it.
package conc
