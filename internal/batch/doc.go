// Package batch is the whole-fleet sweep harness: it crosses a set of
// topology sources (built-ins, a directory of Topology Zoo GML files,
// seeded synthetic WANs) with a grid of k-failure depths, probability
// thresholds, and demand models, runs the two-phase alert check
// (internal/alert) on every cell under a bounded worker pool with
// per-topology time budgets, and assembles a ranked "most fragile
// topologies" report.
//
// The sweep is fault-tolerant by construction: a topology that fails to
// load, or a cell that panics or times out, is recorded as a partial
// result and never kills the sweep. It is also a
// self-checking harness — every cell asserts the branch-and-bound node
// accounting invariant, the postsolve round-trip (demands inside the
// envelope, scenario shaped like the topology), and the
// Raised ⇒ NormalizedDegradation > Tolerance consistency before its result
// joins the report; a violation is recorded as that cell's failure.
//
// Within one topology the cells share their models and what they prove
// through metaopt.Sessions (topoMemo), which holds every reuse rule: cells
// are solved loosest budget first, a phase question an earlier cell proved
// — asked in identical form, or presolving to the model it proved — is
// answered with that proof, and every other phase starts from its looser
// neighbours' dual bound and admissible scenario.
//
// DESIGN.md §2.10 documents the architecture, the shard/budget semantics,
// the grid reuse and the sweep_topo_start/sweep_topo_end trace events.
package batch
