// Package experiments encodes the evaluation protocol of every table and
// figure in the Raha paper (§8, Appendix D). The FigureN / TableN functions
// run one protocol over a caller-chosen grid; Registry writes each
// experiment down once — instance, default budget, grid, CSV format and the
// paper claim its rows must uphold — and cmd/raha-experiments is a loop over
// it, so every figure is regenerated by exactly one path. Every analysis
// goes through one call, Setup.analyze, and every figure that fans out
// runs its grid as conc.Stage stages of the setup's worker budget, rows
// back in grid order; the sweeps that loosen a question step by step
// (Figures 3, 5/6 and 7, Table 3) share one warm-start rule, warmChain.
//
// Scale note: the paper drives Gurobi on a 16-core workstation with
// 1000-second timeouts; this repository drives its own from-scratch MILP
// solver. Experiments therefore run on moderated instance sizes (the
// production stand-in is SmallWAN unless a figure is specifically about a
// Zoo topology) and tighter solver budgets. Every row still exercises the
// full pipeline — encoding, bilevel solve, verification by LP re-solve —
// and the paper's shape conclusions are what the registry's claims check.
// EXPERIMENTS.md records paper-vs-measured for each figure.
package experiments
