package lp

import (
	"raha/internal/conc"
	"raha/internal/obs"
)

// Workspace lifetime. A Problem's lowering and solver workspace (spCache)
// are built on its first solve and kept while it is re-solved. Release
// hands them to a process-wide free list, and the next Problem to be lowered
// builds into the storage it takes from there, so a run of many short-lived
// Problems — a fleet sweep solves thousands, one search at a time per worker
// — stops regrowing the same buffers. A cache taken from the list carries
// another lowering's factors; Release drops their reuse key and the end
// states of the bases exported on them (DESIGN.md §2.13).
//
// The list is a conc.FreeList, not a sync.Pool, which every garbage
// collection empties (DESIGN.md §2.13 has the measurement).
// maxFreeWorkspaces bounds what the process keeps.

const (
	maxFreeWorkspaces = 16
	maxFreeSolutions  = 4  // per cache: a node solve and its rounding solve in flight
	maxFreeBases      = 64 // per cache: the open nodes' parent bases
)

var (
	freeWorkspaces = conc.FreeList[*spCache]{Max: maxFreeWorkspaces}
	cReleases      = obs.Default.Counter("lp.workspace_releases") // Release calls that handed a workspace on
)

// takeWorkspace returns a released workspace, or a new empty one.
func takeWorkspace() *spCache {
	if c, ok := freeWorkspaces.Get(); ok {
		return c
	}
	return &spCache{}
}

// putWorkspace hands c to the free list, or to the garbage collector when
// the list is full.
func putWorkspace(c *spCache) {
	c.s.c = nil
	c.s.stop = nil
	c.s.dropReuse()
	freeWorkspaces.Put(c)
}

// Release hands p's lowering and solver workspace to the process-wide free
// list, where the next Problem to be lowered finds them. p stays valid: a
// later solve lowers it again. Call it once p's solves are done, on a
// normal return only — a solve that panicked may have left the workspace
// half-updated, and such a workspace must never be reused.
func (p *Problem) Release() {
	if c := p.sp; c != nil {
		p.sp = nil
		putWorkspace(c)
		cReleases.Inc()
	}
}

// DropFactors keeps p's lowering but forgets the factorization its last
// solve left in the workspace, and the end state of every basis its solves
// exported so far, as buildCache does for a workspace taken from the free
// list: the next solve of p starts exactly as it would on a Problem lowered
// afresh — never restored, never hot — without lowering again.
func (p *Problem) DropFactors() {
	if c := p.sp; c != nil {
		c.s.dropReuse()
	}
}

// Recycle hands sol, a Solution a solve of p returned, back to p: a later
// solve of p may return the same Solution, with its X and its Basis
// overwritten. The caller must hold no reference to any of them afterwards;
// to keep the Basis, set sol.Basis to nil first (and RecycleBasis it once
// done with it).
func (p *Problem) Recycle(sol *Solution) {
	c := p.sp
	if c == nil || sol == nil {
		return
	}
	if sol.Basis != nil {
		p.RecycleBasis(sol.Basis)
		sol.Basis = nil
	}
	if len(c.freeSols) < maxFreeSolutions {
		c.freeSols = append(c.freeSols, sol)
	}
}

// RecycleBasis hands b, a Basis that a solve of p — or of any Problem — returned, back to p,
// whose later solves may export their bases into its storage. The caller
// must hold no reference to b afterwards.
func (p *Problem) RecycleBasis(b *Basis) {
	if c := p.sp; c != nil && b != nil && len(c.freeBases) < maxFreeBases {
		c.freeBases = append(c.freeBases, b)
	}
}

// takeSolution returns a recycled Solution, or a new one.
func (c *spCache) takeSolution() *Solution {
	if n := len(c.freeSols); n > 0 {
		sol := c.freeSols[n-1]
		c.freeSols = c.freeSols[:n-1]
		return sol
	}
	return &Solution{}
}

// takeBasis returns a recycled Basis, or a new one.
func (c *spCache) takeBasis() *Basis {
	if n := len(c.freeBases); n > 0 {
		b := c.freeBases[n-1]
		c.freeBases = c.freeBases[:n-1]
		return b
	}
	return &Basis{}
}
