package metaopt

import (
	"context"
	"fmt"
	"time"

	"raha/internal/conc"
	"raha/internal/demand"
	"raha/internal/obs"
	"raha/internal/topology"
)

// ClusterConfig parameterizes the Algorithm 1 clustering scheme (§6): the
// topology is partitioned into node clusters, the analyzer searches demand
// values cluster-pair by cluster-pair (all failures and full topology still
// in scope), pins what it finds, and finishes with a fixed-demand full
// analysis.
type ClusterConfig struct {
	Config
	Clusters int // number of node clusters; values < 2 run Analyze directly
}

// AnalyzeClustered runs Algorithm 1. The solver time budget of cfg.Solver
// is split evenly across the cluster-pair solves and the final fixed-demand
// solve, matching the paper's Figure 9 experiment protocol.
//
// The cluster-pair solves proceed in two waves — intra-cluster pairs first,
// then cross-cluster pairs, as in the paper — and every solve in a wave
// pins the demands of all other pairs to the values recorded at the start
// of that wave. The solves within a wave are therefore independent, and
// their demand updates merge in deterministic pair order before the next
// wave starts, so objectives are identical at any worker budget (except
// that solves stopped by a wall-clock TimeLimit return timing-dependent
// incumbents).
//
// cfg.Solver.Workers is the budget of the whole analysis: each wave splits
// it over its pair count (conc.Split), so a wave with enough independent
// pair solves runs them side by side with serial solvers while a narrow
// wave routes the leftover inside each solve; the final fixed-demand pass
// is one solve and gets all of it. Each wave's split is emitted as a
// "parallelism" trace event.
func AnalyzeClustered(cfg ClusterConfig) (*Result, error) {
	return AnalyzeClusteredContext(context.Background(), cfg)
}

// AnalyzeClusteredContext is AnalyzeClustered under a context; cancellation
// propagates into every cluster-pair solve (see AnalyzeContext).
func AnalyzeClusteredContext(ctx context.Context, cfg ClusterConfig) (*Result, error) {
	if cfg.Clusters < 2 {
		return AnalyzeContext(ctx, cfg.Config)
	}
	if _, err := cfg.validate(); err != nil {
		return nil, err
	}
	clusters := PartitionNodes(cfg.Topo, cfg.Clusters)
	clusterOf := make([]int, cfg.Topo.NumNodes())
	for ci, ns := range clusters {
		for _, n := range ns {
			clusterOf[n] = ci
		}
	}

	// Demands grouped by (source cluster, destination cluster).
	group := make(map[[2]int][]int)
	for k, dp := range cfg.Demands {
		key := [2]int{clusterOf[dp.Src], clusterOf[dp.Dst]}
		group[key] = append(group[key], k)
	}

	// Budget per solve: pairs with demands + the final fixed solve.
	solves := len(group) + 1
	per := cfg.Solver
	if per.TimeLimit > 0 {
		per.TimeLimit = time.Duration(int64(per.TimeLimit) / int64(solves))
		if per.TimeLimit < time.Millisecond {
			per.TimeLimit = time.Millisecond
		}
	}

	// Current demand values, initialized to zero (Algorithm 1, line 3).
	current := make([]float64, len(cfg.Demands))

	// Wave 1: intra-cluster pairs. Wave 2: cross-cluster pairs. Both in
	// deterministic order.
	var intra, cross [][2]int
	for ci := range clusters {
		intra = append(intra, [2]int{ci, ci})
	}
	for ci := range clusters {
		for cj := range clusters {
			if ci != cj {
				cross = append(cross, [2]int{ci, cj})
			}
		}
	}

	for _, wave := range [][][2]int{intra, cross} {
		// Keys of this wave that actually carry demands.
		var keys [][2]int
		for _, key := range wave {
			if len(group[key]) > 0 {
				keys = append(keys, key)
			}
		}
		if len(keys) == 0 {
			continue
		}

		// Split the worker budget over this wave's independent pair solves.
		fanout, perSolve := conc.Split(cfg.Solver.Workers, len(keys))
		waveSolver := per
		waveSolver.Workers, waveSolver.AutoWidth = perSolve, true
		if tr := cfg.Solver.Tracer; tr != nil {
			tr.Emit("metaopt", "parallelism", obs.F{
				"units":          len(keys),
				"fanout":         fanout,
				"solver_workers": perSolve,
			})
		}

		// Snapshot of the pinned demands at wave start: every solve of the
		// wave reads it, none writes it, so the solves are independent.
		snapshot := append([]float64(nil), current...)
		results := make([]*Result, len(keys)) // indexed writes: one disjoint slot per solve
		err := conc.ForEach(ctx, len(keys), fanout, func(ctx context.Context, i int) error {
			key := keys[i]
			// Envelope: demands of this pair keep their original range; all
			// others are pinned to their wave-start values.
			env := demand.Envelope{
				Pairs: cfg.Envelope.Pairs,
				Lo:    append([]float64(nil), snapshot...),
				Hi:    append([]float64(nil), snapshot...),
			}
			for _, k := range group[key] {
				env.Lo[k] = cfg.Envelope.Lo[k]
				env.Hi[k] = cfg.Envelope.Hi[k]
			}
			sub := cfg.Config
			sub.Envelope = env
			sub.Solver = waveSolver
			res, err := AnalyzeContext(ctx, sub)
			if err != nil {
				return fmt.Errorf("metaopt: cluster pair %v: %w", key, err)
			}
			if tr := cfg.Solver.Tracer; tr != nil {
				tr.Emit("metaopt", "cluster_pair", obs.F{
					"src_cluster": key[0],
					"dst_cluster": key[1],
					"demands":     len(group[key]),
					"status":      res.Status.String(),
					"nodes":       res.Nodes,
					"runtime_s":   res.Runtime.Seconds(),
					"degradation": res.Degradation,
				})
			}
			results[i] = res
			return nil
		})
		if err != nil {
			return nil, err
		}

		// Merge the wave's demand updates in pair order (deterministic
		// regardless of completion order).
		for i, key := range keys {
			res := results[i]
			if res == nil || res.Demands == nil {
				continue
			}
			for _, k := range group[key] {
				current[k] = res.Demands[k]
			}
		}
	}

	// Final pass: fixed demands, search failures only (Algorithm 1's last
	// Solve).
	final := cfg.Config
	final.Envelope = demand.Envelope{
		Pairs: cfg.Envelope.Pairs,
		Lo:    append([]float64(nil), current...),
		Hi:    append([]float64(nil), current...),
	}
	final.Solver = per
	return AnalyzeContext(ctx, final)
}

// PartitionNodes splits the topology's nodes into n balanced, connected-ish
// clusters by multi-source BFS from spread-out seeds.
func PartitionNodes(t *topology.Topology, n int) [][]topology.Node {
	if n < 1 {
		n = 1
	}
	if n > t.NumNodes() {
		n = t.NumNodes()
	}
	// Seeds: greedy farthest-point placement by BFS hop distance.
	seeds := []topology.Node{0}
	for len(seeds) < n {
		dist := bfsDistances(t, seeds)
		far := topology.Node(0)
		fd := -1
		for v, d := range dist {
			if d > fd {
				fd = d
				far = topology.Node(v)
			}
		}
		seeds = append(seeds, far)
	}
	// Multi-source BFS: each node joins its nearest seed (ties to the
	// lower-index seed).
	owner := make([]int, t.NumNodes())
	dist := make([]int, t.NumNodes())
	for v := range owner {
		owner[v] = -1
	}
	var queue []topology.Node
	for i, s := range seeds {
		owner[s] = i
		dist[s] = 0
		queue = append(queue, s)
	}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, e := range t.Incident(u) {
			v := t.LAG(e).Other(u)
			if owner[v] < 0 {
				owner[v] = owner[u]
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	out := make([][]topology.Node, len(seeds))
	for v, o := range owner {
		if o < 0 {
			o = 0 // disconnected stragglers join cluster 0
		}
		out[o] = append(out[o], topology.Node(v))
	}
	return out
}

func bfsDistances(t *topology.Topology, from []topology.Node) []int {
	dist := make([]int, t.NumNodes())
	for i := range dist {
		dist[i] = 1 << 30
	}
	var queue []topology.Node
	for _, s := range from {
		dist[s] = 0
		queue = append(queue, s)
	}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, e := range t.Incident(u) {
			v := t.LAG(e).Other(u)
			if dist[v] > dist[u]+1 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}
