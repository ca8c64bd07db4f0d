package paths

import "raha/internal/topology"

// The referees, for the equivalence tests of package paths_test (which
// imports internal/batch for its topology corpus, and batch imports paths).
var (
	RefCompute   = refCompute
	RefKShortest = refKShortest
	NewWorkspace = newWorkspace
)

// KShortestOn runs Yen's algorithm on an existing workspace.
func KShortestOn(ws *workspace, src, dst int, k int) []Path {
	return ws.kShortest(topology.Node(src), topology.Node(dst), k)
}
