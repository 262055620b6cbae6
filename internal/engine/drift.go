package engine

import (
	"ranksql/internal/exec"
	"ranksql/internal/optimizer"
)

// PlanEstimates aligns a compiled plan's per-node cardinality estimates
// with an executed-tree snapshot, returning one estimate per snapshot
// node (pre-order, parallel to tree). Every tree is built from its plan
// node for node, so the two pair positionally; the one node the plan does
// not have is the exec Project the engine roots the tree in when the
// statement projects columns. A projection passes its input through
// row-for-row, so that root inherits its input's estimate. Any other size
// mismatch returns nil: estimate drift is a diagnostic, and a wrong
// positional pairing would be worse than no pairing.
func PlanEstimates(plan *optimizer.PlanNode, tree exec.TreeSnapshot) []float64 {
	if plan == nil || len(tree) == 0 {
		return nil
	}
	ests := make([]float64, 0, len(tree))
	var flatten func(n *optimizer.PlanNode)
	flatten = func(n *optimizer.PlanNode) {
		ests = append(ests, n.Card)
		for _, c := range n.Children {
			flatten(c)
		}
	}
	flatten(plan)
	if len(tree) == len(ests)+1 {
		ests = append([]float64{plan.Card}, ests...)
	}
	if len(tree) != len(ests) {
		return nil
	}
	return ests
}
