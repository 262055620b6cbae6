package optimizer

import (
	"reflect"
	"testing"

	"ranksql/internal/exec"
)

// TestEstimates pins how a plan's estimates pair with the snapshot of a
// tree built from it: node for node, plus a projection root that inherits
// its input's estimate; anything else does not pair.
func TestEstimates(t *testing.T) {
	plan := &PlanNode{Kind: KindLimit, Card: 10, Children: []*PlanNode{
		{Kind: KindRank, Card: 30, Children: []*PlanNode{{Kind: KindSeqScan, Card: 100}}},
	}}
	tree := func(n int) exec.TreeSnapshot { return make(exec.TreeSnapshot, n) }
	cases := []struct {
		name string
		plan *PlanNode
		tree exec.TreeSnapshot
		want []float64
	}{
		{"node for node", plan, tree(3), []float64{10, 30, 100}},
		{"projection root", plan, tree(4), []float64{10, 10, 30, 100}},
		{"one node short", plan, tree(2), nil},
		{"two nodes long", plan, tree(5), nil},
		{"nil plan", nil, tree(3), nil},
	}
	for _, c := range cases {
		if got := Estimates(c.plan, c.tree); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: Estimates = %v, want %v", c.name, got, c.want)
		}
	}
}
