package optimizer

import "ranksql/internal/expr"

// HasParams reports whether any condition in the plan tree contains a
// parameter placeholder.
func (p *PlanNode) HasParams() bool {
	if p.Cond != nil && expr.CountParams(p.Cond) > 0 {
		return true
	}
	for _, c := range p.Children {
		if c.HasParams() {
			return true
		}
	}
	return false
}
