package paper

import (
	"ranksql/internal/exec"
	"ranksql/internal/optimizer"
)

// Measurement is the outcome of executing one plan once.
type Measurement struct {
	// Scores are the results' scores in emitted order; len(Scores) is the
	// result count.
	Scores []float64
	// Stats are the execution counters (tuples scanned, predicate
	// evaluations and cost, ...), the quantities Example 4 analyzes.
	Stats exec.Stats
	// Tree is the executed operator tree with per-operator output counts,
	// in pre-order with λ_k first.
	Tree exec.TreeSnapshot
}

// topK wraps plan in λ_k, the top operator every execution gets.
func topK(plan *optimizer.PlanNode, k int) *optimizer.PlanNode {
	return &optimizer.PlanNode{Kind: optimizer.KindLimit, K: k,
		Children: []*optimizer.PlanNode{plan}}
}

// Run builds plan under λ_k against db's tables, drains it and reports
// what that one execution did. Its tuples come from a borrowed arena, as
// a served one-shot query's do; only their scores leave Run.
func Run(db *DB, plan *optimizer.PlanNode, k int) (*Measurement, error) {
	op, err := topK(plan, k).Build(db.env)
	if err != nil {
		return nil, err
	}
	ctx := exec.NewContext(db.Spec)
	ctx.BorrowArena()
	defer ctx.ReturnArena()
	out, err := exec.Run(ctx, op)
	if err != nil {
		return nil, err
	}
	m := &Measurement{Scores: make([]float64, len(out)), Stats: ctx.Stats, Tree: exec.SnapshotTree(op)}
	for i, t := range out {
		m.Scores[i] = t.Score
	}
	return m, nil
}
