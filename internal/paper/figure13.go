package paper

import (
	"fmt"
	"strings"

	"ranksql/internal/engine"
	"ranksql/internal/optimizer"
)

// OpCard compares one operator's real output cardinality during a top-k
// execution against the sampling-based estimate (Figure 13).
type OpCard struct {
	Name      string
	Real      int64
	Estimated float64
}

// Figure13 reproduces the cardinality-estimation experiment for one plan
// (the paper reports plan3 and plan4; plan2 behaves like plan3): run the
// §5.2 estimator with the default sampling options over the plan, execute
// the plan for real under λ_k (k = db.Config.K), and pair per-operator
// estimated and actual output cardinalities with engine.PlanEstimates, the
// pairing EXPLAIN ANALYZE uses. λ_k, the plan's top operator and the
// selections are excluded, exactly as in §6.2.
func Figure13(db *DB, id PlanID) ([]OpCard, error) {
	plan, err := BuildPlan(db, id)
	if err != nil {
		return nil, err
	}
	est, err := optimizer.NewEstimatorForQuery(db.Query(), optimizer.DefaultOptions())
	if err != nil {
		return nil, err
	}
	if _, err := est.Estimate(plan); err != nil {
		return nil, err
	}
	m, err := Run(db, plan, db.Config.K)
	if err != nil {
		return nil, err
	}
	ests := engine.PlanEstimates(topK(plan, db.Config.K), m.Tree)
	if ests == nil {
		return nil, fmt.Errorf("paper: %s: plan and executed tree do not pair", id)
	}
	var ops []OpCard
	for i, n := range m.Tree {
		// Entry 0 is λ_k and entry 1 the plan's top operator; selections
		// carry exec.Filter's "filter(" label.
		if i < 2 || strings.HasPrefix(n.Label, "filter(") {
			continue
		}
		ops = append(ops, OpCard{Name: n.Label, Real: n.Out, Estimated: ests[i]})
	}
	return ops, nil
}

// sameMagnitude reports whether the estimate is within one order of
// magnitude of the real count (the paper's accuracy criterion).
func (o OpCard) sameMagnitude() bool {
	r := float64(o.Real)
	e := o.Estimated
	if r == 0 || e == 0 {
		return r == e || (r <= 10 && e <= 10)
	}
	ratio := e / r
	return ratio >= 0.1 && ratio <= 10
}

// AccurateFraction is the share of operators whose estimate lands in the
// same order of magnitude as the real cardinality.
func AccurateFraction(ops []OpCard) float64 {
	if len(ops) == 0 {
		return 1
	}
	n := 0
	for _, o := range ops {
		if o.sameMagnitude() {
			n++
		}
	}
	return float64(n) / float64(len(ops))
}
