package ranksql

import (
	"fmt"
	"strings"

	"ranksql/internal/exec"
	"ranksql/internal/optimizer"
	"ranksql/internal/rank"
	"ranksql/internal/sql"
)

// Set-operation queries (`SELECT ... UNION|INTERSECT|EXCEPT SELECT ...
// ORDER BY F LIMIT k`) execute with the rank-aware set operators of the
// algebra (Figure 3): each operand is optimized independently into a
// ranked plan for its own relations, and the set operator merges the two
// ranked streams incrementally.
//
// The scoring function's predicates are resolved per operand by column
// name (the operands are union-compatible), so each side can evaluate —
// and the optimizer can rank-scan or schedule — every predicate on its own
// columns.

// sideQuery binds one operand with predicates re-qualified to its tables.
func (db *DB) sideQuery(sel *sql.SelectStmt, terms []sql.OrderTerm) (*optimizer.Query, *rank.Spec, error) {
	side := &sql.SelectStmt{
		Projection: sel.Projection,
		Tables:     sel.Tables,
		Where:      sel.Where,
		Order:      terms,
		Limit:      0,
	}
	return db.bind(side)
}

// buildSetOp optimizes both operands, applies their projections, checks
// they are union-compatible and roots them in the statement's rank-aware
// set operator under its λ_k (if any) — the one place a set-operation tree
// is put together, for EXPLAIN, Query and cursors alike. The stream's plan
// text is the root's labels over the operands' optimizer plans.
func (db *DB) buildSetOp(st *sql.SetOpStmt) (*stream, error) {
	operand := func(sel *sql.SelectStmt) (exec.Operator, *optimizer.PlanNode, *rank.Spec, error) {
		q, spec, err := db.sideQuery(sel, st.Order)
		if err != nil {
			return nil, nil, nil, err
		}
		res, err := optimizer.Optimize(q, db.options)
		if err != nil {
			return nil, nil, nil, err
		}
		op, err := res.Plan.Build(res.Env)
		if err != nil {
			return nil, nil, nil, err
		}
		if len(sel.Projection) > 0 {
			idx := make([]int, len(sel.Projection))
			for i, c := range sel.Projection {
				if idx[i] = op.Schema().ColumnIndex(c.Table, c.Name); idx[i] < 0 {
					return nil, nil, nil, fmt.Errorf("engine: projected column %s unresolved", c)
				}
			}
			if op, err = exec.NewProject(op, idx); err != nil {
				return nil, nil, nil, err
			}
		}
		return op, res.Plan, spec, nil
	}
	lop, lplan, spec, err := operand(st.L)
	if err != nil {
		return nil, fmt.Errorf("engine: left operand: %w", err)
	}
	rop, rplan, _, err := operand(st.R)
	if err != nil {
		return nil, fmt.Errorf("engine: right operand: %w", err)
	}
	ls, rs := lop.Schema(), rop.Schema()
	if ls.Len() != rs.Len() {
		return nil, fmt.Errorf("engine: %s operands have %d vs %d columns",
			st.Kind, ls.Len(), rs.Len())
	}
	for i := range ls.Columns {
		if ls.Columns[i].Kind != rs.Columns[i].Kind {
			return nil, fmt.Errorf("engine: %s operands disagree on column %d type (%s vs %s)",
				st.Kind, i, ls.Columns[i].Kind, rs.Columns[i].Kind)
		}
	}

	var root exec.Operator
	switch st.Kind {
	case sql.SetUnion:
		root, err = exec.NewRankUnion(lop, rop)
	case sql.SetIntersect:
		root, err = exec.NewRankIntersect(lop, rop)
	default:
		root, err = exec.NewRankDiff(lop, rop)
	}
	if err != nil {
		return nil, err
	}
	header := root.Name() + "\n"
	var limit *exec.Limit
	if st.Limit > 0 {
		limit = exec.NewLimit(root, st.Limit)
		root = limit
		header = limit.Name() + "\n" + header
	}
	return newStream(root, limit, spec, func() string {
		return header + indent(lplan.String(), "  ") + indent(rplan.String(), "  ")
	}), nil
}

func indent(s, pad string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i, l := range lines {
		lines[i] = pad + l
	}
	return strings.Join(lines, "\n") + "\n"
}
