package ranksql

// Figure 7 of the paper contrasts the traditional plan for Example 1 with
// a ranking plan in which the scoring function is split into µ operators
// that interleave with the joins. This test asserts the optimizer finds
// such an interleaved shape on the trip schema: at least one rank operator
// (µ or rank-scan) must sit strictly BELOW a join — evidence that the
// splitting and interleaving freedoms (Propositions 1, 4, 5) are
// exercised, not just the final-sort form.

import (
	"strings"
	"testing"

	"ranksql/internal/optimizer"
	"ranksql/internal/sql"
)

func TestFigure7Interleaving(t *testing.T) {
	db := tripDB(t)
	// Rank indexes make the interleaved shape clearly profitable.
	if _, err := db.Exec(`CREATE RANK INDEX ON Hotel (cheap(price))`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`CREATE RANK INDEX ON Museum (related(collection))`); err != nil {
		t.Fatal(err)
	}

	st, err := sql.Parse(tripQuery)
	if err != nil {
		t.Fatal(err)
	}
	q, _, err := db.bind(st.(*sql.SelectStmt))
	if err != nil {
		t.Fatal(err)
	}
	res, err := optimizer.Optimize(q, db.options)
	if err != nil {
		t.Fatal(err)
	}

	rankBelowJoin := false
	var walk func(p *optimizer.PlanNode, underJoin bool)
	walk = func(p *optimizer.PlanNode, underJoin bool) {
		switch p.Kind {
		case optimizer.KindRank, optimizer.KindRankScan:
			if underJoin {
				rankBelowJoin = true
			}
		case optimizer.KindHRJN, optimizer.KindNRJN, optimizer.KindHashJoin,
			optimizer.KindMergeJoin, optimizer.KindNestedLoop:
			underJoin = true
		}
		for _, c := range p.Children {
			walk(c, underJoin)
		}
	}
	walk(res.Plan, false)
	if !rankBelowJoin {
		t.Errorf("no rank operator interleaved below a join:\n%s", res.Plan)
	}

	// The ranking plan must beat the traditional alternative in estimated
	// cost (that is why the optimizer picked it); confirm the plan is not
	// simply the canonical materialize-then-sort.
	if strings.Contains(res.Plan.String(), "sort_F") &&
		!strings.Contains(res.Plan.String(), "rank_") {
		t.Errorf("optimizer fell back to materialize-then-sort:\n%s", res.Plan)
	}
}
