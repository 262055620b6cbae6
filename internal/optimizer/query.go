// Package optimizer implements RankSQL's rank-aware cost-based optimizer
// (§5): System-R style bottom-up dynamic programming extended with a second
// enumeration dimension — the set of evaluated ranking predicates — plus
// the left-deep and greedy rank-metric heuristics of Figure 10, and the
// sampling-based cardinality estimation of §5.2.
package optimizer

import (
	"fmt"
	"strings"

	"ranksql/internal/catalog"
	"ranksql/internal/expr"
	"ranksql/internal/rank"
	"ranksql/internal/schema"
)

// TableRef is one FROM-clause entry.
type TableRef struct {
	// Alias is the name the query uses ("h"); Name is the catalog table
	// ("Hotel"). Alias equals Name when no alias was given.
	Alias string
	Name  string
}

// Query is a rank-relational query in canonical form (Eq. 1):
// π λk τ_F σ_B (R1 × ... × Rh).
type Query struct {
	Catalog *catalog.Catalog
	Tables  []TableRef
	// Where is the Boolean function B (conjunctive); may be nil.
	Where expr.Expr
	// Spec is the ranking dimension: F and its predicates.
	Spec *rank.Spec
	// K is the requested result size (LIMIT k); 0 means all results.
	K int
}

// joinCond is one multi-table Boolean conjunct.
type joinCond struct {
	cond   expr.Expr
	tables map[string]bool
	// equi keys when the conjunct is t1.a = t2.b
	l, r *expr.Col
}

// decomposed is the query after conjunct classification.
type decomposed struct {
	q *Query
	// tableIdx maps alias → position in q.Tables.
	tableIdx map[string]int
	// selection conjuncts per table position.
	sel [][]expr.Expr
	// multi-table conjuncts.
	joins []*joinCond
	// metas caches catalog lookups per table position.
	metas []*catalog.TableMeta
	// snaps are the tables' optimizer snapshots, per table position, taken
	// by newEstimator; distinct counts and samples come from them.
	snaps []*catalog.Snapshot
}

// decompose splits the WHERE clause into single-table selections and join
// conditions and resolves catalog metadata.
func decompose(q *Query) (*decomposed, error) {
	if len(q.Tables) == 0 {
		return nil, fmt.Errorf("optimizer: query has no tables")
	}
	if len(q.Tables) > 32 {
		return nil, fmt.Errorf("optimizer: %d tables exceed the enumeration limit", len(q.Tables))
	}
	d := &decomposed{
		q:        q,
		tableIdx: map[string]int{},
		sel:      make([][]expr.Expr, len(q.Tables)),
		metas:    make([]*catalog.TableMeta, len(q.Tables)),
	}
	for i, tr := range q.Tables {
		key := strings.ToLower(tr.Alias)
		if _, dup := d.tableIdx[key]; dup {
			return nil, fmt.Errorf("optimizer: duplicate table alias %q", tr.Alias)
		}
		d.tableIdx[key] = i
		tm, err := q.Catalog.Table(tr.Name)
		if err != nil {
			return nil, err
		}
		d.metas[i] = tm
	}
	for _, c := range expr.SplitConjuncts(q.Where) {
		tabs := expr.Tables(c)
		switch len(tabs) {
		case 0:
			// Constant or unqualified condition: attach to the first
			// table (it will be checked once per tuple there).
			d.sel[0] = append(d.sel[0], c)
		case 1:
			var alias string
			for a := range tabs {
				alias = a
			}
			i, ok := d.tableIdx[strings.ToLower(alias)]
			if !ok {
				return nil, fmt.Errorf("optimizer: condition %s references unknown table %q", c, alias)
			}
			d.sel[i] = append(d.sel[i], c)
		default:
			jc := &joinCond{cond: c, tables: map[string]bool{}}
			for a := range tabs {
				i, ok := d.tableIdx[strings.ToLower(a)]
				if !ok {
					return nil, fmt.Errorf("optimizer: condition %s references unknown table %q", c, a)
				}
				jc.tables[strings.ToLower(a)] = true
				_ = i
			}
			if l, r, ok := expr.EquiJoin(c); ok {
				jc.l, jc.r = l, r
			}
			d.joins = append(d.joins, jc)
		}
	}
	// Validate ranking predicates reference known tables.
	for _, p := range q.Spec.Preds {
		for _, t := range p.Tables() {
			if _, ok := d.tableIdx[strings.ToLower(t)]; !ok {
				return nil, fmt.Errorf("optimizer: ranking predicate %s references unknown table %q", p, t)
			}
		}
	}
	return d, nil
}

// tableSet is a bitset over query table positions (the SR dimension).
type tableSet = schema.Bitset

// aliasesOf returns the lower-cased alias set for a tableSet.
func (d *decomposed) aliasesOf(sr tableSet) map[string]bool {
	out := map[string]bool{}
	sr.Each(func(i int) { out[strings.ToLower(d.q.Tables[i].Alias)] = true })
	return out
}

// evaluablePreds returns the SP universe for a relation set: predicates
// whose referenced tables are all inside SR (Figure 8 line 6).
func (d *decomposed) evaluablePreds(sr tableSet) schema.Bitset {
	aliases := d.aliasesOf(sr)
	var b schema.Bitset
	for i, p := range d.q.Spec.Preds {
		ok := true
		for _, t := range p.Tables() {
			if !aliases[strings.ToLower(t)] {
				ok = false
				break
			}
		}
		if ok {
			b = b.With(i)
		}
	}
	return b
}

// connectingJoins returns the join conditions whose table sets intersect
// both sides and are fully covered by their union.
func (d *decomposed) connectingJoins(sr1, sr2 tableSet) []*joinCond {
	a1 := d.aliasesOf(sr1)
	a2 := d.aliasesOf(sr2)
	var out []*joinCond
	for _, jc := range d.joins {
		touch1, touch2, covered := false, false, true
		for t := range jc.tables {
			in1, in2 := a1[t], a2[t]
			if in1 {
				touch1 = true
			}
			if in2 {
				touch2 = true
			}
			if !in1 && !in2 {
				covered = false
			}
		}
		if touch1 && touch2 && covered {
			out = append(out, jc)
		}
	}
	return out
}

// sideOf reports whether col's table is in the alias set.
func sideOf(col *expr.Col, aliases map[string]bool) bool {
	return aliases[strings.ToLower(col.Table)]
}
