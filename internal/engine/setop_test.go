// Package engine_test runs the SQL engine's set-operation tests — ranked
// UNION, INTERSECT and EXCEPT, one-shot and through a cursor — against the
// public ranksql API. The directory holds tests only: the engine itself is
// package ranksql.
package engine_test

import (
	"math"
	"strings"
	"testing"

	"ranksql"
)

// setOpDB creates two union-compatible product tables with overlap.
func setOpDB(t *testing.T) *ranksql.DB {
	t.Helper()
	db := ranksql.Open()
	mustExec := func(s string) {
		t.Helper()
		if _, err := db.Exec(s); err != nil {
			t.Fatalf("%s: %v", s, err)
		}
	}
	mustExec(`CREATE TABLE store_a (sku TEXT, price FLOAT, stars FLOAT)`)
	mustExec(`CREATE TABLE store_b (sku TEXT, price FLOAT, stars FLOAT)`)
	// Rows 'X' and 'Y' appear identically in both stores.
	mustExec(`INSERT INTO store_a VALUES
		('X', 10, 4.5), ('Y', 20, 3.0), ('A1', 15, 5.0), ('A2', 50, 2.0)`)
	mustExec(`INSERT INTO store_b VALUES
		('X', 10, 4.5), ('Y', 20, 3.0), ('B1', 12, 4.0), ('B2', 80, 1.0)`)
	if err := db.RegisterScorer("cheap", func(args []ranksql.Value) float64 {
		return math.Max(0, 1-args[0].Float()/100)
	}, ranksql.WithCost(1)); err != nil {
		t.Fatal(err)
	}
	if err := db.RegisterScorer("rated", func(args []ranksql.Value) float64 { return args[0].Float() / 5 }, ranksql.WithCost(1)); err != nil {
		t.Fatal(err)
	}
	return db
}

const setOrder = ` ORDER BY cheap(price) + rated(stars) LIMIT 10`

func skus(rows *ranksql.Rows) []string {
	var out []string
	for i := 0; i < rows.Len(); i++ {
		out = append(out, rows.ValueAt(i, 0).Text())
	}
	return out
}

func TestSQLUnion(t *testing.T) {
	db := setOpDB(t)
	rows, err := db.Query(`SELECT * FROM store_a UNION SELECT * FROM store_b` + setOrder)
	if err != nil {
		t.Fatal(err)
	}
	got := skus(rows)
	// 6 distinct products (X and Y deduplicated), ranked by score:
	// A1: .85+1=1.85, X: .9+.9=1.8, B1: .88+.8=1.68, Y: .8+.6=1.4,
	// A2: .5+.4=0.9, B2: .2+.2=0.4.
	want := []string{"A1", "X", "B1", "Y", "A2", "B2"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("union = %v, want %v", got, want)
	}
	for i := 1; i < len(rows.Scores); i++ {
		if rows.Scores[i] > rows.Scores[i-1]+1e-9 {
			t.Errorf("union not ranked: %v", rows.Scores)
		}
	}
}

func TestSQLIntersect(t *testing.T) {
	db := setOpDB(t)
	rows, err := db.Query(`SELECT * FROM store_a INTERSECT SELECT * FROM store_b` + setOrder)
	if err != nil {
		t.Fatal(err)
	}
	got := skus(rows)
	want := []string{"X", "Y"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("intersect = %v, want %v", got, want)
	}
}

func TestSQLExcept(t *testing.T) {
	db := setOpDB(t)
	rows, err := db.Query(`SELECT * FROM store_a EXCEPT SELECT * FROM store_b` + setOrder)
	if err != nil {
		t.Fatal(err)
	}
	got := skus(rows)
	want := []string{"A1", "A2"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("except = %v, want %v", got, want)
	}
}

func TestSQLSetOpWithWhereAndProjection(t *testing.T) {
	db := setOpDB(t)
	rows, err := db.Query(`SELECT sku, price, stars FROM store_a WHERE price < 40
		UNION SELECT sku, price, stars FROM store_b WHERE price < 40
		ORDER BY rated(stars) LIMIT 3`)
	if err != nil {
		t.Fatal(err)
	}
	got := skus(rows)
	want := []string{"A1", "X", "B1"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("filtered union = %v, want %v", got, want)
	}
}

func TestSQLSetOpLimitCut(t *testing.T) {
	db := setOpDB(t)
	rows, err := db.Query(`SELECT * FROM store_a UNION SELECT * FROM store_b
		ORDER BY cheap(price) + rated(stars) LIMIT 2`)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 2 {
		t.Fatalf("limit ignored: %d rows", rows.Len())
	}
}

func TestSQLSetOpExplain(t *testing.T) {
	db := setOpDB(t)
	plan, err := db.Explain(`SELECT * FROM store_a UNION SELECT * FROM store_b` + setOrder)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"rankUnion", "limit(10)", "store_a", "store_b"} {
		if !strings.Contains(plan, want) {
			t.Errorf("set-op plan missing %q:\n%s", want, plan)
		}
	}
}

// TestSQLSetOpExplainMatchesAnalyze: EXPLAIN and EXPLAIN ANALYZE name the
// λ_k and the set operator identically, for every kind — the analyzed
// tree is built node for node from the plan EXPLAIN renders. An EXPLAIN
// line is the label, two spaces and the node's [card=… cost=…].
func TestSQLSetOpExplainMatchesAnalyze(t *testing.T) {
	db := setOpDB(t)
	for kind, label := range map[string]string{
		"UNION": "rankUnion", "INTERSECT": "rankIntersect", "EXCEPT": "rankDiff",
	} {
		q := `SELECT * FROM store_a ` + kind + ` SELECT * FROM store_b` + setOrder
		plan, err := db.Explain(q)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		analyzed, err := db.Query(`EXPLAIN ANALYZE ` + q)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		ops := analyzed.Operators()
		if len(ops) < 2 {
			t.Fatalf("%s: analyze tree has %d nodes", kind, len(ops))
		}
		header := strings.SplitN(plan, "\n", 3)
		for i, want := range []string{"limit(10)", label} {
			if name, _, _ := strings.Cut(strings.TrimSpace(header[i]), "  "); name != want {
				t.Errorf("%s: EXPLAIN line %d = %q, want %q", kind, i+1, header[i], want)
			}
			if got := ops[i].Name; got != want {
				t.Errorf("%s: EXPLAIN ANALYZE node %d = %q, want %q", kind, i+1, got, want)
			}
		}
	}
}

func TestSQLSetOpErrors(t *testing.T) {
	db := setOpDB(t)
	if _, err := db.Exec(`CREATE TABLE narrow (sku TEXT)`); err != nil {
		t.Fatal(err)
	}
	cases := []string{
		// Incompatible widths.
		`SELECT * FROM store_a UNION SELECT * FROM narrow` + setOrder,
		// ORDER BY on the first operand.
		`SELECT * FROM store_a ORDER BY cheap(price) LIMIT 2 UNION SELECT * FROM store_b`,
	}
	for _, c := range cases {
		if _, err := db.Query(c); err == nil {
			t.Errorf("no error for %q", c)
		}
	}
}

// TestSQLSetOpUnranked checks plain Boolean set operations (no ORDER BY).
func TestSQLSetOpUnranked(t *testing.T) {
	db := setOpDB(t)
	rows, err := db.Query(`SELECT * FROM store_a INTERSECT SELECT * FROM store_b`)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 2 {
		t.Errorf("unranked intersect = %v", skus(rows))
	}
}

// TestCursorSetOp drains a UNION through a cursor in pages of 2 and checks
// it against the one-shot set-operation result: the same scores rank by
// rank, and the same rows within each run of equal scores.
func TestCursorSetOp(t *testing.T) {
	db := setOpDB(t)
	const q = `SELECT * FROM store_a UNION SELECT * FROM store_b ORDER BY cheap(price) + rated(stars) LIMIT 10`
	ref, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	c, err := db.Cursor(q)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const k = 2
	var rows []string
	var scores []float64
	for pages := 0; ; pages++ {
		if pages > 10000 {
			t.Fatal("cursor never exhausted")
		}
		page, err := c.Fetch(k)
		if err != nil {
			t.Fatalf("page %d: %v", pages, err)
		}
		if page.Len() > k {
			t.Fatalf("page %d has %d rows, want <= %d", pages, page.Len(), k)
		}
		for i := 0; i < page.Len(); i++ {
			rows = append(rows, render(page.At(i)))
		}
		scores = append(scores, page.Scores...)
		if c.Pulled() != len(rows) {
			t.Fatalf("Pulled() = %d after %d rows", c.Pulled(), len(rows))
		}
		if page.Exhausted {
			if !c.Exhausted() {
				t.Fatal("page says exhausted but cursor disagrees")
			}
			break
		}
		if page.Len() < k {
			t.Fatalf("short page %d (%d rows) not marked exhausted", pages, page.Len())
		}
	}
	for i := 1; i < len(scores); i++ {
		if scores[i] > scores[i-1]+1e-9 {
			t.Fatalf("scores increase across pages at %d: %g > %g", i, scores[i], scores[i-1])
		}
	}

	if len(rows) != ref.Len() {
		t.Fatalf("paged run yielded %d rows, one-shot %d", len(rows), ref.Len())
	}
	for i := range scores {
		if d := scores[i] - ref.Scores[i]; d > 1e-9 || d < -1e-9 {
			t.Fatalf("score[%d] = %g paged vs %g one-shot", i, scores[i], ref.Scores[i])
		}
	}
	for i := 0; i < ref.Len(); {
		j := i + 1
		for j < ref.Len() && ref.Scores[j] == ref.Scores[i] {
			j++
		}
		group := map[string]int{}
		for r := i; r < j; r++ {
			group[render(ref.At(r))]++
		}
		for r := i; r < j; r++ {
			if group[rows[r]] == 0 {
				t.Fatalf("rank %d row %q not in one-shot tie group [%d,%d)", r+1, rows[r], i, j)
			}
			group[rows[r]]--
		}
		i = j
	}
}

// render joins a row's values into one comparable string.
func render(row []ranksql.Value) string {
	parts := make([]string, len(row))
	for i, v := range row {
		parts[i] = v.String()
	}
	return strings.Join(parts, "|")
}
