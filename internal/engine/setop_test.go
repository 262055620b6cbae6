package engine

import (
	"math"
	"strings"
	"testing"

	"ranksql/internal/types"
)

// setOpDB creates two union-compatible product tables with overlap.
func setOpDB(t *testing.T) *DB {
	t.Helper()
	db := New()
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
	if err := db.RegisterScorer("cheap", Scorer{
		Fn:   func(args []types.Value) float64 { f, _ := args[0].AsFloat(); return math.Max(0, 1-f/100) },
		Cost: 1,
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.RegisterScorer("rated", Scorer{
		Fn:   func(args []types.Value) float64 { f, _ := args[0].AsFloat(); return f / 5 },
		Cost: 1,
	}); err != nil {
		t.Fatal(err)
	}
	return db
}

const setOrder = ` ORDER BY cheap(price) + rated(stars) LIMIT 10`

func skus(rows *Rows) []string {
	var out []string
	for _, r := range rows.Data {
		out = append(out, r[0].Str())
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
	if len(rows.Data) != 2 {
		t.Fatalf("limit ignored: %d rows", len(rows.Data))
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
// λ_k and the set operator identically, for every kind — both read the
// labels off the one tree buildSetOp puts together.
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
		if len(analyzed.Tree) < 2 {
			t.Fatalf("%s: analyze tree has %d nodes", kind, len(analyzed.Tree))
		}
		header := strings.SplitN(plan, "\n", 3)
		for i, want := range []string{"limit(10)", label} {
			if header[i] != want {
				t.Errorf("%s: EXPLAIN line %d = %q, want %q", kind, i+1, header[i], want)
			}
			if got := analyzed.Tree[i].Label; got != want {
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
	if len(rows.Data) != 2 {
		t.Errorf("unranked intersect = %v", skus(rows))
	}
}
