package ranksql

import (
	"strings"
	"testing"
)

// TestExplainAnalyzeGolden: EXPLAIN ANALYZE executes the query and
// returns one "QUERY PLAN" column whose rows render the executed
// operator tree with per-operator rows, depth-k, wall time and call
// counts; the structured snapshot carries the same data.
func TestExplainAnalyzeGolden(t *testing.T) {
	db := tripDB(t)
	rows, err := db.Query("EXPLAIN ANALYZE " + tripQuery)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Columns) != 1 || rows.Columns[0] != "QUERY PLAN" {
		t.Fatalf("columns = %v, want [QUERY PLAN]", rows.Columns)
	}
	if !rows.Profiled {
		t.Fatal("EXPLAIN ANALYZE result not marked Profiled")
	}
	var text strings.Builder
	for _, r := range rows.data {
		text.WriteString(r[0].Str())
		text.WriteString("\n")
	}
	out := text.String()
	for _, want := range []string{"limit(3)", "out=", "depth_k=", "time=", "calls="} {
		if !strings.Contains(out, want) {
			t.Errorf("analyze output missing %q:\n%s", want, out)
		}
	}
	// Structured tree: root is the projection/limit chain; every node has
	// calls recorded and the root emitted at most 3 rows.
	if len(rows.tree) == 0 {
		t.Fatal("no structured tree on analyze result")
	}
	for _, n := range rows.tree {
		if n.Calls == 0 {
			t.Errorf("node %s has zero calls", n.Label)
		}
	}
	root := rows.tree[0]
	if root.Depth != 0 || root.Out > 3 {
		t.Errorf("root %s out=%d, want depth 0 and <=3 rows", root.Label, root.Out)
	}
	// Execution really happened: scan counters are non-zero.
	if rows.Stats.TuplesScanned == 0 {
		t.Error("analyze did not execute the query (no tuples scanned)")
	}
}

// TestExplainAnalyzeSharesPlanCache: the analyze run of a parameterized
// template hits the same cache entry as the plain SELECT (Normalize
// ignores the EXPLAIN flags).
func TestExplainAnalyzeSharesPlanCache(t *testing.T) {
	db := tripDB(t)
	plain, err := db.Prepare(`SELECT name FROM Hotel WHERE price < ? ORDER BY cheap(price) LIMIT 2`)
	if err != nil {
		t.Fatal(err)
	}
	analyze, err := db.Prepare(`EXPLAIN ANALYZE SELECT name FROM Hotel WHERE price < ? ORDER BY cheap(price) LIMIT 2`)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Normalized() != analyze.Normalized() {
		t.Fatalf("normalized templates differ:\n%s\n%s", plain.Normalized(), analyze.Normalized())
	}
	if _, err := plain.Query(150.0); err != nil {
		t.Fatal(err)
	}
	rows, err := analyze.Query(150.0)
	if err != nil {
		t.Fatal(err)
	}
	if !rows.CacheHit {
		t.Error("analyze run missed the plan cache warmed by the plain SELECT")
	}
	if !rows.Profiled {
		t.Error("analyze run not profiled")
	}
}

// TestExplainOnlyThroughQuery: EXPLAIN (no ANALYZE) through Query
// returns the optimizer plan without executing.
func TestExplainOnlyThroughQuery(t *testing.T) {
	db := tripDB(t)
	rows, err := db.Query(`EXPLAIN SELECT name FROM Hotel ORDER BY cheap(price) LIMIT 2`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Columns) != 1 || rows.Columns[0] != "QUERY PLAN" {
		t.Fatalf("columns = %v", rows.Columns)
	}
	if rows.Stats.TuplesScanned != 0 {
		t.Errorf("EXPLAIN executed the query (%d tuples scanned)", rows.Stats.TuplesScanned)
	}
	if len(rows.data) == 0 {
		t.Fatal("empty plan")
	}
}

// TestProfileSampling: with ProfileEvery = 4, executions 1 and 5 of a
// cached template are profiled, the rest are not.
func TestProfileSampling(t *testing.T) {
	db := tripDB(t)
	db.SetProfileSampling(4)
	st, err := db.Prepare(`SELECT name FROM Hotel WHERE price < ? ORDER BY cheap(price) LIMIT 2`)
	if err != nil {
		t.Fatal(err)
	}
	var profiled []bool
	for i := 0; i < 6; i++ {
		rows, err := st.Query(150.0)
		if err != nil {
			t.Fatal(err)
		}
		profiled = append(profiled, rows.Profiled)
	}
	want := []bool{true, false, false, false, true, false}
	for i := range want {
		if profiled[i] != want[i] {
			t.Fatalf("profiled = %v, want %v", profiled, want)
		}
	}

	// Sampling off: nothing profiles (beyond what already ran).
	db.SetProfileSampling(0)
	rows, err := st.Query(150.0)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Profiled {
		t.Error("profiling sampled with ProfileEvery=0")
	}
}
