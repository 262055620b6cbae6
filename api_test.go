package ranksql_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"ranksql"
)

func demoAPI(t *testing.T) *ranksql.DB {
	t.Helper()
	db := ranksql.Open()
	steps := []string{
		`CREATE TABLE city (name TEXT, pop INT, rent FLOAT, sunny BOOL)`,
		`INSERT INTO city VALUES
			('Springfield', 160000, 900.5, false),
			('Shelbyville', 120000, 850.0, true),
			('Ogdenville',   80000, 700.0, true),
			('Capital',     900000, 1800.0, false)`,
	}
	for _, s := range steps {
		if _, err := db.Exec(s); err != nil {
			t.Fatalf("%s: %v", s, err)
		}
	}
	if err := db.RegisterScorer("affordable", func(args []ranksql.Value) float64 {
		return math.Max(0, 1-args[0].Float()/2000)
	}, ranksql.WithCost(2)); err != nil {
		t.Fatal(err)
	}
	if err := db.RegisterScorer("big", func(args []ranksql.Value) float64 {
		return math.Min(1, args[0].Float()/1e6)
	}); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestPublicAPIBasics(t *testing.T) {
	db := demoAPI(t)
	rows, err := db.Query(`SELECT name, rent FROM city WHERE sunny ORDER BY affordable(rent) LIMIT 2`)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 2 {
		t.Fatalf("rows = %d", rows.Len())
	}
	if got := rows.At(0)[0].Text(); got != "Ogdenville" {
		t.Errorf("top = %q, want Ogdenville", got)
	}
	// Cursor interface.
	n := 0
	var prev = math.Inf(1)
	for rows.Next() {
		n++
		if rows.Score() > prev {
			t.Error("scores not descending")
		}
		prev = rows.Score()
		if len(rows.Row()) != 2 {
			t.Error("row width")
		}
	}
	if n != 2 {
		t.Errorf("cursor visited %d", n)
	}
	if rows.Stats.PredEvals == 0 {
		t.Error("stats not populated")
	}
}

func TestPublicAPIValueConversions(t *testing.T) {
	db := demoAPI(t)
	rows, err := db.Query(`SELECT name, pop, rent, sunny FROM city WHERE name = 'Capital'`)
	if err != nil {
		t.Fatal(err)
	}
	r := rows.At(0)
	if r[0].Any().(string) != "Capital" {
		t.Error("string conv")
	}
	if r[1].Any().(int64) != 900000 || r[1].Int() != 900000 {
		t.Error("int conv")
	}
	if r[2].Any().(float64) != 1800.0 || r[2].Float() != 1800.0 {
		t.Error("float conv")
	}
	if r[3].Any().(bool) != false || r[3].Bool() {
		t.Error("bool conv")
	}
	if r[0].IsNull() {
		t.Error("null misdetect")
	}
}

func TestPublicAPIWeightedQuery(t *testing.T) {
	db := demoAPI(t)
	scores, err := db.QueryScores(`SELECT name FROM city
		ORDER BY 0.7 * affordable(rent) + 0.3 * big(pop) LIMIT 4`)
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != 4 {
		t.Fatalf("scores = %v", scores)
	}
	for i := 1; i < len(scores); i++ {
		if scores[i] > scores[i-1]+1e-9 {
			t.Errorf("not ranked: %v", scores)
		}
	}
}

func TestPublicAPIExplainAndTuning(t *testing.T) {
	db := demoAPI(t)
	if _, err := db.Exec(`CREATE RANK INDEX ON city (affordable(rent))`); err != nil {
		t.Fatal(err)
	}
	q := `SELECT name FROM city ORDER BY affordable(rent) LIMIT 1`
	plan, err := db.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "idxScan_affordable") {
		t.Errorf("rank index unused:\n%s", plan)
	}
	// Traditional tuning must avoid rank operators but agree on results.
	want, err := db.QueryScores(q)
	if err != nil {
		t.Fatal(err)
	}
	tr := ranksql.DefaultTuning()
	tr.NoRankOperators = true
	if err := db.SetTuning(tr); err != nil {
		t.Fatal(err)
	}
	plan, err = db.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plan, "idxScan_affordable") || !strings.Contains(plan, "sort_F") {
		t.Errorf("traditional tuning still uses rank operators:\n%s", plan)
	}
	got, err := db.QueryScores(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || math.Abs(got[0]-want[0]) > 1e-9 {
		t.Errorf("traditional answer %v != %v", got, want)
	}
	if err := db.SetTuning(ranksql.Tuning{SampleRatio: 2}); err == nil {
		t.Error("invalid sample ratio accepted")
	}
}

func TestPublicAPIErrors(t *testing.T) {
	db := demoAPI(t)
	if err := db.RegisterScorer("affordable", func([]ranksql.Value) float64 { return 0 }); err == nil {
		t.Error("duplicate scorer accepted")
	}
	if err := db.RegisterScorer("", func([]ranksql.Value) float64 { return 0 }); err == nil {
		t.Error("empty scorer name accepted")
	}
	if err := db.RegisterScorer("nilfn", nil); err == nil {
		t.Error("nil scorer fn accepted")
	}
	if _, err := db.Query(`INSERT INTO city VALUES (1,2,3,true)`); err == nil {
		t.Error("Query accepted non-SELECT")
	}
	if _, err := db.Exec(`SELECT * FROM city`); err == nil {
		t.Error("Exec accepted SELECT")
	}
}

func TestPublicAPITables(t *testing.T) {
	db := demoAPI(t)
	tabs := db.Tables()
	if len(tabs) != 1 || tabs[0] != "city" {
		t.Errorf("Tables = %v", tabs)
	}
}

func TestPublicAPIExecTree(t *testing.T) {
	db := demoAPI(t)
	rows, err := db.Query(`SELECT name FROM city ORDER BY affordable(rent) LIMIT 2`)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"limit(2)", "out="} {
		if !strings.Contains(rows.ExecTree(), want) {
			t.Errorf("ExecTree missing %q:\n%s", want, rows.ExecTree())
		}
	}
}

// TestPlanOnlyExplainHasNoExecTree: an EXPLAIN without ANALYZE runs
// nothing, so its result carries no executed tree to render or profile.
func TestPlanOnlyExplainHasNoExecTree(t *testing.T) {
	db := demoAPI(t)
	rows, err := db.Query(`EXPLAIN SELECT name FROM city ORDER BY affordable(rent) LIMIT 2`)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() == 0 {
		t.Fatal("EXPLAIN returned no plan lines")
	}
	if tree := rows.ExecTree(); tree != "" {
		t.Errorf("plan-only EXPLAIN has an exec tree:\n%s", tree)
	}
	if ops := rows.Operators(); len(ops) != 0 {
		t.Errorf("plan-only EXPLAIN has %d operators, want none", len(ops))
	}
}

// TestProfiledProjectionEstimates: a profiled run of a prepared query
// that projects columns pairs every executed node, the projection root
// included, with an optimizer estimate; so does a set operation's, its
// set operator and both operands' projections included.
func TestProfiledProjectionEstimates(t *testing.T) {
	db := demoAPI(t)
	db.SetProfileSampling(1)
	for _, q := range []string{
		`SELECT name FROM city WHERE rent < ? ORDER BY affordable(rent) LIMIT ?`,
		`SELECT name, rent FROM city WHERE rent < ? UNION SELECT name, rent FROM city WHERE sunny
			ORDER BY affordable(rent) LIMIT ?`,
	} {
		st, err := db.Prepare(q)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := st.Query(2000.0, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !rows.Profiled {
			t.Fatal("run not profiled with sampling every execution")
		}
		ops := rows.Operators()
		if len(ops) < 2 {
			t.Fatalf("%d operators, want a projection over the plan", len(ops))
		}
		for _, op := range ops {
			if op.EstRows < 0 {
				t.Errorf("%s: operator %s has no estimate (EstRows %g)", q, op.Name, op.EstRows)
			}
		}
	}
}

// TestSetOpOperandsShareAlias: each operand of a set operation resolves
// its aliases on its own, so one alias may name a different table on
// each side and the result holds rows of both.
func TestSetOpOperandsShareAlias(t *testing.T) {
	db := demoAPI(t)
	for _, s := range []string{
		`CREATE TABLE town (name TEXT, pop INT, rent FLOAT, sunny BOOL)`,
		`INSERT INTO town VALUES ('Brockway', 5000, 400.0, true)`,
	} {
		if _, err := db.Exec(s); err != nil {
			t.Fatal(err)
		}
	}
	rows, err := db.Query(`SELECT x.name, x.rent FROM city x UNION SELECT x.name, x.rent FROM town x
		ORDER BY affordable(x.rent) LIMIT 10`)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for i := 0; i < rows.Len(); i++ {
		got[rows.ValueAt(i, 0).Text()] = true
	}
	if rows.Len() != 5 || !got["Brockway"] || !got["Ogdenville"] {
		t.Errorf("union over two tables aliased x: %d rows %v, want the 4 cities and Brockway", rows.Len(), got)
	}
}

// TestScoreFuncMayOverwriteArgs: a ScoreFunc reads its arguments in place
// (no copy per evaluation), but in the evaluator's scratch space, not in
// the table: overwriting args[0] changes neither the stored rows nor any
// later answer, whether the scorer runs as µ or builds a rank index.
func TestScoreFuncMayOverwriteArgs(t *testing.T) {
	db := demoAPI(t)
	if err := db.RegisterScorer("scribble", func(args []ranksql.Value) float64 {
		s := math.Max(0, 1-args[0].Float()/2000) // affordable's score
		args[0] = ranksql.Value{}
		return s
	}); err != nil {
		t.Fatal(err)
	}
	dump := func(q string) string {
		t.Helper()
		rows, err := db.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for i := 0; i < rows.Len(); i++ {
			fmt.Fprintf(&b, "%v @ %g\n", rows.At(i), rows.Scores[i])
		}
		return b.String()
	}
	const all = `SELECT name, pop, rent, sunny FROM city`
	table := dump(all)
	want := dump(`SELECT name, rent FROM city ORDER BY affordable(rent) LIMIT 3`)
	for _, ddl := range []string{"", `CREATE RANK INDEX ON city (scribble(rent))`} {
		const q = `SELECT name, rent FROM city ORDER BY scribble(rent) LIMIT 3`
		if ddl != "" {
			if _, err := db.Exec(ddl); err != nil {
				t.Fatal(err)
			}
			if plan, err := db.Explain(q); err != nil || !strings.Contains(plan, "idxScan_scribble") {
				t.Fatalf("plan does not scan the rank index (%v):\n%s", err, plan)
			}
		}
		for run := 1; run <= 2; run++ {
			if got := dump(q); got != want {
				t.Errorf("%q, run %d: answer\n%s want\n%s", ddl, run, got, want)
			}
		}
		if got := dump(all); got != table {
			t.Errorf("%q: table rows changed to\n%s want\n%s", ddl, got, table)
		}
	}
}

// TestSampleFollowsTuning: a sampling change through SetTuning takes
// effect at the next compile, not at the next INSERT. The card of the
// ranked node under the limit is u / s, u being the sampled tuples at or
// above x': about 30 (k″ = 1 of a 100-row sample of 3 005 rows) on the
// default sample, about k = 10 on a half sample.
func TestSampleFollowsTuning(t *testing.T) {
	db := ranksql.Open()
	var b strings.Builder
	b.WriteString(`CREATE TABLE t (x FLOAT)`)
	if _, err := db.Exec(b.String()); err != nil {
		t.Fatal(err)
	}
	b.Reset()
	b.WriteString(`INSERT INTO t VALUES `)
	for i := 0; i < 3005; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(%d)", i)
	}
	if _, err := db.Exec(b.String()); err != nil {
		t.Fatal(err)
	}
	if err := db.RegisterScorer("high", func(args []ranksql.Value) float64 {
		return args[0].Float() / 3005
	}); err != nil {
		t.Fatal(err)
	}
	const q = `SELECT x FROM t ORDER BY high(x) LIMIT 10`
	// cutCard reads the card of the node under limit(10).
	cutCard := func() float64 {
		t.Helper()
		plan, err := db.Explain(q)
		if err != nil {
			t.Fatal(err)
		}
		line := strings.SplitN(plan[strings.Index(plan, "limit(10)"):], "\n", 3)[1]
		var card float64
		if _, err := fmt.Sscanf(line[strings.Index(line, "card="):], "card=%g", &card); err != nil {
			t.Fatalf("%q: %v", line, err)
		}
		return card
	}
	if c := cutCard(); c < 25 {
		t.Fatalf("default sample: card %g under the limit, want ≈ 30", c)
	}
	tune := ranksql.DefaultTuning()
	tune.SampleRatio = 0.5
	if err := db.SetTuning(tune); err != nil {
		t.Fatal(err)
	}
	if c := cutCard(); c > 15 {
		t.Errorf("half sample: card %g under the limit, want ≈ 10: the sample was not redrawn", c)
	}
}
