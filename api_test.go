package ranksql_test

import (
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
