package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"ranksql"
)

// The paper's §6 database at its smallest published scale: three tables
// of joinRows rows, join columns drawing from 1/j distinct values,
// Boolean attributes of selectivity 0.4 on A and B, unit-cost identity
// scorers f1…f5.
const (
	joinRows        = 10000
	joinSelectivity = 0.001
	boolSelectivity = 0.4
	// joinDataSeed fixes the database, as ranksqld's own generator fixes
	// the webshop table: the run's seed draws the ops and their bindings.
	// The size of the three-way join swings by a third between generated
	// databases, and with it every timing; a database per seed would bury
	// any change to the program under that.
	joinDataSeed = 20050614
)

// joinTuple is one generated row. C has no Boolean and one score column;
// its b and p2 stay zero.
type joinTuple struct {
	jc1, jc2 int
	b        bool
	p1, p2   float64
}

// joinData is the generated database: the rows the oracle joins and the
// CSV text the engine loads, rendered from the same values.
type joinData struct {
	a, b, c []joinTuple
	csv     map[string]string
}

// genJoinData generates A, B and C, n rows each, from the seed. Scores
// are rounded to six decimals through their CSV text, so the engine and
// the oracle hold bit-identical values.
func genJoinData(seed int64, n int, selectivity float64) *joinData {
	r := rand.New(rand.NewSource(seed*7919 + 17))
	distinct := int(math.Round(1 / selectivity))
	score := func(normal bool) (float64, string) {
		x := r.Float64()
		if normal {
			// Normal(0.5, 0.16) truncated to [0, 1], as the paper's A.p2 and C.p1.
			for {
				x = 0.5 + 0.4*r.NormFloat64()
				if x >= 0 && x <= 1 {
					break
				}
			}
		}
		text := strconv.FormatFloat(x, 'f', 6, 64)
		v, _ := strconv.ParseFloat(text, 64) // text was just formatted from a float
		return v, text
	}
	d := &joinData{csv: map[string]string{}}
	gen := func(name string, hasBool bool, normal []bool) []joinTuple {
		rows := make([]joinTuple, n)
		var sb strings.Builder
		for i := range rows {
			t := &rows[i]
			t.jc1, t.jc2 = r.Intn(distinct), r.Intn(distinct)
			fmt.Fprintf(&sb, "%d,%d", t.jc1, t.jc2)
			if hasBool {
				t.b = r.Float64() < boolSelectivity
				fmt.Fprintf(&sb, ",%v", t.b)
			}
			var text string
			t.p1, text = score(normal[0])
			sb.WriteString("," + text)
			if len(normal) > 1 {
				t.p2, text = score(normal[1])
				sb.WriteString("," + text)
			}
			sb.WriteByte('\n')
		}
		d.csv[name] = sb.String()
		return rows
	}
	d.a = gen("A", true, []bool{false, true})
	d.b = gen("B", true, []bool{false, false})
	d.c = gen("C", false, []bool{true})
	return d
}

// joinDDL creates the paper's schema; joinIndexDDL its access paths: a
// rank index per ranking predicate and attribute indexes on the join
// columns.
var (
	joinDDL = []string{
		`CREATE TABLE A (jc1 INT, jc2 INT, b BOOL, p1 FLOAT, p2 FLOAT)`,
		`CREATE TABLE B (jc1 INT, jc2 INT, b BOOL, p1 FLOAT, p2 FLOAT)`,
		`CREATE TABLE C (jc1 INT, jc2 INT, p1 FLOAT)`,
	}
	joinIndexDDL = []string{
		`CREATE RANK INDEX ON A (f1(p1))`,
		`CREATE RANK INDEX ON A (f2(p2))`,
		`CREATE RANK INDEX ON B (f3(p1))`,
		`CREATE RANK INDEX ON B (f4(p2))`,
		`CREATE RANK INDEX ON C (f5(p1))`,
		`CREATE INDEX ON A (jc1)`,
		`CREATE INDEX ON B (jc1)`,
		`CREATE INDEX ON B (jc2)`,
		`CREATE INDEX ON C (jc2)`,
	}
)

// joinSQL is the paper's query Q plus the parameterized `A.p2 < ?`;
// extra is empty or one more conjunct.
func joinSQL(extra string) string {
	return `SELECT A.jc1, B.jc2, A.p1, A.p2, B.p1, B.p2, C.p1 FROM A, B, C ` +
		`WHERE A.jc1 = B.jc1 AND B.jc2 = C.jc2 AND A.b AND B.b AND A.p2 < ?` + extra +
		` ORDER BY f1(A.p1) + f2(A.p2) + f3(B.p1) + f4(B.p2) + f5(C.p1) LIMIT ?`
}

// compileSQL is a compile op's statement: a literal conjunct on C.p1
// makes its normalized text one the plan cache has never seen.
func compileSQL(lit float64) string {
	return joinSQL(fmt.Sprintf(" AND C.p1 < %.10f", lit))
}

// openJoinDB loads the generated database through the public API.
func openJoinDB(d *joinData) (*ranksql.DB, error) {
	db := ranksql.Open()
	for i := 1; i <= 5; i++ {
		if err := db.RegisterScorer(fmt.Sprintf("f%d", i), func(a []ranksql.Value) float64 { return a[0].Float() }, ranksql.WithCost(1)); err != nil {
			return nil, err
		}
	}
	for _, ddl := range joinDDL {
		if _, err := db.Exec(ddl); err != nil {
			return nil, fmt.Errorf("%s: %w", ddl, err)
		}
	}
	for _, t := range []string{"A", "B", "C"} {
		if _, err := db.LoadCSV(t, strings.NewReader(d.csv[t]), false); err != nil {
			return nil, fmt.Errorf("loading %s: %w", t, err)
		}
	}
	for _, ddl := range joinIndexDDL {
		if _, err := db.Exec(ddl); err != nil {
			return nil, fmt.Errorf("%s: %w", ddl, err)
		}
	}
	return db, nil
}

// joinAnswer is one executed op with the scores it returned, kept for
// the oracle pass after the window.
type joinAnswer struct {
	op     op
	scores []float64
}

// joinRunner executes embed_join ops on one goroutine.
type joinRunner struct {
	db   *ranksql.DB
	stmt *ranksql.Stmt
	// Engine counters summed over executed ops.
	scanned, materialized, rowsReturned float64
}

// do executes one op and checks the ranked contract on its rows.
func (j *joinRunner) do(o op) ([]float64, error) {
	st := j.stmt
	if o.kind == opCompile {
		var err error
		if st, err = j.db.Prepare(compileSQL(o.p2)); err != nil {
			return nil, err
		}
	}
	rows, err := st.Query(o.p1, o.k)
	if err != nil {
		return nil, err
	}
	if o.kind == opCompile && rows.CacheHit {
		return nil, fmt.Errorf("compile op %d hit the plan cache: its template was not new", o.seq)
	}
	j.scanned += float64(rows.Stats.TuplesScanned)
	j.materialized += float64(rows.Stats.Materialized)
	j.rowsReturned += float64(rows.Len())
	if rows.Len() > o.k {
		return nil, fmt.Errorf("ranked contract: %d rows for limit %d", rows.Len(), o.k)
	}
	for i := 1; i < len(rows.Scores); i++ {
		if rows.Scores[i] > rows.Scores[i-1]+scoreEps {
			return nil, fmt.Errorf("ranked contract: score %g at rank %d after %g", rows.Scores[i], i+1, rows.Scores[i-1])
		}
	}
	return rows.Scores, nil
}

// verify compares an answer with the brute-force join.
func (a joinAnswer) verify(o *joinOracle) error {
	bound := 0.0
	if a.op.kind == opCompile {
		// The literal as the statement carried it, ten decimals.
		bound, _ = strconv.ParseFloat(fmt.Sprintf("%.10f", a.op.p2), 64)
	}
	return sameScores(a.scores, o.topScores(a.op.p1, bound, a.op.k))
}

// runJoinWindow is embed_join: in process, public API only, one
// goroutine. Every op of the window is checked against the oracle after
// the window closes; the phases before and after replay a few more.
func runJoinWindow(seed int64, plan windowPlan, reps int) (*windowRun, error) {
	data := genJoinData(joinDataSeed, joinRows, joinSelectivity)
	oracle := newJoinOracle(data)
	stream := joinStream(seed, 4096)
	run := &windowRun{}
	note := run.noteOp

	// Set-up: Open to first checked answer, load, index build and the
	// first compile included.
	var j *joinRunner
	probe := op{kind: opPrepared, k: 10, p1: 0.8}
	for i := 0; i < reps; i++ {
		j = nil
		runtime.GC()
		t0 := time.Now()
		db, err := openJoinDB(data)
		if err != nil {
			return nil, err
		}
		stmt, err := db.Prepare(joinSQL(""))
		if err != nil {
			return nil, err
		}
		j = &joinRunner{db: db, stmt: stmt}
		scores, err := j.do(probe)
		if err == nil {
			err = joinAnswer{probe, scores}.verify(oracle)
		}
		if err != nil {
			return nil, fmt.Errorf("first answer after set-up: %w", err)
		}
		run.setups = append(run.setups, time.Since(t0).Seconds())
	}

	// Check phase, which also compiles the read template at each k.
	check := func(ops []op) {
		for _, o := range ops {
			scores, err := j.do(o)
			if err == nil {
				err = joinAnswer{o, scores}.verify(oracle)
			}
			note(err)
		}
	}
	var phase []op
	for _, k := range joinKs {
		phase = append(phase, op{kind: opPrepared, k: k, p1: 0.7}, op{kind: opPrepared, k: k, p1: 0.95})
	}
	check(phase)

	pos := 0
	next := func() op { o := stream[pos%len(stream)]; pos++; return o }
	for end := time.Now().Add(plan.warmup); time.Now().Before(end); {
		if _, err := j.do(next()); err != nil {
			note(err)
		}
	}
	runtime.GC()

	before, cacheBefore := *j, j.db.PlanCacheStats()
	var answers []joinAnswer
	start := time.Now()
	cpu := sampleCPU(start, plan.rounds, plan.roundLen, []int{os.Getpid()})
	end := start.Add(time.Duration(plan.rounds) * plan.roundLen)
	for {
		o := next()
		t0 := time.Now()
		if !t0.Before(end) {
			break
		}
		scores, err := j.do(o)
		t1 := time.Now()
		if err != nil {
			run.win.failed++
			note(err)
			continue
		}
		run.win.samples = append(run.win.samples, newSample(o.kind, start, t0, t1, plan.roundLen))
		answers = append(answers, joinAnswer{o, scores})
	}
	var err error
	if run.win.cpuMS, err = cpu(); err != nil {
		return nil, err
	}
	cache := j.db.PlanCacheStats()
	// The per-layer counters, from the engine's own per-query stats and
	// its plan-cache counters over the window.
	ops := float64(len(run.win.samples))
	run.counters = map[string]float64{
		"exec.tuples_scanned_per_op":      (j.scanned - before.scanned) / ops,
		"exec.tuples_materialized_per_op": (j.materialized - before.materialized) / ops,
		"engine.plan_cache_hit_share":     share(float64(cache.Hits-cacheBefore.Hits), float64(cache.Misses-cacheBefore.Misses)),
		"engine.stale_recompiles":         float64(cache.StaleRecompiles - cacheBefore.StaleRecompiles),
	}
	if rows := j.rowsReturned - before.rowsReturned; rows > 0 {
		run.counters["exec.tuples_per_row_returned"] = (j.scanned - before.scanned) / rows
	}

	for _, a := range answers {
		note(a.verify(oracle))
	}
	check(phase[:2])
	if run.rssMB, err = peakRSSMB(os.Getpid()); err != nil {
		return nil, err
	}
	return run, nil
}
