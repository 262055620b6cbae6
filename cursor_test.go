package ranksql

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"ranksql/internal/types"
)

// cursorDB builds a ranked table large enough to paginate over, with
// grid-valued score inputs so ties are common. The deterministic LCG
// keeps the dataset stable across runs.
func cursorDB(t *testing.T, nRows int) *DB {
	t.Helper()
	return gridDB(t, nRows, 21)
}

// gridDB is cursorDB with the grid cut to its lowest `levels` values
// (0, 0.05, ...): below 21 no row reaches a score input of 1.0, so a test
// can insert rows that strictly outrank every existing one.
func gridDB(t testing.TB, nRows, levels int) *DB {
	t.Helper()
	db := Open()
	if _, err := db.Exec(`CREATE TABLE item (id INT, a FLOAT, b FLOAT)`); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"sa", "sb"} {
		if err := db.RegisterScorer(name, func(args []Value) float64 { return args[0].Float() }, WithCost(1)); err != nil {
			t.Fatal(err)
		}
	}
	seed := uint64(0x9E3779B97F4A7C15)
	next := func(n int) int {
		seed = seed*6364136223846793005 + 1442695040888963407
		return int((seed >> 33) % uint64(n))
	}
	var vals []string
	for i := 0; i < nRows; i++ {
		vals = append(vals, fmt.Sprintf("(%d, %.2f, %.2f)",
			i, float64(next(levels))/20, float64(next(levels))/20))
	}
	if _, err := db.Exec(`INSERT INTO item VALUES ` + strings.Join(vals, ", ")); err != nil {
		t.Fatal(err)
	}
	return db
}

const cursorQuery = `SELECT id, a, b FROM item WHERE a >= 0.2 ORDER BY 0.6*sa(a) + 0.4*sb(b) LIMIT 10`

// collectPages drains a cursor in pages of k, checking the per-page
// ranked-stream contract along the way, and returns the concatenation.
func collectPages(t *testing.T, c *Cursor, k int) ([][]types.Value, []float64) {
	t.Helper()
	var data [][]types.Value
	var scores []float64
	for pages := 0; ; pages++ {
		if pages > 10000 {
			t.Fatal("cursor never exhausted")
		}
		page, err := c.Fetch(k)
		if err != nil {
			t.Fatalf("page %d: %v", pages, err)
		}
		if len(page.data) > k {
			t.Fatalf("page %d has %d rows, want <= %d", pages, len(page.data), k)
		}
		data = append(data, page.data...)
		scores = append(scores, page.Scores...)
		if c.Pulled() != len(data) {
			t.Fatalf("Pulled() = %d after %d rows", c.Pulled(), len(data))
		}
		if page.Exhausted {
			if !c.Exhausted() {
				t.Fatal("page says exhausted but cursor disagrees")
			}
			break
		}
		if len(page.data) < k {
			t.Fatalf("short page %d (%d rows) not marked exhausted", pages, len(page.data))
		}
	}
	for i := 1; i < len(scores); i++ {
		if scores[i] > scores[i-1]+1e-9 {
			t.Fatalf("scores increase across pages at %d: %g > %g", i, scores[i], scores[i-1])
		}
	}
	return data, scores
}

// assertSameRanking checks two rankings agree: identical score
// sequences, and within each tie group (run of equal scores) the same
// multiset of rows. Tie-break order inside a group may legally differ
// between a paged and a one-shot execution.
func assertSameRanking(t *testing.T, gotData [][]types.Value, gotScores []float64, ref *Rows) {
	t.Helper()
	if len(gotData) != len(ref.data) {
		t.Fatalf("paged run yielded %d rows, one-shot %d", len(gotData), len(ref.data))
	}
	for i := range gotScores {
		if d := gotScores[i] - ref.Scores[i]; d > 1e-9 || d < -1e-9 {
			t.Fatalf("score[%d] = %g paged vs %g one-shot", i, gotScores[i], ref.Scores[i])
		}
	}
	render := func(row []types.Value) string {
		parts := make([]string, len(row))
		for i, v := range row {
			parts[i] = v.String()
		}
		return strings.Join(parts, "|")
	}
	for i := 0; i < len(ref.data); {
		j := i + 1
		for j < len(ref.data) && ref.Scores[j] == ref.Scores[i] {
			j++
		}
		group := map[string]int{}
		for r := i; r < j; r++ {
			group[render(ref.data[r])]++
		}
		for r := i; r < j; r++ {
			key := render(gotData[r])
			if group[key] == 0 {
				t.Fatalf("rank %d row %q not in one-shot tie group [%d,%d)", r+1, key, i, j)
			}
			group[key]--
		}
		i = j
	}
}

// TestCursorPagesMatchOneShot is the core pagination property: pulling
// pages of k until exhaustion yields exactly the ranking a single deep
// run produces — same scores rank by rank, same rows modulo tie groups.
func TestCursorPagesMatchOneShot(t *testing.T) {
	const nRows = 240
	db := cursorDB(t, nRows)
	ref, err := db.Query(fmt.Sprintf(
		`SELECT id, a, b FROM item WHERE a >= 0.2 ORDER BY 0.6*sa(a) + 0.4*sb(b) LIMIT %d`, nRows))
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.data) == 0 || len(ref.data) == nRows {
		t.Fatalf("reference has %d rows; the predicate should filter some but not all", len(ref.data))
	}

	for _, k := range []int{1, 7, 10, 64} {
		c, err := db.Cursor(cursorQuery)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		data, scores := collectPages(t, c, k)
		assertSameRanking(t, data, scores, ref)
		// A drained cursor keeps answering with empty exhausted pages.
		extra, err := c.Fetch(k)
		if err != nil || len(extra.data) != 0 || !extra.Exhausted {
			t.Fatalf("k=%d: fetch past exhaustion = (%d rows, exhausted=%v, err=%v)",
				k, len(extra.data), extra.Exhausted, err)
		}
		if err := c.Close(); err != nil {
			t.Fatalf("k=%d: close: %v", k, err)
		}
	}
}

// TestCursorSurvivesPlanEviction pins that a suspended cursor owns its
// operator tree: with room for one plan in the shared cache, other
// templates run between pages evict the cursor's plan mid-stream, and the
// remaining pages must still be the one-shot ranking.
func TestCursorSurvivesPlanEviction(t *testing.T) {
	const nRows, k = 240, 7
	db := cursorDB(t, nRows)
	ref, err := db.Query(fmt.Sprintf(
		`SELECT id, a, b FROM item WHERE a >= 0.2 ORDER BY 0.6*sa(a) + 0.4*sb(b) LIMIT %d`, nRows))
	if err != nil {
		t.Fatal(err)
	}
	db.plans.Resize(1)
	// Only parameterized templates share the plan cache.
	prepare := func(src string) *Stmt {
		t.Helper()
		p, err := db.Prepare(src)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	paged := prepare(`SELECT id, a, b FROM item WHERE a >= ? ORDER BY 0.6*sa(a) + 0.4*sb(b) LIMIT 10`)
	others := []*Stmt{
		prepare(`SELECT id FROM item WHERE b >= ? ORDER BY sa(a) LIMIT 5`),
		prepare(`SELECT id, b FROM item WHERE a < ? ORDER BY sb(b) LIMIT 3`),
	}
	bound := 0.2

	c, err := paged.Cursor(bound)
	if err != nil {
		t.Fatal(err)
	}
	var data [][]types.Value
	var scores []float64
	for page := 0; !c.Exhausted(); page++ {
		if page > nRows {
			t.Fatal("cursor never exhausted")
		}
		rows, err := c.Fetch(k)
		if err != nil {
			t.Fatalf("page %d: %v", page, err)
		}
		data = append(data, rows.data...)
		scores = append(scores, rows.Scores...)
		if _, err := others[page%2].Query(bound); err != nil {
			t.Fatal(err)
		}
	}
	assertSameRanking(t, data, scores, ref)
	if err := c.Close(); err != nil {
		t.Fatalf("close after eviction: %v", err)
	}
	if ev := db.plans.Stats().Evictions; ev < 2 {
		t.Fatalf("plan cache recorded %d evictions; the cursor's plan was never evicted", ev)
	}

	// The plan is gone from the cache, so the template compiles again and
	// gives the same first page.
	again, err := paged.Cursor(bound)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if again.CacheHit() {
		t.Error("reopened cursor hit the plan cache; its plan should have been evicted")
	}
	first, err := again.Fetch(k)
	if err != nil {
		t.Fatal(err)
	}
	sameRanking(t, "first page after recompile", ranking(first.data, first.Scores), ranking(data[:k], scores[:k]))
}

// TestCursorStreamsPastLimit pins that the statement's LIMIT tunes the
// plan but does not cap the stream: the cursor pages straight past it.
func TestCursorStreamsPastLimit(t *testing.T) {
	db := cursorDB(t, 120)
	c, err := db.Cursor(cursorQuery) // LIMIT 10 in the statement
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.K() != 10 {
		t.Fatalf("K() = %d, want the statement's LIMIT 10", c.K())
	}
	page, err := c.Fetch(30)
	if err != nil {
		t.Fatal(err)
	}
	if len(page.data) <= 10 {
		t.Fatalf("fetch(30) returned %d rows; the cursor must stream past LIMIT 10", len(page.data))
	}
}

// TestCursorFetchWholeStream pins that a page size past any stream, up
// to math.MaxInt, returns the whole stream: a page reserves room as rows
// arrive, not n slots up front.
func TestCursorFetchWholeStream(t *testing.T) {
	db := cursorDB(t, 120)
	ref, err := db.Query(strings.Replace(cursorQuery, "LIMIT 10", "LIMIT 1000", 1))
	if err != nil {
		t.Fatal(err)
	}
	c, err := db.Cursor(cursorQuery)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	page, err := c.Fetch(math.MaxInt)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Exhausted() {
		t.Error("a page past the stream's end must exhaust the cursor")
	}
	assertSameRanking(t, page.data, page.Scores, ref)
}

// drainUnderInserts drains c in pages of 5 while insert lands rows in
// its tables: 300 before the first pull, 300 after the first page and 100
// after every tenth page — enough to split the B+tree leaves a suspended
// index scan is positioned in.
func drainUnderInserts(t *testing.T, c *Cursor, insert func(n int)) ([][]types.Value, []float64) {
	t.Helper()
	insert(300)
	var data [][]types.Value
	var scores []float64
	for page := 0; !c.Exhausted(); page++ {
		if page > 1000 {
			t.Fatal("cursor never exhausted")
		}
		rows, err := c.Fetch(5)
		if err != nil {
			t.Fatal(err)
		}
		data = append(data, rows.data...)
		scores = append(scores, rows.Scores...)
		switch {
		case page == 0:
			insert(300)
		case page%10 == 0:
			insert(100)
		}
	}
	return data, scores
}

// TestCursorSnapshotUnderInserts pins the snapshot contract: rows
// inserted after Open — even ones that would outrank everything — must
// not appear in the stream, and the stream still drains completely. The
// indexed case suspends rank-index scans across hundreds of inserts that
// split the B+tree leaves they are positioned in; the other runs on the
// materialize-and-sort fallback.
func TestCursorSnapshotUnderInserts(t *testing.T) {
	for _, indexed := range []bool{false, true} {
		name := "fallback"
		if indexed {
			name = "indexed"
		}
		t.Run(name, func(t *testing.T) {
			const nRows = 400
			db := gridDB(t, nRows, 20) // below the inserted 1.0 scores
			if indexed {
				for _, ddl := range []string{
					`CREATE RANK INDEX ON item (sa(a))`,
					`CREATE RANK INDEX ON item (sb(b))`,
				} {
					if _, err := db.Exec(ddl); err != nil {
						t.Fatal(err)
					}
				}
				plan, err := db.Explain(cursorQuery)
				if err != nil {
					t.Fatal(err)
				}
				if !strings.Contains(plan, "idxScan_") {
					t.Fatalf("plan does not scan a rank index:\n%s", plan)
				}
			}
			ref, err := db.Query(fmt.Sprintf(
				`SELECT id, a, b FROM item WHERE a >= 0.2 ORDER BY 0.6*sa(a) + 0.4*sb(b) LIMIT %d`, nRows))
			if err != nil {
				t.Fatal(err)
			}

			// Inserted ids start at 100000; every batch leads with rows
			// that outrank everything, the rest land all over the index.
			nextID := 100000
			r := rand.New(rand.NewSource(3))
			insert := func(n int) {
				t.Helper()
				vals := make([]string, n)
				for i := range vals {
					a, b := 1.0, 1.0
					if i >= 2 {
						a, b = float64(r.Intn(21))/20, float64(r.Intn(21))/20
					}
					vals[i] = fmt.Sprintf("(%d, %.2f, %.2f)", nextID, a, b)
					nextID++
				}
				if _, err := db.Exec(`INSERT INTO item VALUES ` + strings.Join(vals, ", ")); err != nil {
					t.Fatal(err)
				}
			}

			c, err := db.Cursor(cursorQuery)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			data, scores := drainUnderInserts(t, c, insert)
			for i, row := range data {
				if id, _ := row[0].AsFloat(); id >= 100000 {
					t.Fatalf("rank %d leaked row %s inserted after the cursor opened", i+1, row[0].String())
				}
			}
			assertSameRanking(t, data, scores, ref)

			// A cursor opened after the inserts sees the new top rows.
			c2, err := db.Cursor(cursorQuery)
			if err != nil {
				t.Fatal(err)
			}
			defer c2.Close()
			page, err := c2.Fetch(2)
			if err != nil {
				t.Fatal(err)
			}
			for i, row := range page.data {
				if id, _ := row[0].AsFloat(); id < 100000 {
					t.Fatalf("fresh cursor rank %d = %v; the inserted rows should outrank everything", i+1, row[0].String())
				}
			}
		})
	}
}

// TestCursorDDLInvalidation pins the invalidation contract: DDL bumps
// the schema version, the suspended tree is unusable, and the client
// gets ErrCursorInvalidated once, then ErrCursorClosed.
func TestCursorDDLInvalidation(t *testing.T) {
	db := cursorDB(t, 60)
	c, err := db.Cursor(cursorQuery)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Fetch(5); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`CREATE TABLE unrelated (x INT)`); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Fetch(5); !errors.Is(err, ErrCursorInvalidated) {
		t.Fatalf("fetch after DDL: %v, want ErrCursorInvalidated", err)
	}
	if _, err := c.Fetch(5); !errors.Is(err, ErrCursorClosed) {
		t.Fatalf("fetch after invalidation: %v, want ErrCursorClosed", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("close after invalidation: %v", err)
	}
}

// TestCursorPrepared pins cursors over prepared templates: parameters
// bind per open, and the template's plan cache is shared, so the second
// open is a cache hit.
func TestCursorPrepared(t *testing.T) {
	db := cursorDB(t, 120)
	p, err := db.Prepare(`SELECT id, a, b FROM item WHERE a >= ? ORDER BY 0.6*sa(a) + 0.4*sb(b) LIMIT ?`)
	if err != nil {
		t.Fatal(err)
	}
	open := func() *Cursor {
		t.Helper()
		c, err := p.Cursor(0.2, 10)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	c1 := open()
	d1, s1 := collectPages(t, c1, 10)
	c1.Close()

	c2 := open()
	if !c2.CacheHit() {
		t.Error("second cursor over the same template should hit the plan cache")
	}
	d2, s2 := collectPages(t, c2, 7)
	c2.Close()
	if len(d1) != len(d2) {
		t.Fatalf("page-of-10 run yielded %d rows, page-of-7 run %d", len(d1), len(d2))
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("score[%d] differs across page sizes: %g vs %g", i, s1[i], s2[i])
		}
	}
}

// routeDB extends the cursor dataset for the every-route property: rank
// indexes (so plans rank-scan and rank-join), a second joinable table, and
// a union-compatible copy of half of item. Score inputs stay below 1.0.
func routeDB(t testing.TB) *DB {
	t.Helper()
	db := gridDB(t, 300, 20)
	if err := db.RegisterScorer("sw", func(args []Value) float64 { return args[0].Float() }, WithCost(1)); err != nil {
		t.Fatal(err)
	}
	if err := db.RegisterScorer("near", func(args []Value) float64 {
		return 1 - math.Abs(args[0].Float()-args[1].Float())
	}, WithCost(1)); err != nil {
		t.Fatal(err)
	}
	mustExec := func(s string) {
		t.Helper()
		if _, err := db.Exec(s); err != nil {
			t.Fatalf("%s: %v", s, err)
		}
	}
	mustExec(`CREATE TABLE tag (id INT, w FLOAT)`)
	mustExec(`CREATE TABLE item2 (id INT, a FLOAT, b FLOAT)`)
	all, err := db.Query(`SELECT id, a, b FROM item`)
	if err != nil {
		t.Fatal(err)
	}
	var tags, copies []string
	for i, row := range all.data {
		tags = append(tags, fmt.Sprintf("(%s, %.2f)", row[0], float64((i*37)%20)/20))
		if i%2 == 0 {
			copies = append(copies, fmt.Sprintf("(%s, %s, %s)", row[0], row[1], row[2]))
		}
	}
	mustExec(`INSERT INTO tag VALUES ` + strings.Join(tags, ", "))
	mustExec(`INSERT INTO item2 VALUES ` + strings.Join(copies, ", ") + `, (5001, 0.9, 0.85), (5002, 0.4, 0.75)`)
	mustExec(`CREATE RANK INDEX ON item (sa(a))`)
	mustExec(`CREATE RANK INDEX ON item2 (sa(a))`)
	mustExec(`CREATE RANK INDEX ON tag (sw(w))`)
	return db
}

// routeCase is one statement of the every-route property. sql is a
// template; lits are the literal spellings of params, for the ad-hoc
// route. plan names an operator the optimizer must have picked, so the
// case keeps testing what its name says.
type routeCase struct {
	name   string
	sql    string
	params []interface{}
	lits   []string
	plan   string
}

var routeCases = []routeCase{
	{name: "rank-scan with Boolean filter", plan: "idxScan_sa",
		sql: `SELECT * FROM item WHERE a >= 0.2 AND b >= 0.1 ORDER BY sa(a) LIMIT 10`},
	{name: "mu-chain", plan: "rank_",
		sql: `SELECT * FROM item WHERE a >= 0.2 ORDER BY sa(a) + sb(b) + near(a, b) LIMIT 10`},
	{name: "2-way rank-join", plan: "RJN",
		sql: `SELECT * FROM item i, tag g WHERE i.id = g.id AND i.a >= 0.2 ORDER BY sa(i.a) + sw(g.w) LIMIT 10`},
	{name: "projection", plan: "idxScan_sa",
		sql: `SELECT b, id FROM item WHERE a >= 0.2 ORDER BY sa(a) + sb(b) LIMIT 10`},
	{name: "no LIMIT", plan: "filter",
		sql: `SELECT id, a FROM item WHERE a >= 0.9 ORDER BY sa(a) + sb(b)`},
	{name: "LIMIT ?", plan: "idxScan_sa",
		sql:    `SELECT id, a, b FROM item WHERE a >= ? ORDER BY sa(a) + sb(b) LIMIT ?`,
		params: []interface{}{0.2, 10}, lits: []string{"0.2", "10"}},
	{name: "UNION", plan: "rankUnion",
		sql: `SELECT id, a, b FROM item WHERE a >= 0.2 UNION SELECT id, a, b FROM item2 ORDER BY sa(a) + sb(b) LIMIT 10`},
	{name: "INTERSECT", plan: "rankIntersect",
		sql: `SELECT id, a, b FROM item INTERSECT SELECT id, a, b FROM item2 ORDER BY sa(a) + sb(b) LIMIT 10`},
	{name: "EXCEPT", plan: "rankDiff",
		sql: `SELECT id, a, b FROM item EXCEPT SELECT id, a, b FROM item2 ORDER BY sa(a) + sb(b) LIMIT 10`},
	{name: "UNION with ?", plan: "rankUnion",
		sql: setOpTemplate, params: setOpArgs, lits: []string{"0.2", "10"}},
}

// adhoc spells the template with its literals: the route that compiles
// from scratch and shares no plan, pool or stream with the prepared ones.
func (c routeCase) adhoc() string {
	q := c.sql
	for _, l := range c.lits {
		q = strings.Replace(q, "?", l, 1)
	}
	return q
}

// ranking renders a result's rows and scores for exact comparison: the
// routes below run one plan on one tree shape, so even the order inside
// tie groups must agree.
func ranking(data [][]types.Value, scores []float64) []string {
	out := make([]string, len(data))
	for i, row := range data {
		out[i] = fmt.Sprintf("%v @ %.9f", row, scores[i])
	}
	return out
}

func sameRanking(t *testing.T, what string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: rank %d = %s, want %s", what, i+1, got[i], want[i])
		}
	}
}

// checkRoutes asserts, for one statement, that every way of running it
// yields the one-shot answer: cursor pages of several sizes concatenated
// and cut at k, and a one-shot re-run on the instance a half-read cursor
// handed back. A cursor that stops where the one-shot run stopped (depth
// k, or the end of the stream) must also have scanned exactly as much.
func checkRoutes(t *testing.T, c routeCase, st *Stmt, wantHit bool) []string {
	t.Helper()
	ref, err := st.Query(c.params...)
	if err != nil {
		t.Fatal(err)
	}
	if ref.CacheHit != wantHit {
		t.Fatalf("one-shot cache hit = %v, want %v", ref.CacheHit, wantHit)
	}
	want := ranking(ref.data, ref.Scores)
	if len(want) == 0 {
		t.Fatal("empty reference result")
	}
	depth := ref.K
	if ref.Exhausted {
		depth = len(want) + 1 // the one-shot run drained the stream
	}
	for _, page := range []int{1, 3, len(want), len(want) + 7} {
		cur, err := st.Cursor(c.params...)
		if err != nil {
			t.Fatal(err)
		}
		var data [][]types.Value
		var scores []float64
		for len(data) < depth && !cur.Exhausted() {
			rows, err := cur.Fetch(page)
			if err != nil {
				t.Fatal(err)
			}
			data = append(data, rows.data...)
			scores = append(scores, rows.Scores...)
			stopped := (len(data) == depth && !ref.Exhausted) || (cur.Exhausted() && ref.Exhausted)
			if stopped && rows.Stats.TuplesScanned != ref.Stats.TuplesScanned {
				t.Errorf("pages of %d: cursor scanned %d tuples to the depth the one-shot run reached with %d",
					page, rows.Stats.TuplesScanned, ref.Stats.TuplesScanned)
			}
		}
		if err := cur.Close(); err != nil {
			t.Fatal(err)
		}
		if len(data) > len(want) {
			data, scores = data[:len(want)], scores[:len(want)]
		}
		sameRanking(t, fmt.Sprintf("pages of %d", page), ranking(data, scores), want)
	}

	half, err := st.Cursor(c.params...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := half.Fetch(2); err != nil {
		t.Fatal(err)
	}
	if err := half.Close(); err != nil {
		t.Fatal(err)
	}
	again, err := st.Query(c.params...)
	if err != nil {
		t.Fatal(err)
	}
	sameRanking(t, "one-shot after a half-read cursor", ranking(again.data, again.Scores), want)
	if again.Stats.TuplesScanned != ref.Stats.TuplesScanned {
		t.Errorf("one-shot after a half-read cursor scanned %d tuples, first run %d",
			again.Stats.TuplesScanned, ref.Stats.TuplesScanned)
	}
	return want
}

// TestEveryRouteAgrees runs a fixed list of statements through every way
// the engine executes one — ad hoc, prepared one-shot, cursor pages,
// one-shot on a reused instance — before and after an INSERT that changes
// the answer. All of them open one kind of stream, so all must agree.
func TestEveryRouteAgrees(t *testing.T) {
	for _, c := range routeCases {
		t.Run(c.name, func(t *testing.T) {
			db := routeDB(t)
			plan, err := db.Explain(c.adhoc())
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(plan, c.plan) {
				t.Fatalf("plan has no %q operator; the case no longer tests its name:\n%s", c.plan, plan)
			}
			st, err := db.Prepare(c.sql)
			if err != nil {
				t.Fatal(err)
			}
			before := checkRoutes(t, c, st, false)

			// The new rows outrank everything; 900002 exists only in item,
			// so EXCEPT sees it too.
			for _, ins := range []string{
				`INSERT INTO item VALUES (900001, 1.0, 1.0), (900002, 1.0, 0.99)`,
				`INSERT INTO item2 VALUES (900001, 1.0, 1.0)`,
				`INSERT INTO tag VALUES (900001, 1.0), (900002, 1.0)`,
			} {
				if _, err := db.Exec(ins); err != nil {
					t.Fatal(err)
				}
			}
			after := checkRoutes(t, c, st, true)
			if after[0] == before[0] {
				t.Errorf("top row unchanged by the insert: %s", after[0])
			}
			fresh, err := db.Query(c.adhoc())
			if err != nil {
				t.Fatal(err)
			}
			sameRanking(t, "ad hoc after the insert", ranking(fresh.data, fresh.Scores), after)
		})
	}
}

// TestQueryAndCursorShareInstances is the -race half of the property:
// goroutines mix Query with Cursor/Fetch/Close (half-read and drained to
// k) on one prepared template — a SELECT's, then a set operation's — so
// plan instances keep moving between one-shot runs and suspended streams,
// while a writer inserts rows the filter rejects — the index swap must
// not disturb anyone's answer.
func TestQueryAndCursorShareInstances(t *testing.T) {
	for _, c := range []routeCase{routeCases[5], routeCases[len(routeCases)-1]} { // LIMIT ?, UNION with ?
		t.Run(c.name, func(t *testing.T) {
			db := routeDB(t)
			st, err := db.Prepare(c.sql)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := st.Query(c.params...)
			if err != nil {
				t.Fatal(err)
			}
			want := ranking(ref.data, ref.Scores)

			const workers, rounds = 4, 30
			errs := make(chan error, workers+1)
			for w := 0; w < workers; w++ {
				go func(w int) {
					for i := 0; i < rounds; i++ {
						var got []string
						if (w+i)%2 == 0 {
							rows, err := st.Query(c.params...)
							if err != nil {
								errs <- err
								return
							}
							got = ranking(rows.data, rows.Scores)
						} else {
							cur, err := st.Cursor(c.params...)
							if err != nil {
								errs <- err
								return
							}
							var data [][]types.Value
							var scores []float64
							for _, n := range []int{3, 7} {
								if n == 7 && i%3 == 0 {
									break // close half-read
								}
								rows, err := cur.Fetch(n)
								if err != nil {
									errs <- err
									return
								}
								data = append(data, rows.data...)
								scores = append(scores, rows.Scores...)
							}
							if err := cur.Close(); err != nil {
								errs <- err
								return
							}
							got = ranking(data, scores)
						}
						for j := range got {
							if got[j] != want[j] {
								errs <- fmt.Errorf("worker %d round %d: rank %d = %s, want %s", w, i, j+1, got[j], want[j])
								return
							}
						}
					}
					errs <- nil
				}(w)
			}
			go func() {
				for i := 0; i < rounds; i++ {
					if _, err := db.Exec(fmt.Sprintf(`INSERT INTO item VALUES (%d, 0.0, 1.0)`, 700000+i)); err != nil {
						errs <- err
						return
					}
				}
				errs <- nil
			}()
			for i := 0; i < workers+1; i++ {
				if err := <-errs; err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}
