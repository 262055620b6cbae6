package ranksql

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// tripDB builds the Example 1 database: hotels, restaurants, museums with
// the cheap/close/related scorers.
func tripDB(t *testing.T) *DB {
	t.Helper()
	db := Open()
	mustExec := func(s string) {
		t.Helper()
		if _, err := db.Exec(s); err != nil {
			t.Fatalf("%s: %v", s, err)
		}
	}
	mustExec(`CREATE TABLE Hotel (name TEXT, price FLOAT, addr INT)`)
	mustExec(`CREATE TABLE Restaurant (name TEXT, cuisine TEXT, price FLOAT, addr INT, area INT)`)
	mustExec(`CREATE TABLE Museum (name TEXT, collection TEXT, area INT)`)

	// Scorers: cheap prefers low price; close prefers nearby addresses;
	// related prefers dinosaur collections.
	if err := db.RegisterScorer("cheap", func(args []Value) float64 {
		return math.Max(0, (200-args[0].Float())/200)
	}, WithCost(1)); err != nil {
		t.Fatal(err)
	}
	if err := db.RegisterScorer("close", func(args []Value) float64 {
		d := math.Abs(args[0].Float() - args[1].Float())
		return 1 / (1 + d/10)
	}, WithCost(2)); err != nil {
		t.Fatal(err)
	}
	if err := db.RegisterScorer("related", func(args []Value) float64 {
		if strings.Contains(strings.ToLower(args[0].Text()), "dinosaur") {
			return 1
		}
		return 0.2
	}, WithCost(3)); err != nil {
		t.Fatal(err)
	}

	hotels := []string{
		`('Grand', 120, 10)`, `('Budget', 40, 55)`, `('Plaza', 90, 22)`,
		`('Inn', 60, 31)`, `('Suites', 150, 12)`,
	}
	mustExec(`INSERT INTO Hotel VALUES ` + strings.Join(hotels, ", "))
	rests := []string{
		`('Roma', 'Italian', 35, 12, 1)`, `('Napoli', 'Italian', 50, 30, 2)`,
		`('Wok', 'Chinese', 25, 14, 1)`, `('Trattoria', 'Italian', 28, 52, 3)`,
		`('Bistro', 'French', 45, 20, 2)`,
	}
	mustExec(`INSERT INTO Restaurant VALUES ` + strings.Join(rests, ", "))
	museums := []string{
		`('Natural History', 'dinosaur fossils', 1)`, `('Modern Art', 'paintings', 2)`,
		`('Science', 'dinosaur eggs and robots', 3)`, `('City', 'history', 1)`,
	}
	mustExec(`INSERT INTO Museum VALUES ` + strings.Join(museums, ", "))
	return db
}

const tripQuery = `
	SELECT h.name, r.name, m.name
	FROM Hotel h, Restaurant r, Museum m
	WHERE r.cuisine = 'Italian' AND h.price + r.price < 100 AND r.area = m.area
	ORDER BY cheap(h.price) + close(h.addr, r.addr) + related(m.collection)
	LIMIT 3`

// TestExample1TripQuery runs the paper's motivating query end to end.
func TestExample1TripQuery(t *testing.T) {
	db := tripDB(t)
	rows, err := db.Query(tripQuery)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.data) == 0 {
		t.Fatal("no results")
	}
	if len(rows.data) > 3 {
		t.Fatalf("LIMIT 3 returned %d rows", len(rows.data))
	}
	// Scores must be non-increasing.
	for i := 1; i < len(rows.Scores); i++ {
		if rows.Scores[i] > rows.Scores[i-1]+1e-9 {
			t.Errorf("scores not ranked: %v", rows.Scores)
		}
	}
	// Each result must satisfy the Boolean conditions; verify via a
	// Boolean-only query.
	all, err := db.Query(`SELECT h.name, r.name, m.name FROM Hotel h, Restaurant r, Museum m
		WHERE r.cuisine = 'Italian' AND h.price + r.price < 100 AND r.area = m.area`)
	if err != nil {
		t.Fatal(err)
	}
	valid := map[string]bool{}
	for _, row := range all.data {
		valid[fmt.Sprint(row)] = true
	}
	for _, row := range rows.data {
		if !valid[fmt.Sprint(row)] {
			t.Errorf("result %v does not satisfy the Boolean conditions", row)
		}
	}
}

// TestTripQueryMatchesNaive cross-checks the optimizer's answer against
// the same query answered with a huge LIMIT and manual sorting.
func TestTripQueryMatchesNaive(t *testing.T) {
	db := tripDB(t)
	top, err := db.Query(tripQuery)
	if err != nil {
		t.Fatal(err)
	}
	all, err := db.Query(strings.Replace(tripQuery, "LIMIT 3", "LIMIT 1000", 1))
	if err != nil {
		t.Fatal(err)
	}
	for i := range top.Scores {
		if math.Abs(top.Scores[i]-all.Scores[i]) > 1e-9 {
			t.Errorf("top-3 scores %v disagree with full ranking %v", top.Scores, all.Scores[:3])
			break
		}
	}
}

// TestWeightedOrderBy exercises weighted scoring functions.
func TestWeightedOrderBy(t *testing.T) {
	db := tripDB(t)
	rows, err := db.Query(`SELECT h.name FROM Hotel h
		ORDER BY 2 * cheap(h.price) LIMIT 2`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.data) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows.data))
	}
	// Cheapest hotel is Budget (40), then Inn (60).
	if rows.data[0][0].Str() != "Budget" || rows.data[1][0].Str() != "Inn" {
		t.Errorf("weighted order wrong: %v", rows.data)
	}
}

// TestOpaqueOrderBy uses a plain arithmetic ORDER BY expression (no
// registered scorer), which becomes an opaque ranking predicate.
func TestOpaqueOrderBy(t *testing.T) {
	db := tripDB(t)
	rows, err := db.Query(`SELECT h.name FROM Hotel h ORDER BY (200 - h.price) * 0.2 LIMIT 1`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.data) != 1 || rows.data[0][0].Str() != "Budget" {
		t.Errorf("opaque ORDER BY picked %v, want Budget", rows.data)
	}
}

// TestBooleanOnlyQuery checks plain SPJ queries still work.
func TestBooleanOnlyQuery(t *testing.T) {
	db := tripDB(t)
	rows, err := db.Query(`SELECT name FROM Hotel WHERE price < 100`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.data) != 3 {
		t.Errorf("got %d hotels under 100, want 3: %v", len(rows.data), rows.data)
	}
}

// TestRankIndexDDL creates a rank index via SQL and confirms the optimizer
// can use it (plan mentions idxScan of the scorer).
func TestRankIndexDDL(t *testing.T) {
	db := tripDB(t)
	if _, err := db.Exec(`CREATE RANK INDEX ON Hotel (cheap(price))`); err != nil {
		t.Fatal(err)
	}
	plan, err := db.Explain(`SELECT h.name FROM Hotel h ORDER BY cheap(h.price) LIMIT 2`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "idxScan_cheap") {
		t.Errorf("plan does not use the rank index:\n%s", plan)
	}
}

// TestExplain returns a readable plan.
func TestExplain(t *testing.T) {
	db := tripDB(t)
	plan, err := db.Explain(tripQuery)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"limit(3)", "card=", "cost="} {
		if !strings.Contains(plan, want) {
			t.Errorf("EXPLAIN output missing %q:\n%s", want, plan)
		}
	}
}

// TestErrors exercises the error paths.
func TestErrors(t *testing.T) {
	db := tripDB(t)
	cases := []string{
		`SELECT * FROM NoSuchTable`,
		`SELECT nosuchcol FROM Hotel`,
		`SELECT name FROM Hotel ORDER BY unregistered(price) LIMIT 1`,
		`SELECT name FROM Hotel ORDER BY cheap(price) ASC LIMIT 1`,
		`SELECT * FROM`,
		`CREATE TABLE Hotel (x INT)`, // duplicate
		`INSERT INTO Hotel VALUES (1)`,
	}
	for _, c := range cases {
		_, qerr := db.Query(c)
		_, xerr := db.Exec(c)
		if qerr == nil && xerr == nil {
			t.Errorf("no error for %q", c)
		}
	}
}

// TestInsertRebuildsIndexes ensures inserts keep indexes consistent, on a
// fresh compile and — the case a pooled operator tree makes interesting,
// because it captured the index at Build — on a cached-template hit. Its
// second half does the same for attribute indexes, through a merge join
// of two idxScan_<col> scans that a cursor holds suspended while inserts
// land in both indexes.
func TestInsertRebuildsIndexes(t *testing.T) {
	db := tripDB(t)
	if _, err := db.Exec(`CREATE RANK INDEX ON Hotel (cheap(price))`); err != nil {
		t.Fatal(err)
	}
	st, err := db.Prepare(`SELECT h.name FROM Hotel h WHERE h.price < ? ORDER BY cheap(h.price) LIMIT ?`)
	if err != nil {
		t.Fatal(err)
	}
	params := []interface{}{500.0, 1}
	for i := 0; i < 2; i++ { // compile, then a hit that leaves a pooled tree
		if _, err := st.Query(params...); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Exec(`INSERT INTO Hotel VALUES ('Hostel', 10, 70)`); err != nil {
		t.Fatal(err)
	}
	rows, err := db.Query(`SELECT h.name FROM Hotel h ORDER BY cheap(h.price) LIMIT 1`)
	if err != nil {
		t.Fatal(err)
	}
	if rows.data[0][0].Str() != "Hostel" {
		t.Errorf("rank index stale after insert: top = %v", rows.data[0])
	}
	rows, err = st.Query(params...)
	if err != nil {
		t.Fatal(err)
	}
	if !rows.CacheHit {
		t.Fatal("template run after the insert should still hit the plan cache")
	}
	if rows.data[0][0].Str() != "Hostel" {
		t.Errorf("cached template scans a stale rank index after insert: top = %v", rows.data[0])
	}

	for _, ddl := range []string{`CREATE INDEX ON Hotel (addr)`, `CREATE INDEX ON Restaurant (addr)`} {
		if _, err := db.Exec(ddl); err != nil {
			t.Fatal(err)
		}
	}
	r := rand.New(rand.NewSource(5))
	// insert adds n hotels and n restaurants on random addresses, each
	// name carrying the given prefix.
	insert := func(prefix string, n int) {
		t.Helper()
		hotels, rests := make([]string, n), make([]string, n)
		for i := range hotels {
			hotels[i] = fmt.Sprintf("('%sh%d', 80, %d)", prefix, i, r.Intn(60))
			rests[i] = fmt.Sprintf("('%sr%d', 'Thai', 30, %d, 1)", prefix, i, r.Intn(60))
		}
		for _, stmt := range []string{
			`INSERT INTO Hotel VALUES ` + strings.Join(hotels, ", "),
			`INSERT INTO Restaurant VALUES ` + strings.Join(rests, ", "),
		} {
			if _, err := db.Exec(stmt); err != nil {
				t.Fatal(err)
			}
		}
	}
	insert("", 200)
	const join = `SELECT h.name, r.name FROM Hotel h, Restaurant r WHERE h.addr = r.addr`
	plan, err := db.Explain(join)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "idxScan_addr(h)") || !strings.Contains(plan, "idxScan_addr(r)") {
		t.Fatalf("join does not scan both attribute indexes:\n%s", plan)
	}
	ref, err := db.Query(join)
	if err != nil {
		t.Fatal(err)
	}
	c, err := db.Cursor(join)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	data, scores := drainUnderInserts(t, c, func(n int) { insert("new", n) })
	for i, row := range data {
		if strings.HasPrefix(row[0].Str(), "new") || strings.HasPrefix(row[1].Str(), "new") {
			t.Fatalf("row %d = %v joins a row inserted after the cursor opened", i+1, row)
		}
	}
	assertSameRanking(t, data, scores, ref)

	// After the inserts the index-driven join finds every match a scan of
	// the heaps does.
	addrs := func(table string) map[int64]int {
		rows, err := db.Query(`SELECT addr FROM ` + table)
		if err != nil {
			t.Fatal(err)
		}
		n := map[int64]int{}
		for _, row := range rows.data {
			n[row[0].Int()]++
		}
		return n
	}
	want := 0
	rAddrs := addrs("Restaurant")
	for addr, n := range addrs("Hotel") {
		want += n * rAddrs[addr]
	}
	after, err := db.Query(join)
	if err != nil {
		t.Fatal(err)
	}
	if len(after.data) != want {
		t.Errorf("join after inserts returned %d rows, heap scans say %d", len(after.data), want)
	}
}

// TestSetOpNegativeZero: set operations find duplicates as SQL = does, so
// 0.0 and −0.0 are one value to UNION, INTERSECT and EXCEPT, as they are
// to the join a.x = b.x.
func TestSetOpNegativeZero(t *testing.T) {
	db := Open()
	for _, s := range []string{
		`CREATE TABLE a (x FLOAT)`, `CREATE TABLE b (x FLOAT)`,
		`INSERT INTO a VALUES (0.0)`, `INSERT INTO b VALUES (-0.0)`,
	} {
		if _, err := db.Exec(s); err != nil {
			t.Fatalf("%s: %v", s, err)
		}
	}
	rows, err := db.Query(`SELECT x FROM b`)
	if err != nil {
		t.Fatal(err)
	}
	if x := rows.ValueAt(0, 0).Float(); x != 0 || !math.Signbit(x) {
		t.Fatalf("b.x = %v, want −0", x)
	}
	for q, want := range map[string]int{
		`SELECT a.x FROM a, b WHERE a.x = b.x`:      1,
		`SELECT x FROM a UNION SELECT x FROM b`:     1,
		`SELECT x FROM a INTERSECT SELECT x FROM b`: 1,
		`SELECT x FROM a EXCEPT SELECT x FROM b`:    0,
	} {
		rows, err := db.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if rows.Len() != want {
			t.Errorf("%s: %d rows, want %d", q, rows.Len(), want)
		}
	}
}

// TestMultiRowInsertIsAtomic: a multi-row INSERT with one bad row appends
// none of them, and a good one appends all, INT widened to FLOAT.
func TestMultiRowInsertIsAtomic(t *testing.T) {
	db := Open()
	if _, err := db.Exec(`CREATE TABLE t (a FLOAT, b INT)`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`INSERT INTO t VALUES (1, 1), (2, 'x'), (3, 3)`); err == nil {
		t.Fatal("INSERT with a TEXT value in an INT column succeeded")
	}
	count := func() int {
		t.Helper()
		rows, err := db.Query(`SELECT a FROM t`)
		if err != nil {
			t.Fatal(err)
		}
		return rows.Len()
	}
	if n := count(); n != 0 {
		t.Fatalf("failed INSERT left %d rows, want 0", n)
	}
	res, err := db.Exec(`INSERT INTO t VALUES (1, 1), (2, 2), (3, 3)`)
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsAffected != 3 || count() != 3 {
		t.Fatalf("RowsAffected %d, rows %d, want 3 and 3", res.RowsAffected, count())
	}
}
