package ranksql

import (
	"fmt"
	"sync"
	"testing"

	"ranksql/internal/catalog"
	"ranksql/internal/sql"
)

// TestConcurrentCompilesShareOneRedraw: once a table has doubled, the
// plans costed on its old snapshot are stale, and compiles racing to
// replace them draw one new snapshot between them and all cost on it.
// Run under -race.
func TestConcurrentCompilesShareOneRedraw(t *testing.T) {
	db := tripDB(t) // 5 hotels
	compile := func(src string) *compiledPlan {
		t.Helper()
		st, err := sql.Parse(src)
		if err != nil {
			t.Error(err)
			return nil
		}
		db.mu.RLock()
		defer db.mu.RUnlock()
		cp, err := db.compile(st)
		if err != nil {
			t.Error(err)
			return nil
		}
		return cp
	}
	old := compile(`SELECT name FROM Hotel ORDER BY cheap(price) LIMIT 1`)
	if !planFresh(old) {
		t.Fatal("a fresh compile is stale")
	}
	for i := 0; i < 6; i++ { // 11 > 2×5 rows
		if _, err := db.Exec(fmt.Sprintf(`INSERT INTO Hotel VALUES ('h%d', %d, %d)`, i, 50+i, i)); err != nil {
			t.Fatal(err)
		}
	}
	if planFresh(old) {
		t.Fatal("a plan costed on 5 rows is fresh at 11")
	}

	const workers = 8
	got := make([]*catalog.Snapshot, workers)
	var wg sync.WaitGroup
	for w := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if cp := compile(fmt.Sprintf(`SELECT name FROM Hotel WHERE price > %d ORDER BY cheap(price) LIMIT %d`, w, w+1)); cp != nil {
				got[w] = cp.Snapshots[0]
			}
		}()
	}
	wg.Wait()
	for _, s := range got {
		if s == nil || s == old.Snapshots[0] || s != got[0] {
			t.Fatal("concurrent compiles did not share one redrawn snapshot")
		}
	}
	if got[0].Rows != 11 || !got[0].Current() {
		t.Errorf("redrawn snapshot: rows %d, current %v", got[0].Rows, got[0].Current())
	}
}
