package server

import (
	"testing"

	"ranksql"
)

// TestSetOpOverSeededTripplanner is a regression test for a seed bug the
// daemon surfaced: when one set-operation operand optimizes to a
// traditional sort_F plan, its Evaluated() all-ones sentinel made the
// rank-aware set operators index past the spec's predicate list and
// panic. The fix clamps each side's evaluated set to the spec universe.
func TestSetOpOverSeededTripplanner(t *testing.T) {
	db := ranksql.Open()
	if err := Tripplanner.Seed(db, 2000); err != nil {
		t.Fatal(err)
	}
	rows, err := db.Query(`SELECT name, price, addr FROM hotel WHERE price < 100
		UNION SELECT name, price, addr FROM restaurant WHERE price < 50
		ORDER BY cheap(price) LIMIT 3`)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 3 {
		t.Fatalf("got %d rows, want 3", rows.Len())
	}
	for i := 1; i < rows.Len(); i++ {
		if rows.Scores[i] > rows.Scores[i-1]+1e-9 {
			t.Errorf("scores not non-increasing: %v", rows.Scores)
		}
	}
}
