package schema

import (
	"testing"
	"testing/quick"

	"ranksql/internal/types"
)

func demoSchema() *Schema {
	return NewSchema(
		Column{Table: "t", Name: "a", Kind: types.KindInt},
		Column{Table: "t", Name: "b", Kind: types.KindFloat},
		Column{Table: "u", Name: "a", Kind: types.KindInt},
	)
}

func TestColumnResolution(t *testing.T) {
	s := demoSchema()
	if i := s.ColumnIndex("t", "a"); i != 0 {
		t.Errorf("t.a = %d", i)
	}
	if i := s.ColumnIndex("u", "a"); i != 2 {
		t.Errorf("u.a = %d", i)
	}
	if i := s.ColumnIndex("", "b"); i != 1 {
		t.Errorf("unqualified b = %d", i)
	}
	if i := s.ColumnIndex("", "a"); i != -2 {
		t.Errorf("ambiguous a = %d, want -2", i)
	}
	if i := s.ColumnIndex("t", "zzz"); i != -1 {
		t.Errorf("missing = %d, want -1", i)
	}
	// Case-insensitive.
	if i := s.ColumnIndex("T", "A"); i != 0 {
		t.Errorf("case-insensitive = %d", i)
	}
}

func TestConcatProjectEqual(t *testing.T) {
	s := demoSchema()
	s2 := NewSchema(Column{Table: "v", Name: "x", Kind: types.KindString})
	cat := s.Concat(s2)
	if cat.Len() != 4 || cat.Columns[3].Name != "x" {
		t.Errorf("concat wrong: %s", cat)
	}
	proj := cat.Project([]int{3, 0})
	if proj.Len() != 2 || proj.Columns[0].Name != "x" || proj.Columns[1].Name != "a" {
		t.Errorf("project wrong: %s", proj)
	}
	if !s.Equal(demoSchema()) || s.Equal(s2) {
		t.Error("Equal misbehaves")
	}
	if s.String() == "" || cat.String() == "" {
		t.Error("render empty")
	}
}

func TestBitsetBasics(t *testing.T) {
	var b Bitset
	if b != 0 || b.Count() != 0 {
		t.Error("zero bitset")
	}
	b = b.With(3).With(5)
	if !b.Has(3) || !b.Has(5) || b.Has(4) {
		t.Error("With/Has")
	}
	if b.Count() != 2 {
		t.Error("Count")
	}
	if b.Without(3) != Bit(5) {
		t.Error("Without")
	}
	if b.String() != "{3,5}" {
		t.Errorf("String = %s", b)
	}
	if got := b.Indices(); len(got) != 2 || got[0] != 3 || got[1] != 5 {
		t.Errorf("Indices = %v", got)
	}
	if AllBits(3) != Bitset(7) {
		t.Error("AllBits")
	}
	if AllBits(64) != ^Bitset(0) {
		t.Error("AllBits(64)")
	}
}

func TestBitsetAlgebra(t *testing.T) {
	prop := func(a, b uint64) bool {
		x, y := Bitset(a), Bitset(b)
		if x.Union(y) != y.Union(x) {
			return false
		}
		if x.Intersect(y).SubsetOf(x) == false {
			return false
		}
		if x.Diff(y).Intersect(y) != 0 {
			return false
		}
		if x.Diff(y).Union(x.Intersect(y)) != x {
			return false
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestTupleCloneAndConcat(t *testing.T) {
	a := NewTuple(1, []types.Value{types.NewInt(1)}, 3)
	a.Preds[0] = 0.5
	a.Evaluated = Bit(0)
	a.Score = 2.5
	b := NewTuple(9, []types.Value{types.NewString("x")}, 3)
	b.Preds[2] = 0.9
	b.Evaluated = Bit(2)

	c := Concat(a, b)
	if len(c.Values) != 2 || len(c.TIDs) != 2 || c.TIDs[0] != 1 || c.TIDs[1] != 9 {
		t.Errorf("concat wrong: %+v", c)
	}
	if c.Evaluated != Bit(0).Union(Bit(2)) {
		t.Errorf("evaluated = %s", c.Evaluated)
	}
	if c.Preds[0] != 0.5 || c.Preds[2] != 0.9 {
		t.Errorf("preds = %v", c.Preds)
	}

	cl := a.Clone()
	cl.Preds[0] = 0.1
	cl.Values[0] = types.NewInt(99)
	if a.Preds[0] != 0.5 || a.Values[0].Int() != 1 {
		t.Error("Clone shares storage")
	}
}

func TestTupleKeysAndLess(t *testing.T) {
	a := NewTuple(1, []types.Value{types.NewInt(1), types.NewString("x")}, 0)
	b := NewTuple(2, []types.Value{types.NewInt(1), types.NewString("x")}, 0)
	if string(a.AppendValueKey(nil)) != string(b.AppendValueKey(nil)) {
		t.Error("equal values must share a value key")
	}
	a.Score, b.Score = 2, 1
	if !a.Less(b) {
		t.Error("higher score ranks earlier")
	}
	b.Score = 2
	if !a.Less(b) || b.Less(a) {
		t.Error("ties break by TID ascending")
	}
	if a.String() == "" {
		t.Error("String empty")
	}
}
