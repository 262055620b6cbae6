package catalog

import (
	"testing"

	"ranksql/internal/schema"
	"ranksql/internal/types"
)

func demoTable(t *testing.T) (*Catalog, *TableMeta) {
	t.Helper()
	c := New()
	tm, err := c.CreateTable("t", schema.NewSchema(
		schema.Column{Name: "a", Kind: types.KindInt},
		schema.Column{Name: "flag", Kind: types.KindBool},
		schema.Column{Name: "score", Kind: types.KindFloat},
	))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		tm.Table.MustAppend([]types.Value{
			types.NewInt(int64(i % 10)),
			types.NewBool(i%5 < 2), // 40% true
			types.NewFloat(float64(i) / 100),
		})
	}
	return c, tm
}

func TestCatalogCRUD(t *testing.T) {
	c, _ := demoTable(t)
	if _, err := c.CreateTable("t", schema.NewSchema()); err == nil {
		t.Error("duplicate table accepted")
	}
	if _, err := c.Table("T"); err != nil {
		t.Error("lookup should be case-insensitive")
	}
	if _, err := c.Table("nope"); err == nil {
		t.Error("missing table lookup succeeded")
	}
	if names := c.TableNames(); len(names) != 1 || names[0] != "t" {
		t.Errorf("TableNames = %v", names)
	}
	if err := c.DropTable("t"); err != nil {
		t.Error(err)
	}
	if err := c.DropTable("t"); err == nil {
		t.Error("double drop succeeded")
	}
}

func TestSecondaryIndex(t *testing.T) {
	_, tm := demoTable(t)
	idx, err := tm.CreateIndex("a")
	if err != nil {
		t.Fatal(err)
	}
	if idx.Tree.Len() != 100 {
		t.Errorf("index has %d entries", idx.Tree.Len())
	}
	if tm.Index("A") == nil {
		t.Error("index lookup should be case-insensitive")
	}
	if _, err := tm.CreateIndex("a"); err == nil {
		t.Error("duplicate index accepted")
	}
	if _, err := tm.CreateIndex("zzz"); err == nil {
		t.Error("index on missing column accepted")
	}
	// First entry has the smallest key.
	e, ok := idx.Tree.Ascend().Next()
	if !ok || e.Key.Int() != 0 {
		t.Errorf("first key = %v", e.Key)
	}
}

func TestRankIndex(t *testing.T) {
	_, tm := demoTable(t)
	ident := func(args []types.Value) float64 { f, _ := args[0].AsFloat(); return f }
	ri, err := tm.CreateRankIndex("f", []string{"score"}, ident)
	if err != nil {
		t.Fatal(err)
	}
	if ri.Tree.Len() != 100 || len(ri.Scores) != 100 {
		t.Error("rank index incomplete")
	}
	// Descending iteration starts at the best score (0.99).
	e, ok := ri.Tree.Descend().Next()
	if !ok || e.Key.Float() != 0.99 {
		t.Errorf("top score = %v", e.Key)
	}
	if tm.RankIndex("F", []string{"SCORE"}) == nil {
		t.Error("rank index lookup should be case-insensitive")
	}
	if tm.RankIndex("f", []string{"other"}) != nil {
		t.Error("wrong-column lookup matched")
	}
	if _, err := tm.CreateRankIndex("f", []string{"score"}, ident); err == nil {
		t.Error("duplicate rank index accepted")
	}
	if _, err := tm.CreateRankIndex("g", []string{"zzz"}, ident); err == nil {
		t.Error("rank index on missing column accepted")
	}
}

func TestSnapshotDistinct(t *testing.T) {
	_, tm := demoTable(t)
	s := tm.Snapshot(0.1, 5)
	if s.Rows != 100 {
		t.Errorf("rows = %d", s.Rows)
	}
	for col, want := range map[string]int{"a": 10, "FLAG": 2, "score": 100, "zzz": 0} {
		if got := s.Distinct(col); got != want {
			t.Errorf("distinct(%s) = %d, want %d", col, got, want)
		}
	}
	// Counts are of the rows the snapshot was drawn at, whenever taken.
	tm.Table.MustAppend([]types.Value{types.NewInt(10), types.NewBool(true), types.NewFloat(2)})
	if got := s.Distinct("a"); got != 10 {
		t.Errorf("distinct(a) after an append = %d, want 10 (memoized)", got)
	}
	if got := s.Distinct("score"); got != 100 {
		t.Errorf("distinct(score) after an append = %d, want 100 (the snapshot's rows)", got)
	}
}

func TestSampling(t *testing.T) {
	_, tm := demoTable(t)
	s := tm.Snapshot(0.1, 5)
	if n := s.Sample.Table.NumRows(); n != 10 {
		t.Errorf("sample size %d, want 10", n)
	}
	if s.Ratio != 0.1 {
		t.Errorf("ratio = %v", s.Ratio)
	}
	// Floor kicks in.
	if n := tm.Snapshot(0.001, 7).Sample.Table.NumRows(); n != 7 {
		t.Errorf("floored sample size %d, want 7", n)
	}
	// Sample larger than table is clamped.
	if n := tm.Snapshot(1.0, 500).Sample.Table.NumRows(); n != tm.Table.NumRows() {
		t.Errorf("clamped sample size %d", n)
	}
	// Determinism: a redraw with the same parameters takes the same rows.
	a := tm.Snapshot(0.2, 1).Sample.Table
	tm.Snapshot(0.3, 1)
	b := tm.Snapshot(0.2, 1).Sample.Table
	if b == a || a.NumRows() != b.NumRows() {
		t.Fatal("changed sampling parameters did not redraw")
	}
	for i := 0; i < a.NumRows(); i++ {
		ra, rb := a.Row(schema.TID(i)), b.Row(schema.TID(i))
		for j := range ra {
			if types.Compare(ra[j], rb[j]) != 0 {
				t.Fatal("sampling not deterministic")
			}
		}
	}
}

// TestSnapshotAging pins the one staleness rule: a snapshot serves every
// caller until its table holds more than twice its rows, its sampling
// parameters change, or DDL adds an index.
func TestSnapshotAging(t *testing.T) {
	_, tm := demoTable(t)
	s := tm.Snapshot(0.1, 5)
	if tm.Snapshot(0.1, 5) != s {
		t.Fatal("a current snapshot was redrawn")
	}
	grow := func(n int) {
		for i := 0; i < n; i++ {
			tm.Table.MustAppend([]types.Value{types.NewInt(1), types.NewBool(true), types.NewFloat(0)})
		}
	}
	grow(100) // 200 rows = 2× the snapshot's: still current
	if !s.Current() || tm.Snapshot(0.1, 5) != s {
		t.Fatal("a table at exactly 2× its snapshot's rows must keep it")
	}
	grow(1)
	if s.Current() {
		t.Fatal("201 rows > 2×100: snapshot must be stale")
	}
	s2 := tm.Snapshot(0.1, 5)
	if s2 == s || s2.Rows != 201 || s2.Sample.Table.NumRows() != 20 {
		t.Fatalf("redraw: rows %d, sample %d", s2.Rows, s2.Sample.Table.NumRows())
	}
	if !s2.Current() {
		t.Fatal("a fresh draw must be current")
	}
	// Other sampling parameters redraw, and the old snapshot is retired.
	if s3 := tm.Snapshot(0.5, 5); s3 == s2 || s3.Sample.Table.NumRows() != 100 || s2.Current() {
		t.Fatalf("parameter change: sample %d, old still current %v", s3.Sample.Table.NumRows(), s2.Current())
	}
	// DDL that adds an index retires the snapshot: its sample lacks it.
	s4 := tm.Snapshot(0.5, 5)
	if _, err := tm.CreateIndex("a"); err != nil {
		t.Fatal(err)
	}
	if s4.Current() {
		t.Fatal("CreateIndex must retire the snapshot")
	}
	s5 := tm.Snapshot(0.5, 5)
	if _, err := tm.CreateRankIndex("f", []string{"score"}, func(args []types.Value) float64 { return args[0].Float() }); err != nil {
		t.Fatal(err)
	}
	if s5.Current() {
		t.Fatal("CreateRankIndex must retire the snapshot")
	}
}

// TestSnapshotSampleIndexed checks that the sample carries the table's
// attribute and rank indexes over its own rows.
func TestSnapshotSampleIndexed(t *testing.T) {
	_, tm := demoTable(t)
	if _, err := tm.CreateIndex("a"); err != nil {
		t.Fatal(err)
	}
	ident := func(args []types.Value) float64 { f, _ := args[0].AsFloat(); return f }
	if _, err := tm.CreateRankIndex("f", []string{"score"}, ident); err != nil {
		t.Fatal(err)
	}
	sample := tm.Snapshot(0.1, 5).Sample
	idx, ri := sample.Index("a"), sample.RankIndex("f", []string{"score"})
	if idx == nil || ri == nil {
		t.Fatal("sample lacks the table's indexes")
	}
	if idx.Tree.Len() != 10 || ri.Tree.Len() != 10 || len(ri.Scores) != 10 {
		t.Errorf("sample indexes hold %d / %d entries, want 10", idx.Tree.Len(), ri.Tree.Len())
	}
	// Stride 10 takes scores 0.00, 0.10, ..., 0.90; the best is 0.9.
	if e, ok := ri.Tree.Descend().Next(); !ok || e.Key.Float() != 0.9 || ri.Scores[e.TID] != 0.9 {
		t.Errorf("sample rank index top = %v", e.Key)
	}
}
