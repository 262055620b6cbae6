package paper

import (
	"math"
	"testing"

	"ranksql/internal/schema"
	"ranksql/internal/types"
)

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Size = 5000
	cfg.JoinSelectivity = 0.002
	return cfg
}

func TestBuildShape(t *testing.T) {
	db, err := Build(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"A", "B", "C"} {
		tm, err := db.Catalog.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		if tm.Table.NumRows() != 5000 {
			t.Errorf("%s has %d rows", name, tm.Table.NumRows())
		}
	}
	a, _ := db.Catalog.Table("A")
	if a.Table.Schema.ColumnIndex("", "b") < 0 {
		t.Error("A lacks boolean column")
	}
	cT, _ := db.Catalog.Table("C")
	if cT.Table.Schema.ColumnIndex("", "b") >= 0 {
		t.Error("C must not have a boolean column")
	}
	if db.Spec.N() != 5 {
		t.Errorf("spec has %d predicates", db.Spec.N())
	}
	// Rank indexes for f1, f3, f5; attribute indexes for the join plan.
	if a.RankIndex("f1", []string{"p1"}) == nil {
		t.Error("A lacks rank index f1")
	}
	b, _ := db.Catalog.Table("B")
	if b.RankIndex("f3", []string{"p1"}) == nil {
		t.Error("B lacks rank index f3")
	}
	if cT.RankIndex("f5", []string{"p1"}) == nil {
		t.Error("C lacks rank index f5")
	}
	if a.Index("jc1") == nil || b.Index("jc2") == nil || cT.Index("jc2") == nil {
		t.Error("attribute indexes missing")
	}
}

func TestBoolSelectivity(t *testing.T) {
	db, err := Build(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	a, _ := db.Catalog.Table("A")
	bi := a.Table.Schema.ColumnIndex("", "b")
	trues := 0
	a.Table.Scan(func(_ schema.TID, row []types.Value) bool {
		if row[bi].Bool() {
			trues++
		}
		return true
	})
	frac := float64(trues) / float64(a.Table.NumRows())
	if math.Abs(frac-0.4) > 0.03 {
		t.Errorf("A.b selectivity = %v, want ≈0.4", frac)
	}
}

func TestJoinSelectivity(t *testing.T) {
	db, err := Build(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	a, _ := db.Catalog.Table("A")
	ji := a.Table.Schema.ColumnIndex("", "jc1")
	keys := map[uint64]bool{}
	a.Table.Scan(func(_ schema.TID, row []types.Value) bool {
		keys[row[ji].Hash()] = true
		return true
	})
	// 1/j = 500 distinct join values (some may be unused at this size).
	d := len(keys)
	if d < 450 || d > 500 {
		t.Errorf("distinct(jc1) = %d, want ≈500", d)
	}
}

func TestScoreRanges(t *testing.T) {
	db, err := Build(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"A", "B", "C"} {
		tm, _ := db.Catalog.Table(name)
		sch := tm.Table.Schema
		for ci, col := range sch.Columns {
			if col.Kind != types.KindFloat {
				continue
			}
			tm.Table.Scan(func(_ schema.TID, row []types.Value) bool {
				f, _ := row[ci].AsFloat()
				if f < 0 || f > 1 {
					t.Fatalf("%s.%s score %v outside [0,1]", name, col.Name, f)
				}
				return true
			})
		}
	}
}

// TestDistributionsDiffer: the three distributions must produce visibly
// different shapes (spread of the normal < uniform; cosine bimodal-ish).
func TestDistributionsDiffer(t *testing.T) {
	r := newRng(7)
	n := 20000
	variance := func(d Distribution) float64 {
		var sum, sum2 float64
		for i := 0; i < n; i++ {
			x := d.sample(r)
			sum += x
			sum2 += x * x
		}
		mean := sum / float64(n)
		return sum2/float64(n) - mean*mean
	}
	vu := variance(Uniform)
	vn := variance(Normal)
	vc := variance(Cosine)
	// Uniform variance ≈ 1/12 ≈ 0.083. Truncating normal(0.5, 0.16) to
	// [0,1] concentrates it (≈0.068). The raised cosine 1+cos(2πx) peaks
	// at both edges, so it spreads wider than uniform (≈0.134).
	if math.Abs(vu-1.0/12) > 0.01 {
		t.Errorf("uniform variance = %v", vu)
	}
	if vn >= vu {
		t.Errorf("truncated normal variance %v should be below uniform %v", vn, vu)
	}
	if vc <= vu {
		t.Errorf("cosine variance %v should exceed uniform %v", vc, vu)
	}
}

func TestDeterminism(t *testing.T) {
	cfg := testConfig()
	cfg.Size = 200
	d1, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t1, _ := d1.Catalog.Table("A")
	t2, _ := d2.Catalog.Table("A")
	for i := 0; i < t1.Table.NumRows(); i++ {
		r1, r2 := t1.Table.Row(schema.TID(i)), t2.Table.Row(schema.TID(i))
		for j := range r1 {
			if types.Compare(r1[j], r2[j]) != 0 {
				t.Fatalf("row %d differs between identical builds", i)
			}
		}
	}
}

func TestConfigValidation(t *testing.T) {
	cfg := testConfig()
	cfg.Size = 0
	if _, err := Build(cfg); err == nil {
		t.Error("zero size accepted")
	}
	cfg = testConfig()
	cfg.JoinSelectivity = 0
	if _, err := Build(cfg); err == nil {
		t.Error("zero selectivity accepted")
	}
	cfg = testConfig()
	cfg.JoinSelectivity = 2
	if _, err := Build(cfg); err == nil {
		t.Error("selectivity > 1 accepted")
	}
}

func TestQueryShape(t *testing.T) {
	db, err := Build(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	q := db.Query()
	if len(q.Tables) != 3 || q.K != db.Config.K || q.Spec != db.Spec {
		t.Error("query malformed")
	}
	if q.Where == nil {
		t.Error("query lacks conditions")
	}
}
