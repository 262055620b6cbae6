package storage

import (
	"runtime"
	"testing"

	"ranksql/internal/schema"
	"ranksql/internal/types"
)

func demo() *Table {
	return NewTable("t", schema.NewSchema(
		schema.Column{Name: "a", Kind: types.KindInt},
		schema.Column{Name: "b", Kind: types.KindFloat},
	))
}

func TestAppendScanRow(t *testing.T) {
	tb := demo()
	tid, err := tb.Append([]types.Value{types.NewInt(1), types.NewFloat(2.5)})
	if err != nil || tid != 0 {
		t.Fatalf("append: %v tid=%d", err, tid)
	}
	tid, _ = tb.Append([]types.Value{types.NewInt(2), types.NewFloat(3.5)})
	if tid != 1 || tb.NumRows() != 2 {
		t.Fatal("tid/rows wrong")
	}
	row := tb.Row(1)
	if row[0].Int() != 2 {
		t.Fatal("Row wrong")
	}
	var seen []int64
	tb.Scan(func(tid schema.TID, row []types.Value) bool {
		seen = append(seen, row[0].Int())
		return true
	})
	if len(seen) != 2 || seen[0] != 1 {
		t.Fatalf("scan = %v", seen)
	}
	// Early stop.
	n := 0
	tb.Scan(func(schema.TID, []types.Value) bool { n++; return false })
	if n != 1 {
		t.Fatal("scan did not stop early")
	}
}

func TestAppendValidation(t *testing.T) {
	tb := demo()
	if _, err := tb.Append([]types.Value{types.NewInt(1)}); err == nil {
		t.Error("arity mismatch accepted")
	}
	if _, err := tb.Append([]types.Value{types.NewString("x"), types.NewFloat(0)}); err == nil {
		t.Error("type mismatch accepted")
	}
	// Int widens to float.
	if _, err := tb.Append([]types.Value{types.NewInt(1), types.NewInt(3)}); err != nil {
		t.Errorf("int→float widening rejected: %v", err)
	}
	if tb.Row(0)[1].Kind() != types.KindFloat {
		t.Error("widening did not convert")
	}
	// NULLs are allowed in any column.
	if _, err := tb.Append([]types.Value{types.Null(), types.Null()}); err != nil {
		t.Errorf("NULL rejected: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Error("MustAppend should panic on bad row")
		}
	}()
	tb.MustAppend([]types.Value{types.NewInt(1)})
}

// TestChunkBoundaries: Row, Scan and NumRows agree across chunk edges,
// and a row handed out before later Appends still reads its values.
func TestChunkBoundaries(t *testing.T) {
	for _, n := range []int{0, 1, chunkRows - 1, chunkRows, chunkRows + 1, 2*chunkRows + 1} {
		tb := demo()
		var early []types.Value
		for i := 0; i < n; i++ {
			tb.MustAppend([]types.Value{types.NewInt(int64(i)), types.NewFloat(float64(i) / 2)})
			if i == 0 {
				early = tb.Row(0)
			}
		}
		if tb.NumRows() != n {
			t.Fatalf("n=%d: NumRows = %d", n, tb.NumRows())
		}
		for i := 0; i < n; i++ {
			row := tb.Row(schema.TID(i))
			if len(row) != 2 || cap(row) != 2 || row[0].Int() != int64(i) || row[1].Float() != float64(i)/2 {
				t.Fatalf("n=%d: Row(%d) = %v (cap %d)", n, i, row, cap(row))
			}
		}
		seen := 0
		tb.Scan(func(tid schema.TID, row []types.Value) bool {
			if int(tid) != seen || row[0].Int() != int64(seen) {
				t.Fatalf("n=%d: Scan visit %d got tid %d row %v", n, seen, tid, row)
			}
			seen++
			return true
		})
		if seen != n {
			t.Fatalf("n=%d: Scan visited %d rows", n, seen)
		}
		if n > 0 && (early[0].Int() != 0 || early[1].Float() != 0) {
			t.Fatalf("n=%d: row 0 taken before later Appends now reads %v", n, early)
		}
	}
}

// TestAppendCopies: the table keeps its own copy of an appended row.
func TestAppendCopies(t *testing.T) {
	tb := demo()
	row := []types.Value{types.NewInt(1), types.NewFloat(2)}
	tb.MustAppend(row)
	row[0] = types.NewInt(9)
	if tb.Row(0)[0].Int() != 1 {
		t.Fatal("Append kept the caller's slice")
	}
}

// TestSmallTableStaysSmall: a 3-row table does not allocate a whole chunk.
func TestSmallTableStaysSmall(t *testing.T) {
	sch := demo().Schema
	row := []types.Value{types.NewInt(1), types.NewFloat(2)}
	const tables = 100
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := 0; i < tables; i++ {
		tb := NewTable("t", sch)
		for j := 0; j < 3; j++ {
			tb.MustAppend(row)
		}
	}
	runtime.ReadMemStats(&ms1)
	// A full chunk of this schema is 1 024 × 2 × 24 B = 48 KiB.
	if perTable := (ms1.TotalAlloc - ms0.TotalAlloc) / tables; perTable > 1024 {
		t.Errorf("3-row table allocates %d B, want ≤ 1 KiB", perTable)
	}
}
