// Package storage implements the in-memory heap tables backing the engine.
// Rows are identified by TIDs (their insertion position); tables are
// append-only, matching the workloads the paper evaluates (bulk-loaded
// synthetic relations).
package storage

import (
	"fmt"

	"ranksql/internal/schema"
	"ranksql/internal/types"
)

// chunkRows is the number of rows one chunk of a Table holds.
const chunkRows = 1024

// Table is an append-only heap of rows. The rows live in fixed chunks of
// chunkRows rows, each one flat []types.Value, so a row is a run of
// adjacent values rather than a slice header pointing elsewhere. The
// first chunk grows by append, so a small table stays small; later ones
// are allocated full.
//
// Stored values are never modified, so a row handed out by Row or Scan
// stays valid, and reads the same values, after later Appends (a chunk
// that grows moves to a new array; the old one stays for whoever holds
// it). Callers serialize Append against readers; the engine's write lock
// does.
type Table struct {
	Name   string
	Schema *schema.Schema
	chunks [][]types.Value
	width  int // values per row
	n      int // rows stored
}

// NewTable creates an empty table.
func NewTable(name string, sch *schema.Schema) *Table {
	return &Table{Name: name, Schema: sch, width: sch.Len()}
}

// Check validates row against the schema, widening an INT to FLOAT in
// place where the column is FLOAT. A checked row always appends.
func (t *Table) Check(row []types.Value) error {
	if len(row) != t.Schema.Len() {
		return fmt.Errorf("storage: table %s expects %d values, got %d", t.Name, t.Schema.Len(), len(row))
	}
	for i, v := range row {
		want := t.Schema.Columns[i].Kind
		if v.IsNull() || v.Kind() == want {
			continue
		}
		// Allow int → float widening on insert.
		if want == types.KindFloat && v.Kind() == types.KindInt {
			row[i] = types.NewFloat(float64(v.Int()))
			continue
		}
		return fmt.Errorf("storage: table %s column %s expects %s, got %s",
			t.Name, t.Schema.Columns[i].Name, want, v.Kind())
	}
	return nil
}

// Append checks row and copies it into the table, returning its TID.
func (t *Table) Append(row []types.Value) (schema.TID, error) {
	if err := t.Check(row); err != nil {
		return 0, err
	}
	if t.n%chunkRows == 0 {
		var c []types.Value
		if t.n > 0 { // past the first chunk the table is big: no regrowth
			c = make([]types.Value, 0, chunkRows*t.width)
		}
		t.chunks = append(t.chunks, c)
	}
	last := &t.chunks[len(t.chunks)-1]
	*last = append(*last, row...)
	t.n++
	return schema.TID(t.n - 1), nil
}

// MustAppend is Append that panics on error, for generators and tests.
func (t *Table) MustAppend(row []types.Value) schema.TID {
	tid, err := t.Append(row)
	if err != nil {
		panic(err)
	}
	return tid
}

// NumRows returns the row count.
func (t *Table) NumRows() int { return t.n }

// Row returns the row stored at tid. The returned slice must not be
// modified; its capacity ends with the row, so appending to it copies.
func (t *Table) Row(tid schema.TID) []types.Value {
	i := int(tid%chunkRows) * t.width
	return t.chunks[tid/chunkRows][i : i+t.width : i+t.width]
}

// Scan calls fn for every row in TID order until fn returns false.
func (t *Table) Scan(fn func(tid schema.TID, row []types.Value) bool) {
	for tid := schema.TID(0); int(tid) < t.n; tid++ {
		if !fn(tid, t.Row(tid)) {
			return
		}
	}
}
