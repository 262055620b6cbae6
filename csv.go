package ranksql

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"ranksql/internal/types"
)

// LoadCSV bulk-loads CSV records into an existing table and returns the
// number of rows inserted. Cells are converted to the column's declared
// type; empty cells become NULL. When header is true the first record is
// skipped. Records are parsed first, then appended under the engine's
// write lock, each indexed as it is appended, so concurrent queries never
// observe a half-loaded table.
func (db *DB) LoadCSV(table string, r io.Reader, header bool) (int, error) {
	tm, err := db.eng.Catalog.Table(table)
	if err != nil {
		return 0, err
	}
	// The schema is immutable after CREATE TABLE, so conversion can run
	// outside the lock.
	sch := tm.Table.Schema
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = sch.Len()
	var rows [][]types.Value
	first := true
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, fmt.Errorf("ranksql: csv row %d: %w", len(rows)+1, err)
		}
		if first && header {
			first = false
			continue
		}
		first = false
		row := make([]types.Value, len(rec))
		for i, cell := range rec {
			v, err := types.ParseCell(cell, sch.Columns[i].Kind)
			if err != nil {
				return 0, fmt.Errorf("ranksql: csv row %d column %s: %w",
					len(rows)+1, sch.Columns[i].Name, err)
			}
			row[i] = v
		}
		rows = append(rows, row)
	}
	return db.eng.BulkInsert(table, sch, rows)
}

// DumpCSV writes a query result as CSV (header row of column names, then
// data rows; ranking scores are appended as a final "score" column when
// the query ranked).
func DumpCSV(w io.Writer, rows *Rows) error {
	cw := csv.NewWriter(w)
	ranked := false
	for _, s := range rows.Scores {
		if s != 0 {
			ranked = true
			break
		}
	}
	head := append([]string{}, rows.Columns...)
	if ranked {
		head = append(head, "score")
	}
	if err := cw.Write(head); err != nil {
		return err
	}
	for i := 0; i < rows.Len(); i++ {
		row := rows.At(i)
		rec := make([]string, 0, len(row)+1)
		for _, v := range row {
			rec = append(rec, v.String())
		}
		if ranked {
			rec = append(rec, strconv.FormatFloat(rows.Scores[i], 'g', -1, 64))
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
