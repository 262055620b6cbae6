package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ranksql"
)

// runMeta runs one meta command against db and returns what it printed.
func runMeta(t *testing.T, db *ranksql.DB, line string) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	timing := false
	meta(db, line, &timing)
	os.Stdout = stdout
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

func TestLoadMetaCommand(t *testing.T) {
	db := ranksql.Open()
	if _, err := db.Exec(`CREATE TABLE t (code TEXT, n INT)`); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	write := func(name, data string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	query := func() *ranksql.Rows {
		t.Helper()
		rows, err := db.Query(`SELECT code, n FROM t`)
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}

	// A malformed record is an error, not end of file: nothing is loaded.
	out := runMeta(t, db, ".load t "+write("short.csv", "a,1\nb,2\nc\nd,4\n"))
	if !strings.HasPrefix(out, "error:") || strings.Contains(out, "loaded") {
		t.Errorf("short row: printed %q, want an error and no loaded line", out)
	}
	if n := query().Len(); n != 0 {
		t.Errorf("short row: %d rows loaded, want 0", n)
	}

	// Cells take the column's declared type: 007 in a TEXT column stays text.
	out = runMeta(t, db, ".load t "+write("codes.csv", "007,7\n"))
	if out != "loaded 1 rows into t\n" {
		t.Errorf("printed %q", out)
	}
	if rows := query(); rows.Len() != 1 || rows.At(0)[0].Text() != "007" || rows.At(0)[1].Int() != 7 {
		t.Errorf("after load: %d rows, first = %v; want [007 7]", rows.Len(), rows.At(0))
	}
}
