// Package schema defines relation schemas and the rank-aware tuple
// representation used by the execution engine.
//
// A rank-relation (Definition 1 of the paper) is a relation whose tuples
// carry, in addition to their attribute values, the scores of the ranking
// predicates evaluated so far and the maximal-possible score they induce.
// Tuple materializes exactly that: Values for membership, Preds/Evaluated
// for the order property.
package schema

import (
	"strings"

	"ranksql/internal/types"
)

// Column describes one attribute of a relation.
type Column struct {
	// Table is the (alias-qualified) relation name the column belongs to.
	// Columns of join results keep their original qualifier.
	Table string
	// Name is the attribute name.
	Name string
	// Kind is the column's declared type.
	Kind types.Kind
}

// QualifiedName returns "table.name" (or just the name when unqualified).
func (c Column) QualifiedName() string {
	if c.Table == "" {
		return c.Name
	}
	return c.Table + "." + c.Name
}

// Schema is an ordered list of columns.
type Schema struct {
	Columns []Column
}

// NewSchema builds a schema from columns.
func NewSchema(cols ...Column) *Schema {
	return &Schema{Columns: cols}
}

// Len returns the number of columns.
func (s *Schema) Len() int { return len(s.Columns) }

// ColumnIndex resolves a possibly qualified column reference to its position.
// An unqualified name matches if exactly one column carries it; a qualified
// name must match both table and name. Returns -1 when unresolved, -2 when
// ambiguous.
func (s *Schema) ColumnIndex(table, name string) int {
	found := -1
	for i, c := range s.Columns {
		if !strings.EqualFold(c.Name, name) {
			continue
		}
		if table != "" && !strings.EqualFold(c.Table, table) {
			continue
		}
		if found >= 0 {
			return -2
		}
		found = i
	}
	return found
}

// Concat returns a new schema with the columns of s followed by those of o.
func (s *Schema) Concat(o *Schema) *Schema {
	cols := make([]Column, 0, len(s.Columns)+len(o.Columns))
	cols = append(cols, s.Columns...)
	cols = append(cols, o.Columns...)
	return &Schema{Columns: cols}
}

// Project returns a new schema with only the columns at the given indexes.
func (s *Schema) Project(idx []int) *Schema {
	cols := make([]Column, len(idx))
	for i, j := range idx {
		cols[i] = s.Columns[j]
	}
	return &Schema{Columns: cols}
}

// Equal reports whether two schemas have identical columns.
func (s *Schema) Equal(o *Schema) bool {
	if len(s.Columns) != len(o.Columns) {
		return false
	}
	for i := range s.Columns {
		if s.Columns[i] != o.Columns[i] {
			return false
		}
	}
	return true
}

// String renders the schema as "(t.a INT, t.b FLOAT)".
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, c := range s.Columns {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(c.QualifiedName())
		b.WriteByte(' ')
		b.WriteString(c.Kind.String())
	}
	b.WriteByte(')')
	return b.String()
}
