// Package types defines the value (datum) system used throughout RankSQL:
// typed scalar values, comparison, hashing and formatting.
//
// Values are deliberately small (a kind tag plus unboxed numeric fields and
// a string) so that tuples can be copied cheaply by the executor.
package types

import (
	"fmt"
	"hash/fnv"
	"math"
	"strconv"
	"strings"
)

// Kind enumerates the scalar types supported by the engine.
type Kind uint8

// Supported value kinds.
const (
	KindNull Kind = iota
	KindBool
	KindInt
	KindFloat
	KindString
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindBool:
		return "BOOL"
	case KindInt:
		return "INT"
	case KindFloat:
		return "FLOAT"
	case KindString:
		return "TEXT"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is a single scalar datum. The zero Value is SQL NULL.
type Value struct {
	kind Kind
	i    int64 // KindInt and KindBool (0/1)
	f    float64
	s    string
}

// Null returns the NULL value.
func Null() Value { return Value{} }

// NewBool returns a boolean value.
func NewBool(b bool) Value {
	v := Value{kind: KindBool}
	if b {
		v.i = 1
	}
	return v
}

// NewInt returns an integer value.
func NewInt(i int64) Value { return Value{kind: KindInt, i: i} }

// NewFloat returns a floating-point value.
func NewFloat(f float64) Value { return Value{kind: KindFloat, f: f} }

// NewString returns a string value.
func NewString(s string) Value { return Value{kind: KindString, s: s} }

// Kind reports the value's kind.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// Bool returns the boolean payload. It panics if the value is not a BOOL.
func (v Value) Bool() bool {
	if v.kind != KindBool {
		panic(fmt.Sprintf("types: Bool() on %s value", v.kind))
	}
	return v.i != 0
}

// Int returns the integer payload. It panics if the value is not an INT.
func (v Value) Int() int64 {
	if v.kind != KindInt {
		panic(fmt.Sprintf("types: Int() on %s value", v.kind))
	}
	return v.i
}

// Float returns the float payload. It panics if the value is not a FLOAT.
func (v Value) Float() float64 {
	if v.kind != KindFloat {
		panic(fmt.Sprintf("types: Float() on %s value", v.kind))
	}
	return v.f
}

// Str returns the string payload. It panics if the value is not a TEXT.
func (v Value) Str() string {
	if v.kind != KindString {
		panic(fmt.Sprintf("types: Str() on %s value", v.kind))
	}
	return v.s
}

// AsFloat converts numeric values (INT, FLOAT, BOOL) to float64.
func (v Value) AsFloat() (float64, bool) {
	switch v.kind {
	case KindInt:
		return float64(v.i), true
	case KindFloat:
		return v.f, true
	case KindBool:
		return float64(v.i), true
	default:
		return 0, false
	}
}

// AsInt converts numeric values to int64 (floats are truncated).
func (v Value) AsInt() (int64, bool) {
	switch v.kind {
	case KindInt:
		return v.i, true
	case KindFloat:
		return int64(v.f), true
	case KindBool:
		return v.i, true
	default:
		return 0, false
	}
}

// Truthy reports whether the value counts as true in a WHERE clause.
// NULL is not truthy; numbers are truthy when non-zero.
func (v Value) Truthy() bool {
	switch v.kind {
	case KindBool:
		return v.i != 0
	case KindInt:
		return v.i != 0
	case KindFloat:
		return v.f != 0
	case KindString:
		return v.s != ""
	default:
		return false
	}
}

// numericKind reports whether k is INT, FLOAT or BOOL.
func numericKind(k Kind) bool {
	return k == KindInt || k == KindFloat || k == KindBool
}

// Compare orders two values. NULL sorts before everything; numeric kinds
// compare by numeric value; otherwise values of different kinds compare by
// kind tag so that the ordering is total. Returns -1, 0, or +1.
func Compare(a, b Value) int {
	if a.kind == KindNull || b.kind == KindNull {
		switch {
		case a.kind == b.kind:
			return 0
		case a.kind == KindNull:
			return -1
		default:
			return 1
		}
	}
	if numericKind(a.kind) && numericKind(b.kind) {
		af, _ := a.AsFloat()
		bf, _ := b.AsFloat()
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		default:
			return 0
		}
	}
	if a.kind != b.kind {
		if a.kind < b.kind {
			return -1
		}
		return 1
	}
	// Same non-numeric kind: only strings remain.
	switch {
	case a.s < b.s:
		return -1
	case a.s > b.s:
		return 1
	default:
		return 0
	}
}

// Equal reports whether the two values compare equal.
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// Hash returns a stable hash of the value, suitable for hash joins.
// Values that compare equal hash equal: ints and equal-valued floats
// collide by hashing the float representation, and −0 hashes as 0.
func (v Value) Hash() uint64 {
	h := fnv.New64a()
	var buf [9]byte
	switch v.kind {
	case KindNull:
		buf[0] = 0
		h.Write(buf[:1])
	case KindBool, KindInt, KindFloat:
		f, _ := v.AsFloat()
		if f == 0 {
			f = 0 // −0 == 0, so both hash as +0
		}
		buf[0] = 1
		bits := math.Float64bits(f)
		for i := 0; i < 8; i++ {
			buf[1+i] = byte(bits >> (8 * i))
		}
		h.Write(buf[:9])
	case KindString:
		buf[0] = 2
		h.Write(buf[:1])
		h.Write([]byte(v.s))
	}
	return h.Sum64()
}

// String formats the value for display.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindBool:
		if v.i != 0 {
			return "true"
		}
		return "false"
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindString:
		return v.s
	default:
		return "?"
	}
}

// ParseCell parses a textual cell (a CSV field) into a value of the given
// kind. Empty cells and the literal "null" (any case) become NULL. It is
// the single conversion used by every CSV ingest path, so a sharded
// router partitioning on a parsed cell hashes exactly the value the shard
// will store.
func ParseCell(cell string, kind Kind) (Value, error) {
	c := strings.TrimSpace(cell)
	if c == "" || strings.EqualFold(c, "null") {
		return Null(), nil
	}
	switch kind {
	case KindInt:
		n, err := strconv.ParseInt(c, 10, 64)
		if err != nil {
			return Null(), err
		}
		return NewInt(n), nil
	case KindFloat:
		f, err := strconv.ParseFloat(c, 64)
		if err != nil {
			return Null(), err
		}
		return NewFloat(f), nil
	case KindBool:
		b, err := strconv.ParseBool(strings.ToLower(c))
		if err != nil {
			return Null(), err
		}
		return NewBool(b), nil
	default:
		return NewString(cell), nil
	}
}
