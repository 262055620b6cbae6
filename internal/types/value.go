// Package types defines the value (datum) system used throughout RankSQL:
// typed scalar values, comparison, hashing and formatting.
//
// A Value is 24 bytes: one 8-byte payload word, a string pointer and a
// kind tag, so a 5-column row fits in two cache lines and tuples copy
// cheaply through the executor.
package types

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"strings"
	"unsafe"
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
//
// The payload word n holds an INT's bits, a FLOAT's bits, a BOOL as 0/1
// or a TEXT's length; p points at a TEXT's bytes (unsafe.StringData), so
// the string stays reachable through the Value. Values are compared only
// with Equal and Compare: the zero-size func field makes Value, and every
// struct holding one, non-comparable, so no == or map key can compare
// string pointers instead of contents.
type Value struct {
	_    [0]func()
	p    *byte
	n    uint64
	kind Kind
}

// Null returns the NULL value.
func Null() Value { return Value{} }

// NewBool returns a boolean value.
func NewBool(b bool) Value {
	v := Value{kind: KindBool}
	if b {
		v.n = 1
	}
	return v
}

// NewInt returns an integer value.
func NewInt(i int64) Value { return Value{kind: KindInt, n: uint64(i)} }

// NewFloat returns a floating-point value.
func NewFloat(f float64) Value { return Value{kind: KindFloat, n: math.Float64bits(f)} }

// NewString returns a string value.
func NewString(s string) Value {
	return Value{kind: KindString, p: unsafe.StringData(s), n: uint64(len(s))}
}

// The payload as each kind reads it; callers have checked the kind.
func (v Value) i() int64   { return int64(v.n) }
func (v Value) f() float64 { return math.Float64frombits(v.n) }
func (v Value) s() string  { return unsafe.String(v.p, int(v.n)) }

// Kind reports the value's kind.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// Bool returns the boolean payload. It panics if the value is not a BOOL.
func (v Value) Bool() bool {
	if v.kind != KindBool {
		panic(fmt.Sprintf("types: Bool() on %s value", v.kind))
	}
	return v.n != 0
}

// Int returns the integer payload. It panics if the value is not an INT.
func (v Value) Int() int64 {
	if v.kind != KindInt {
		panic(fmt.Sprintf("types: Int() on %s value", v.kind))
	}
	return v.i()
}

// Float returns the float payload. It panics if the value is not a FLOAT.
func (v Value) Float() float64 {
	if v.kind != KindFloat {
		panic(fmt.Sprintf("types: Float() on %s value", v.kind))
	}
	return v.f()
}

// Str returns the string payload. It panics if the value is not a TEXT.
func (v Value) Str() string {
	if v.kind != KindString {
		panic(fmt.Sprintf("types: Str() on %s value", v.kind))
	}
	return v.s()
}

// AsFloat converts numeric values (INT, FLOAT, BOOL) to float64.
func (v Value) AsFloat() (float64, bool) {
	switch v.kind {
	case KindInt, KindBool:
		return float64(v.i()), true
	case KindFloat:
		return v.f(), true
	default:
		return 0, false
	}
}

// AsInt converts numeric values to int64 (floats are truncated).
func (v Value) AsInt() (int64, bool) {
	switch v.kind {
	case KindInt, KindBool:
		return v.i(), true
	case KindFloat:
		return int64(v.f()), true
	default:
		return 0, false
	}
}

// Truthy reports whether the value counts as true in a WHERE clause.
// NULL is not truthy; numbers are truthy when non-zero.
func (v Value) Truthy() bool {
	switch v.kind {
	case KindBool, KindInt, KindString:
		return v.n != 0
	case KindFloat:
		return v.f() != 0
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
	return strings.Compare(a.s(), b.s())
}

// Equal reports whether the two values compare equal.
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// canonicalBits is the key of a numeric value: its float64 bits, with −0
// taken as 0, so values that Compare equal share it (Compare reads every
// numeric kind as a float64).
func (v Value) canonicalBits() uint64 {
	f, _ := v.AsFloat()
	if f == 0 {
		f = 0 // −0 == 0
	}
	return math.Float64bits(f)
}

// Tags that open a value's encoding in Hash and AppendKey.
const (
	tagNull   = 0
	tagNumber = 1
	tagString = 2
)

// FNV-1a (64-bit) parameters, as in hash/fnv.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// Hash returns a stable hash of the value, suitable for hash joins.
// Values that compare equal hash equal: ints and equal-valued floats
// collide by hashing the float representation, and −0 hashes as 0. It is
// FNV-1a over the tag byte and then the little-endian float bits or the
// string's bytes.
func (v Value) Hash() uint64 {
	h := uint64(fnvOffset)
	switch v.kind {
	case KindNull:
		h = (h ^ tagNull) * fnvPrime
	case KindBool, KindInt, KindFloat:
		h = (h ^ tagNumber) * fnvPrime
		bits := v.canonicalBits()
		for i := 0; i < 8; i++ {
			h = (h ^ (bits >> (8 * i) & 0xff)) * fnvPrime
		}
	case KindString:
		h = (h ^ tagString) * fnvPrime
		s := v.s()
		for i := 0; i < len(s); i++ {
			h = (h ^ uint64(s[i])) * fnvPrime
		}
	}
	return h
}

// AppendKey appends a binary key of the value to dst: two values get the
// same key exactly when they Compare equal (NaN aside). Numeric kinds
// share the canonical float bits Hash uses; a string is length-prefixed,
// so the keys of consecutive values never run into each other.
func (v Value) AppendKey(dst []byte) []byte {
	switch v.kind {
	case KindBool, KindInt, KindFloat:
		dst = append(dst, tagNumber)
		return binary.LittleEndian.AppendUint64(dst, v.canonicalBits())
	case KindString:
		dst = append(dst, tagString)
		dst = binary.AppendUvarint(dst, v.n)
		return append(dst, v.s()...)
	default:
		return append(dst, tagNull)
	}
}

// String formats the value for display.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindBool:
		if v.n != 0 {
			return "true"
		}
		return "false"
	case KindInt:
		return strconv.FormatInt(v.i(), 10)
	case KindFloat:
		return strconv.FormatFloat(v.f(), 'g', -1, 64)
	case KindString:
		return v.s()
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
