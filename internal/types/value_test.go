package types

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestKindsAndAccessors(t *testing.T) {
	cases := []struct {
		v    Value
		kind Kind
		str  string
	}{
		{Null(), KindNull, "NULL"},
		{NewBool(true), KindBool, "true"},
		{NewBool(false), KindBool, "false"},
		{NewInt(-42), KindInt, "-42"},
		{NewFloat(2.5), KindFloat, "2.5"},
		{NewString("abc"), KindString, "abc"},
	}
	for _, c := range cases {
		if c.v.Kind() != c.kind {
			t.Errorf("%v: kind %v, want %v", c.v, c.v.Kind(), c.kind)
		}
		if c.v.String() != c.str {
			t.Errorf("%v: string %q, want %q", c.v, c.v.String(), c.str)
		}
	}
	if !Null().IsNull() || NewInt(0).IsNull() {
		t.Error("IsNull misbehaves")
	}
	if NewInt(7).Int() != 7 || NewFloat(1.5).Float() != 1.5 ||
		NewString("x").Str() != "x" || !NewBool(true).Bool() {
		t.Error("payload accessors misbehave")
	}
}

func TestAccessorPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"Bool":  func() { NewInt(1).Bool() },
		"Int":   func() { NewString("x").Int() },
		"Float": func() { NewInt(1).Float() },
		"Str":   func() { NewFloat(1).Str() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on wrong kind did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestNumericConversions(t *testing.T) {
	if f, ok := NewInt(3).AsFloat(); !ok || f != 3 {
		t.Error("int→float failed")
	}
	if f, ok := NewBool(true).AsFloat(); !ok || f != 1 {
		t.Error("bool→float failed")
	}
	if i, ok := NewFloat(3.9).AsInt(); !ok || i != 3 {
		t.Error("float→int should truncate")
	}
	if _, ok := NewString("x").AsFloat(); ok {
		t.Error("string→float should fail")
	}
}

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{NewInt(1), NewInt(2), -1},
		{NewInt(2), NewInt(2), 0},
		{NewFloat(2.5), NewInt(2), 1},
		{NewInt(2), NewFloat(2.0), 0}, // cross-kind numeric equality
		{NewBool(false), NewBool(true), -1},
		{NewString("a"), NewString("b"), -1},
		{Null(), NewInt(0), -1}, // NULL sorts first
		{Null(), Null(), 0},
		{NewInt(5), Null(), 1},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// TestCompareTotalOrder checks antisymmetry and transitivity on random
// triples with testing/quick.
func TestCompareTotalOrder(t *testing.T) {
	gen := func(x int64, f float64, s string, pick uint8) Value {
		switch pick % 4 {
		case 0:
			return NewInt(x % 50)
		case 1:
			return NewFloat(math.Trunc(f*100) / 10)
		case 2:
			return NewString(s)
		default:
			return NewBool(x%2 == 0)
		}
	}
	prop := func(x1, x2, x3 int64, f1, f2, f3 float64, s1, s2, s3 string, p1, p2, p3 uint8) bool {
		a, b, c := gen(x1, f1, s1, p1), gen(x2, f2, s2, p2), gen(x3, f3, s3, p3)
		if Compare(a, b) != -Compare(b, a) {
			return false
		}
		// Transitivity: a<=b, b<=c => a<=c.
		if Compare(a, b) <= 0 && Compare(b, c) <= 0 && Compare(a, c) > 0 {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestHashConsistency: equal values hash equal, across numeric kinds.
func TestHashConsistency(t *testing.T) {
	if NewInt(2).Hash() != NewFloat(2.0).Hash() {
		t.Error("2 and 2.0 must hash equal (they compare equal)")
	}
	prop := func(x int64) bool {
		return NewInt(x).Hash() == NewFloat(float64(x)).Hash() ||
			float64(x) != math.Trunc(float64(x)) // precision loss excuse
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
	if NewString("a").Hash() == NewString("b").Hash() {
		t.Error("suspicious string hash collision")
	}
}

func TestTruthy(t *testing.T) {
	truthy := []Value{NewBool(true), NewInt(1), NewFloat(0.1), NewString("x")}
	falsy := []Value{Null(), NewBool(false), NewInt(0), NewFloat(0), NewString("")}
	for _, v := range truthy {
		if !v.Truthy() {
			t.Errorf("%v should be truthy", v)
		}
	}
	for _, v := range falsy {
		if v.Truthy() {
			t.Errorf("%v should be falsy", v)
		}
	}
}

// goldenInputs are the values TestCompactLayoutGolden checks. goldenRows
// were recorded from the earlier 48-byte layout (separate int, float and
// string fields), so the compact one must reproduce them; only AsInt of a
// non-finite float is checked against the platform's own conversion.
var goldenInputs = []Value{
	Null(), NewBool(false), NewBool(true), NewInt(0), NewInt(1), NewInt(-1),
	NewInt(math.MinInt64), NewInt(math.MaxInt64), NewFloat(math.Copysign(0, -1)),
	NewFloat(math.Inf(1)), NewFloat(math.Inf(-1)), NewFloat(math.NaN()),
	NewFloat(math.SmallestNonzeroFloat64), NewString(""), NewString("héllo, 世界"),
}

// goldenRows holds, per goldenInputs entry: String, Kind, Truthy, AsFloat
// (bits, ok), AsInt (value, ok), Hash, and Compare against every input in
// order as one of "-0+".
var goldenRows = []struct {
	str     string
	kind    Kind
	truthy  bool
	fbits   uint64
	fok     bool
	i       int64
	iok     bool
	hash    uint64
	compare string
}{
	{"NULL", 0, false, 0x0, false, 0, false, 0xaf63bd4c8601b7df, "0--------------"},
	{"false", 1, false, 0x0, true, 0, true, 0x529a2cdc8ff533ac, "+0-0-++-0-+0---"},
	{"true", 1, true, 0x3ff0000000000000, true, 1, true, 0x50b0a3dc8e5526f1, "++0+0++-+-+0+--"},
	{"0", 2, false, 0x0, true, 0, true, 0x529a2cdc8ff533ac, "+0-0-++-0-+0---"},
	{"1", 2, true, 0x3ff0000000000000, true, 1, true, 0x50b0a3dc8e5526f1, "++0+0++-+-+0+--"},
	{"-1", 2, true, 0xbff0000000000000, true, -1, true, 0x50b023dc8e544d71, "+----0+---+0---"},
	{"-9223372036854775808", 2, true, 0xc3e0000000000000, true, math.MinInt64, true, 0x5079afdc8e25f8e5, "+-----0---+0---"},
	{"9223372036854775807", 2, true, 0x43e0000000000000, true, math.MaxInt64, true, 0x507a2fdc8e26d265, "+++++++0+-+0+--"},
	{"-0", 3, false, 0x8000000000000000, true, 0, true, 0x529a2cdc8ff533ac, "+0-0-++-0-+0---"},
	{"+Inf", 3, true, 0x7ff0000000000000, true, 0, true, 0x50b063dc8e54ba31, "+++++++++0+0+--"},
	{"-Inf", 3, true, 0xfff0000000000000, true, 0, true, 0x50afe3dc8e53e0b1, "+---------00---"},
	{"NaN", 3, true, 0x7ff8000000000001, true, 0, true, 0x74df74e59db00748, "+000000000000--"},
	{"5e-324", 3, true, 0x1, true, 0, true, 0x7194f3e59ae47dcd, "++-+-++-+-+00--"},
	{"", 4, false, 0x0, false, 0, false, 0xaf63bf4c8601bb45, "+++++++++++++0-"},
	{"héllo, 世界", 4, true, 0x0, false, 0, false, 0x46cd346f2784ff76, "++++++++++++++0"},
}

func TestCompactLayoutGolden(t *testing.T) {
	for i, v := range goldenInputs {
		g := goldenRows[i]
		if v.String() != g.str || v.Kind() != g.kind || v.Truthy() != g.truthy {
			t.Errorf("input %d: String/Kind/Truthy = %q/%v/%v, want %q/%v/%v",
				i, v.String(), v.Kind(), v.Truthy(), g.str, g.kind, g.truthy)
		}
		f, fok := v.AsFloat()
		if math.Float64bits(f) != g.fbits || fok != g.fok {
			t.Errorf("%s: AsFloat = %#x, %v, want %#x, %v", g.str, math.Float64bits(f), fok, g.fbits, g.fok)
		}
		wantI := g.i
		if math.IsInf(f, 0) || math.IsNaN(f) {
			wantI = int64(f) // conversion of a non-finite float is platform-defined
		}
		if n, iok := v.AsInt(); n != wantI || iok != g.iok {
			t.Errorf("%s: AsInt = %d, %v, want %d, %v", g.str, n, iok, wantI, g.iok)
		}
		if v.Hash() != g.hash {
			t.Errorf("%s: Hash = %#x, want %#x", g.str, v.Hash(), g.hash)
		}
		for j, w := range goldenInputs {
			if got := "-0+"[Compare(v, w)+1]; got != g.compare[j] {
				t.Errorf("Compare(%s, %s) = %c, want %c", g.str, goldenRows[j].str, got, g.compare[j])
			}
		}
		switch v.Kind() {
		case KindBool:
			if v.Bool() != (g.fbits != 0) {
				t.Errorf("%s: Bool() = %v", g.str, v.Bool())
			}
		case KindInt:
			if v.Int() != g.i {
				t.Errorf("%s: Int() = %d", g.str, v.Int())
			}
		case KindFloat:
			if math.Float64bits(v.Float()) != g.fbits {
				t.Errorf("%s: Float() bits = %#x", g.str, math.Float64bits(v.Float()))
			}
		case KindString:
			if v.Str() != g.str {
				t.Errorf("%s: Str() = %q", g.str, v.Str())
			}
		}
	}
}

// TestStringValuesCompareByContent: equal strings in different backing
// arrays are Equal, hash equal and share a key; the pointer is not the
// identity.
func TestStringValuesCompareByContent(t *testing.T) {
	a := NewString(string([]byte("héllo")))
	b := NewString(strings.Repeat("héllo", 2)[:len("héllo")])
	if unsafe.StringData(a.Str()) == unsafe.StringData(b.Str()) {
		t.Fatal("test needs two backing arrays")
	}
	if !Equal(a, b) || a.Hash() != b.Hash() || string(a.AppendKey(nil)) != string(b.AppendKey(nil)) {
		t.Errorf("equal strings from different arrays: Equal %v, hashes %#x/%#x", Equal(a, b), a.Hash(), b.Hash())
	}
	if Equal(a, NewString("hélla")) {
		t.Error("different strings compare equal")
	}
}

// TestAppendKeyMatchesCompare: two values share a key exactly when they
// Compare equal (NaN, equal to every number under Compare, aside), and a
// row's concatenated keys cannot collide across column boundaries.
func TestAppendKeyMatchesCompare(t *testing.T) {
	isNaN := func(v Value) bool { f, ok := v.AsFloat(); return ok && math.IsNaN(f) }
	for _, v := range goldenInputs {
		for _, w := range goldenInputs {
			if isNaN(v) || isNaN(w) {
				continue
			}
			same := string(v.AppendKey(nil)) == string(w.AppendKey(nil))
			if same != (Compare(v, w) == 0) {
				t.Errorf("%v vs %v: same key %v, Compare %d", v, w, same, Compare(v, w))
			}
		}
	}
	row := func(vs ...Value) string {
		var b []byte
		for _, v := range vs {
			b = v.AppendKey(b)
		}
		return string(b)
	}
	if row(NewString("ab"), NewString("c")) == row(NewString("a"), NewString("bc")) {
		t.Error("string keys run into each other")
	}
}
