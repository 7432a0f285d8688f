package encoding

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestAttrTypeString(t *testing.T) {
	if AttrUint64.String() != "uint64" || AttrString.String() != "string" {
		t.Error("AttrType.String wrong")
	}
	if AttrType(99).String() == "" {
		t.Error("unknown AttrType stringifies empty")
	}
}

func TestUint64RoundTripAndOrder(t *testing.T) {
	vals := []uint64{0, 1, 2, 100, 1 << 31, 1<<63 - 1, 1 << 63, math.MaxUint64}
	var prev []byte
	for _, v := range vals {
		enc, err := AttrUint64.EncodeValue(v)
		if err != nil {
			t.Fatalf("encode %d: %v", v, err)
		}
		got, err := AttrUint64.DecodeValue(enc)
		if err != nil || got.(uint64) != v {
			t.Fatalf("round trip %d -> %v (%v)", v, got, err)
		}
		if prev != nil && bytes.Compare(prev, enc) >= 0 {
			t.Fatalf("ordering violated at %d", v)
		}
		prev = enc
	}
}

func TestInt64Order(t *testing.T) {
	check := func(a, b int64) bool {
		ea, err1 := AttrInt64.EncodeValue(a)
		eb, err2 := AttrInt64.EncodeValue(b)
		if err1 != nil || err2 != nil {
			return false
		}
		da, _ := AttrInt64.DecodeValue(ea)
		if da.(int64) != a {
			return false
		}
		return (a < b) == (bytes.Compare(ea, eb) < 0)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFloat64Order(t *testing.T) {
	vals := []float64{math.Inf(-1), -1e300, -3.5, -0.0001, 0, 0.0001, 1, 2.5, 1e300, math.Inf(1)}
	var prev []byte
	for _, v := range vals {
		enc, err := AttrFloat64.EncodeValue(v)
		if err != nil {
			t.Fatalf("encode %g: %v", v, err)
		}
		got, err := AttrFloat64.DecodeValue(enc)
		if err != nil || got.(float64) != v {
			t.Fatalf("round trip %g -> %v (%v)", v, got, err)
		}
		if prev != nil && bytes.Compare(prev, enc) >= 0 {
			t.Fatalf("ordering violated at %g", v)
		}
		prev = enc
	}
	check := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		ea, _ := AttrFloat64.EncodeValue(a)
		eb, _ := AttrFloat64.EncodeValue(b)
		if a == b {
			return bytes.Equal(ea, eb)
		}
		return (a < b) == (bytes.Compare(ea, eb) < 0)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStringOrderAndRoundTrip(t *testing.T) {
	vals := []string{"", "a", "a\x00", "a\x00b", "ab", "b", "red", "redd", "white"}
	var encs [][]byte
	for _, v := range vals {
		enc, err := AttrString.EncodeValue(v)
		if err != nil {
			t.Fatalf("encode %q: %v", v, err)
		}
		got, err := AttrString.DecodeValue(enc)
		if err != nil || got.(string) != v {
			t.Fatalf("round trip %q -> %v (%v)", v, got, err)
		}
		encs = append(encs, enc)
	}
	for i := 1; i < len(encs); i++ {
		if bytes.Compare(encs[i-1], encs[i]) >= 0 {
			t.Fatalf("ordering violated: %q >= %q", vals[i-1], vals[i])
		}
	}
	check := func(a, b string) bool {
		ea, _ := AttrString.EncodeValue(a)
		eb, _ := AttrString.EncodeValue(b)
		if a == b {
			return bytes.Equal(ea, eb)
		}
		return (a < b) == (bytes.Compare(ea, eb) < 0)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

// TestStringPrefixFree: a shorter encoded string must never be a prefix of a
// longer one in a way that confuses SplitValue.
func TestStringSplitValue(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		n := rng.Intn(10)
		b := make([]byte, n)
		for j := range b {
			b[j] = byte(rng.Intn(256))
		}
		s := string(b)
		enc, err := AttrString.EncodeValue(s)
		if err != nil {
			t.Fatal(err)
		}
		tail := []byte("C5$")
		key := append(append([]byte(nil), enc...), tail...)
		val, rest, err := AttrString.SplitValue(key)
		if err != nil {
			t.Fatalf("SplitValue(%q): %v", s, err)
		}
		if !bytes.Equal(val, enc) || !bytes.Equal(rest, tail) {
			t.Fatalf("SplitValue(%q) split wrongly", s)
		}
	}
	if _, _, err := AttrString.SplitValue([]byte("unterminated")); err == nil {
		t.Error("SplitValue on unterminated string succeeded")
	}
	if _, _, err := AttrUint64.SplitValue([]byte("shrt")); err == nil {
		t.Error("SplitValue on short uint64 succeeded")
	}
}

func TestTypeMismatches(t *testing.T) {
	if _, err := AttrUint64.EncodeValue("x"); err == nil {
		t.Error("uint64 encode of string succeeded")
	}
	if _, err := AttrUint64.EncodeValue(-1); err == nil {
		t.Error("uint64 encode of negative int succeeded")
	}
	if _, err := AttrInt64.EncodeValue("x"); err == nil {
		t.Error("int64 encode of string succeeded")
	}
	if _, err := AttrFloat64.EncodeValue(1); err == nil {
		t.Error("float64 encode of int succeeded")
	}
	if _, err := AttrString.EncodeValue(1); err == nil {
		t.Error("string encode of int succeeded")
	}
	if _, err := AttrUint64.DecodeValue([]byte{1}); err == nil {
		t.Error("uint64 decode of 1 byte succeeded")
	}
	if _, err := AttrType(99).EncodeValue(1); err == nil {
		t.Error("unknown type encode succeeded")
	}
}

func TestIntConvenienceForms(t *testing.T) {
	// int and int64 are both accepted for the integer attribute types.
	a, err := AttrUint64.EncodeValue(50)
	if err != nil {
		t.Fatal(err)
	}
	b, err := AttrUint64.EncodeValue(uint64(50))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("int and uint64 encode differently")
	}
	c, err := AttrInt64.EncodeValue(-5)
	if err != nil {
		t.Fatal(err)
	}
	d, err := AttrInt64.EncodeValue(int64(-5))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(c, d) {
		t.Error("int and int64 encode differently")
	}
}

func TestBuildSplitKey(t *testing.T) {
	attr, err := AttrUint64.EncodeValue(uint64(50))
	if err != nil {
		t.Fatal(err)
	}
	path := []PathEntry{
		{Code: MustParseCode("C1"), OID: 7},
		{Code: MustParseCode("C2.A.A"), OID: 12},
		{Code: MustParseCode("C5.A"), OID: 123},
	}
	key := BuildKey(attr, path)
	gotAttr, gotPath, err := SplitKey(AttrUint64, key)
	if err != nil {
		t.Fatalf("SplitKey: %v", err)
	}
	if !bytes.Equal(gotAttr, attr) {
		t.Error("attr mismatch")
	}
	if len(gotPath) != 3 {
		t.Fatalf("path length %d, want 3", len(gotPath))
	}
	for i := range path {
		if gotPath[i] != path[i] {
			t.Errorf("path[%d] = %+v, want %+v", i, gotPath[i], path[i])
		}
	}
}

// TestKeyOrderingClustersPaths verifies the paper's clustering claims from
// Section 3.2.2: entries for the same terminal object sort together, and
// within those, entries for the same mid-path object sort together.
func TestKeyOrderingClustersPaths(t *testing.T) {
	attr, _ := AttrUint64.EncodeValue(uint64(50))
	c1, c2, c5 := MustParseCode("C1"), MustParseCode("C2"), MustParseCode("C5")
	mk := func(e, c, v OID) []byte {
		return BuildKey(attr, []PathEntry{{c1, e}, {c2, c}, {c5, v}})
	}
	keys := [][]byte{
		mk(1, 10, 100), mk(1, 10, 101), mk(1, 11, 100), mk(2, 10, 100),
	}
	for i := 1; i < len(keys); i++ {
		if bytes.Compare(keys[i-1], keys[i]) >= 0 {
			t.Fatalf("expected clustering order violated at %d", i)
		}
	}
	// All employee-1 entries fall in the contiguous range
	// [attr‖C1$1, attr‖C1$2).
	lo := BuildKey(attr, []PathEntry{{c1, 1}})
	hi := BuildKey(attr, []PathEntry{{c1, 2}})
	for i, k := range keys[:3] {
		if bytes.Compare(k, lo) < 0 || bytes.Compare(k, hi) >= 0 {
			t.Errorf("key %d escaped employee-1 cluster", i)
		}
	}
	if bytes.Compare(keys[3], hi) < 0 {
		t.Error("employee-2 key inside employee-1 cluster")
	}
}

// TestSeparatorOrder checks the byte-ordering facts the scheme depends on
// ("'$' is lower lexicographically than A...", Section 3.2.2).
func TestSeparatorOrder(t *testing.T) {
	if !(SepByte < SepSuccByte && SepSuccByte < LevelByte && LevelByte < SubtreeEndByte && SubtreeEndByte < '0') {
		t.Fatal("separator byte ordering broken")
	}
	// A key for class X sorts before keys of X's descendants, which sort
	// before X's subtree end.
	attr, _ := AttrUint64.EncodeValue(uint64(1))
	x := MustParseCode("C5.A")
	child, _ := x.Child("B")
	keyX := BuildKey(attr, []PathEntry{{x, 5}})
	keyChild := BuildKey(attr, []PathEntry{{child, 5}})
	end := append(append([]byte(nil), attr...), []byte(x.SubtreeEnd())...)
	if !(bytes.Compare(keyX, keyChild) < 0 && bytes.Compare(keyChild, end) < 0) {
		t.Fatal("subtree clustering order broken")
	}
}

func TestSplitPathErrors(t *testing.T) {
	bad := [][]byte{
		[]byte("$"),                    // no code
		[]byte("C5"),                   // no separator
		[]byte("C5$ab"),                // truncated oid
		[]byte("C5.$\x00\x00\x00\x00"), // invalid code
	}
	for _, b := range bad {
		if _, err := SplitPath(b); err == nil {
			t.Errorf("SplitPath(%q) succeeded, want error", b)
		}
	}
	if p, err := SplitPath(nil); err != nil || len(p) != 0 {
		t.Error("SplitPath(nil) should be empty and ok")
	}
}

func TestPrefixEnd(t *testing.T) {
	p := []byte("abc")
	e := PrefixEnd(p)
	if !bytes.Equal(e, []byte{'a', 'b', 'c', 0xFF}) {
		t.Fatalf("PrefixEnd = %v", e)
	}
	// Must not alias the input.
	e[0] = 'z'
	if p[0] != 'a' {
		t.Fatal("PrefixEnd aliases its input")
	}
}

// TestQuickKeyRoundTrip round-trips random composite keys.
func TestQuickKeyRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	codes := randomCodeForest(t, 50, 5)
	for i := 0; i < 1000; i++ {
		attrVal := rng.Uint64()
		attr, _ := AttrUint64.EncodeValue(attrVal)
		n := 1 + rng.Intn(4)
		path := make([]PathEntry, n)
		for j := range path {
			path[j] = PathEntry{Code: codes[rng.Intn(len(codes))], OID: OID(rng.Uint32())}
		}
		key := BuildKey(attr, path)
		gotAttr, gotPath, err := SplitKey(AttrUint64, key)
		if err != nil {
			t.Fatalf("SplitKey: %v", err)
		}
		v, _ := AttrUint64.DecodeValue(gotAttr)
		if v.(uint64) != attrVal {
			t.Fatal("attr mismatch")
		}
		if len(gotPath) != n {
			t.Fatalf("path length %d, want %d", len(gotPath), n)
		}
		for j := range path {
			if gotPath[j] != path[j] {
				t.Fatalf("path[%d] mismatch", j)
			}
		}
	}
}

// FuzzAppendSplitPath feeds arbitrary bytes through one long-lived
// CodeInterner, as a scan's pooled scratch keeps one across queries. A split
// never panics, agrees with the interner-free split, and re-encodes to its
// input when it succeeds; and whatever garbage the interner has seen, it
// interns a code exactly as ParseCode parses it — the same Code for valid
// input, an error for invalid.
func FuzzAppendSplitPath(f *testing.F) {
	var ci CodeInterner
	for _, seed := range [][]byte{
		BuildKey(nil, []PathEntry{{Code: "C1", OID: 1}}),
		BuildKey(nil, []PathEntry{{Code: "C1.B", OID: 7}, {Code: "C2", OID: 0xFFFFFFFF}}),
		nil,
		[]byte("$"),
		[]byte("C1$\x00\x00\x00"),
		[]byte("C1.$\x00\x00\x00\x01"),
		[]byte("C10$\x00\x00\x00\x01"),
		[]byte("C1..B$\x00\x00\x00\x01"),
		[]byte("\xff$\x00\x00\x00\x00"),
		[]byte("C1.B"),
	} {
		f.Add(seed)
	}
	intern := func(t *testing.T, raw []byte) {
		got, gerr := ci.Intern(raw)
		want, werr := ParseCode(string(raw))
		if (gerr == nil) != (werr == nil) || got != want {
			t.Fatalf("Intern(%q) = %q, %v; ParseCode = %q, %v", raw, got, gerr, want, werr)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		path, err := AppendSplitPath(nil, data, &ci)
		plain, perr := AppendSplitPath(nil, data, nil)
		if (err == nil) != (perr == nil) {
			t.Fatalf("%q: interned split err %v, plain split err %v", data, err, perr)
		}
		if err == nil {
			if !slices.Equal(path, plain) {
				t.Fatalf("%q: interned split %v, plain split %v", data, path, plain)
			}
			if got := AppendKey(nil, nil, path); !bytes.Equal(got, data) {
				t.Fatalf("%q split to %v, which re-encodes to %q", data, path, got)
			}
		}
		intern(t, data)
		for _, raw := range bytes.Split(data, []byte{SepByte}) {
			intern(t, raw)
		}
	})
}
