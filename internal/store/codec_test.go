package store

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"
)

// TestCodecValueRoundTrip: every type the store accepts decodes to the type
// it was written as, except uint, which the store keeps as uint64.
func TestCodecValueRoundTrip(t *testing.T) {
	cases := []struct{ in, want any }{
		{46, 46},
		{-7, -7},
		{uint(9), uint64(9)},
		{uint64(math.MaxUint64), uint64(math.MaxUint64)},
		{int64(-3), int64(-3)},
		{1.5, 1.5},
		{math.Inf(-1), math.Inf(-1)},
		{"", ""},
		{"Red\x00Blue", "Red\x00Blue"},
		{OID(0xDEADBEEF), OID(0xDEADBEEF)},
		{[]OID{}, []OID{}},
		{[]OID{1, 2, 1 << 31}, []OID{1, 2, 1 << 31}},
	}
	for _, c := range cases {
		b, err := AppendValue(nil, c.in)
		if err != nil {
			t.Fatalf("AppendValue(%T %v): %v", c.in, c.in, err)
		}
		d := NewDecoder(b)
		got := d.Value()
		if d.Err() != nil || d.Len() != 0 {
			t.Fatalf("Value(%T %v): err %v, %d bytes left", c.in, c.in, d.Err(), d.Len())
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Fatalf("round trip of %T %v = %T %v, want %T %v", c.in, c.in, got, got, c.want, c.want)
		}
	}
	if _, err := AppendValue(nil, int32(1)); err == nil {
		t.Fatal("AppendValue accepted an int32, which the store rejects")
	}
}

// TestCodecSnapshotV2Bytes pins the value encoding to the bytes snapshot
// format v2 wrote before the wire and the log shared the codec, so those
// snapshots keep loading.
func TestCodecSnapshotV2Bytes(t *testing.T) {
	cases := []struct {
		v    any
		want []byte
	}{
		{300, []byte{0, 0xAC, 0x02}},
		{uint64(1), []byte{1, 1}},
		{int64(2), []byte{2, 2}},
		{1.0, []byte{3, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0xF8, 0x3F}},
		{"ab", []byte{4, 2, 'a', 'b'}},
		{OID(258), []byte{5, 0, 0, 1, 2}},
		{[]OID{1, 2}, []byte{6, 2, 0, 0, 0, 1, 0, 0, 0, 2}},
	}
	for _, c := range cases {
		got, err := AppendValue(nil, c.v)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, c.want) {
			t.Errorf("AppendValue(%T %v) = % x, want % x", c.v, c.v, got, c.want)
		}
	}
}

// TestCodecOpRoundTrip: every mutation kind round-trips, and an insert's
// attributes encode in name order, whatever order the map iterates in.
func TestCodecOpRoundTrip(t *testing.T) {
	ops := []Op{
		{Kind: KindInsert, OID: 7, Class: "Automobile", Attrs: Attrs{
			"Color": "Red", "Age": uint64(3), "N": 4, "I": int64(-5), "F": 1.5, "Ref": OID(2), "Refs": []OID{1, 2}}},
		{Kind: KindInsert, Class: "Employee", Attrs: Attrs{}},
		{Kind: KindSet, OID: 9, Attr: "Color", Value: "Blue"},
		{Kind: KindDelete, OID: 12},
	}
	var b []byte
	for i := range ops {
		var err error
		if b, err = AppendOp(b, &ops[i]); err != nil {
			t.Fatal(err)
		}
	}
	d := NewDecoder(b)
	for i, want := range ops {
		if got := d.Op(); !reflect.DeepEqual(got, want) {
			t.Fatalf("op %d: got %+v, want %+v", i, got, want)
		}
	}
	if d.Err() != nil || d.Len() != 0 {
		t.Fatalf("after the ops: err %v, %d bytes left", d.Err(), d.Len())
	}

	attrs := Attrs{}
	for i := 0; i < 40; i++ { // more names than AppendAttrs keeps on its stack
		attrs[fmt.Sprintf("a%02d", 39-i)] = i
	}
	first, err := AppendAttrs(nil, attrs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		again, _ := AppendAttrs(nil, attrs)
		if !bytes.Equal(again, first) {
			t.Fatal("equal attribute maps encoded to different bytes")
		}
	}
	d = NewDecoder(first)
	d.Count()
	if name := d.Str(); name != "a00" {
		t.Fatalf("first encoded name %q, want a00", name)
	}
	if _, err := AppendOp(nil, &Op{Kind: 9}); err == nil {
		t.Fatal("AppendOp accepted an unknown kind")
	}
}

// TestCodecRejects: damaged bytes fail with ErrMalformed, never a panic, and
// the first failure sticks.
func TestCodecRejects(t *testing.T) {
	cases := map[string][]byte{
		"empty":                {},
		"unknown kind":         {9, 0, 0, 0, 1},
		"short oid":            {byte(KindDelete), 0, 0, 1},
		"unknown value tag":    {byte(KindSet), 0, 0, 0, 1, 1, 'A', 200},
		"truncated string":     {byte(KindSet), 0, 0, 0, 1, 5, 'A'},
		"hostile attr count":   {byte(KindInsert), 0, 0, 0, 0, 1, 'C', 0xFF, 0xFF, 0xFF, 0x7F},
		"hostile oid count":    {byte(KindSet), 0, 0, 0, 1, 1, 'R', tagOIDs, 0xFF, 0x01},
		"short oid list":       {byte(KindSet), 0, 0, 0, 1, 1, 'R', tagOIDs, 2, 0, 0, 0, 1},
		"unterminated varint":  {byte(KindSet), 0, 0, 0, 1, 1, 'A', tagUint64, 0x80},
		"missing value":        {byte(KindSet), 0, 0, 0, 1, 1, 'A'},
		"attr name overruns":   {byte(KindInsert), 0, 0, 0, 0, 1, 'C', 1, 9, 'x'},
		"class length overrun": {byte(KindInsert), 0, 0, 0, 0, 0xFF, 0x7F},
	}
	for name, b := range cases {
		d := NewDecoder(b)
		d.Op()
		if !errors.Is(d.Err(), ErrMalformed) {
			t.Errorf("%s: err = %v, want ErrMalformed", name, d.Err())
			continue
		}
		if d.Len() != 0 || d.Byte() != 0 || d.Uvarint() != 0 || d.Value() != nil {
			t.Errorf("%s: reads after a failure returned data", name)
		}
	}
}

// FuzzDecodeOp: the decoder takes arbitrary bytes without panicking or
// decoding more list elements than there are bytes, and whatever it accepts
// re-encodes to a sequence that decodes to the same operations.
func FuzzDecodeOp(f *testing.F) {
	for _, op := range []Op{
		{Kind: KindInsert, Class: "Automobile", Attrs: Attrs{"Color": "Red", "N": 4, "Refs": []OID{1, 2}}},
		{Kind: KindSet, OID: 7, Attr: "Age", Value: uint64(46)},
		{Kind: KindDelete, OID: 7},
	} {
		b, err := AppendOp(nil, &op)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte{byte(KindSet), 0, 0, 0, 1, 1, 'R', tagOIDs, 0xFF, 0xFF, 0xFF, 0x7F})
	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewDecoder(data)
		var ops []Op
		elems := 0
		for d.Len() > 0 {
			op := d.Op()
			if d.Err() != nil {
				return
			}
			elems += 1 + len(op.Attrs)
			if oids, ok := op.Value.([]OID); ok {
				elems += len(oids)
			}
			ops = append(ops, op)
		}
		if elems > len(data) {
			t.Fatalf("decoded %d list elements from %d bytes", elems, len(data))
		}
		var enc []byte
		for i := range ops {
			var err error
			if enc, err = AppendOp(enc, &ops[i]); err != nil {
				t.Fatalf("re-encoding decoded op: %v", err)
			}
		}
		d = NewDecoder(enc)
		for i := range ops {
			// NaN != NaN: compare the printed forms.
			if got := d.Op(); fmt.Sprintf("%#v", got) != fmt.Sprintf("%#v", ops[i]) {
				t.Fatalf("op %d changed in a round trip:\n got %#v\nwant %#v", i, got, ops[i])
			}
		}
	})
}
