package store

// The byte encoding of store values and mutations — the only one. The wire
// protocol (internal/server), the write-ahead log record and the database
// snapshot all carry attribute values, objects and mutations in exactly this
// form, so one encoder and one decoder serve all three:
//
//	value  := tag payload
//	          0 int      uvarint(uint64(x))
//	          1 uint64   uvarint
//	          2 int64    uvarint(uint64(x))
//	          3 float64  uvarint(Float64bits)
//	          4 string   uvarint(len) bytes
//	          5 OID      4 bytes, big-endian
//	          6 []OID    uvarint(n) (4 bytes, big-endian)*
//	attrs  := uvarint(n) (string value)*   // names in ascending order
//	op     := kind(1) oid(4) body
//	body   := class attrs                  // insert (oid 0 until assigned)
//	        | attr value                   // set
//	        |                              // delete
//
// Strings and byte runs are uvarint-length-prefixed. The tags and payloads
// are those of snapshot format v2, so snapshots written before the codec was
// shared still decode. Decoding never trusts a count: every list element
// occupies at least one byte, so a count above the bytes left is damage, and
// allocation is sized by min(count, Prealloc).

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
)

// ErrMalformed reports bytes the Decoder cannot read: a truncated run, a
// count above the bytes left, or an unknown value tag or operation kind.
var ErrMalformed = errors.New("store: malformed encoding")

// Prealloc bounds what a decoder allocates ahead of a count it read from
// untrusted bytes; larger lists still decode, growing as elements arrive. It
// is large enough that reopening a snapshot of tens of thousands of objects
// sizes its object list once.
const Prealloc = 1 << 16

// Value tags.
const (
	tagInt = iota
	tagUint64
	tagInt64
	tagFloat64
	tagString
	tagOID
	tagOIDs
)

// OpKind identifies one mutation kind. The values are written to the log and
// the wire: never renumber them.
type OpKind uint8

const (
	// KindInsert stores a new object.
	KindInsert OpKind = 1
	// KindSet updates one attribute of an existing object.
	KindSet OpKind = 2
	// KindDelete removes an existing object.
	KindDelete OpKind = 3
)

// String implements fmt.Stringer.
func (k OpKind) String() string {
	switch k {
	case KindInsert:
		return "insert"
	case KindSet:
		return "set"
	case KindDelete:
		return "delete"
	}
	return fmt.Sprintf("OpKind(%d)", uint8(k))
}

// Op is one mutation of the object base. Exactly the fields of its kind are
// meaningful: Class and Attrs for KindInsert; OID, Attr, and Value for
// KindSet; OID for KindDelete. A logged insert also carries the OID it was
// assigned.
type Op struct {
	Kind  OpKind
	Class string
	Attrs Attrs
	OID   OID
	Attr  string
	Value any
}

// AppendString appends a length-prefixed string.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendBytes appends a length-prefixed byte run.
func AppendBytes(b, p []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

// AppendOID appends an OID as four big-endian bytes.
func AppendOID(b []byte, oid OID) []byte {
	return binary.BigEndian.AppendUint32(b, uint32(oid))
}

// AppendValue appends one tagged attribute value. It accepts exactly the
// types the store does: int, uint (written as uint64), uint64, int64,
// float64, string, OID and []OID.
func AppendValue(b []byte, v any) ([]byte, error) {
	switch x := v.(type) {
	case int:
		b = append(b, tagInt)
		return binary.AppendUvarint(b, uint64(x)), nil
	case uint:
		b = append(b, tagUint64)
		return binary.AppendUvarint(b, uint64(x)), nil
	case uint64:
		b = append(b, tagUint64)
		return binary.AppendUvarint(b, x), nil
	case int64:
		b = append(b, tagInt64)
		return binary.AppendUvarint(b, uint64(x)), nil
	case float64:
		b = append(b, tagFloat64)
		return binary.AppendUvarint(b, math.Float64bits(x)), nil
	case string:
		b = append(b, tagString)
		return AppendString(b, x), nil
	case OID:
		b = append(b, tagOID)
		return AppendOID(b, x), nil
	case []OID:
		b = append(b, tagOIDs)
		b = binary.AppendUvarint(b, uint64(len(x)))
		for _, o := range x {
			b = AppendOID(b, o)
		}
		return b, nil
	}
	return nil, fmt.Errorf("store: cannot encode attribute value of type %T", v)
}

// AppendAttrs appends an attribute assignment, names in ascending order so
// equal assignments encode to equal bytes.
func AppendAttrs(b []byte, attrs Attrs) ([]byte, error) {
	var buf [16]string
	names := buf[:0]
	for name := range attrs {
		names = append(names, name)
	}
	slices.Sort(names)
	b = binary.AppendUvarint(b, uint64(len(names)))
	for _, name := range names {
		b = AppendString(b, name)
		var err error
		if b, err = AppendValue(b, attrs[name]); err != nil {
			return nil, fmt.Errorf("attribute %q: %w", name, err)
		}
	}
	return b, nil
}

// AppendOp appends one mutation: kind, OID, body.
func AppendOp(b []byte, op *Op) ([]byte, error) {
	b = AppendOID(append(b, byte(op.Kind)), op.OID)
	return AppendOpBody(b, op)
}

// AppendOpBody appends the part of a mutation after its kind and OID — the
// write path encodes it before the OID of an insert is assigned.
func AppendOpBody(b []byte, op *Op) ([]byte, error) {
	switch op.Kind {
	case KindInsert:
		return AppendAttrs(AppendString(b, op.Class), op.Attrs)
	case KindSet:
		return AppendValue(AppendString(b, op.Attr), op.Value)
	case KindDelete:
		return b, nil
	}
	return nil, fmt.Errorf("store: cannot encode operation kind %d", uint8(op.Kind))
}

// Decoder reads the encoding from a byte slice. The first failure sticks:
// every later read returns a zero value, and Err reports the failure.
type Decoder struct {
	b   []byte
	err error
}

// NewDecoder returns a Decoder over b. Byte runs it returns are views of b.
func NewDecoder(b []byte) Decoder { return Decoder{b: b} }

// Err returns the first failure, wrapping ErrMalformed.
func (d *Decoder) Err() error { return d.err }

// Len returns the number of bytes left.
func (d *Decoder) Len() int { return len(d.b) }

// Rest returns the bytes left.
func (d *Decoder) Rest() []byte { return d.b }

func (d *Decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", ErrMalformed, fmt.Sprintf(format, args...))
		d.b = nil
	}
}

// Skip consumes n bytes.
func (d *Decoder) Skip(n int) { d.take(uint64(n)) }

func (d *Decoder) take(n uint64) []byte {
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.b)) {
		d.fail("%d-byte run, %d bytes left", n, len(d.b))
		return nil
	}
	p := d.b[:n:n]
	d.b = d.b[n:]
	return p
}

// Byte reads one byte.
func (d *Decoder) Byte() byte {
	if p := d.take(1); p != nil {
		return p[0]
	}
	return 0
}

// U32 reads four big-endian bytes.
func (d *Decoder) U32() uint32 {
	if p := d.take(4); p != nil {
		return binary.BigEndian.Uint32(p)
	}
	return 0
}

// OID reads an OID.
func (d *Decoder) OID() OID { return OID(d.U32()) }

// Uvarint reads an unsigned varint.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("bad varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

// Bytes reads a length-prefixed byte run as a view of the input.
func (d *Decoder) Bytes() []byte { return d.take(d.Uvarint()) }

// Str reads a length-prefixed string.
func (d *Decoder) Str() string { return string(d.Bytes()) }

// Count reads a list length, failing when it exceeds the bytes left.
func (d *Decoder) Count() int {
	n := d.Uvarint()
	if n > uint64(len(d.b)) {
		d.fail("count %d, %d bytes left", n, len(d.b))
		return 0
	}
	return int(n)
}

// Value reads one tagged attribute value.
func (d *Decoder) Value() any {
	tag := d.Byte()
	if d.err != nil {
		return nil
	}
	switch tag {
	case tagInt:
		return int(d.Uvarint())
	case tagUint64:
		return d.Uvarint()
	case tagInt64:
		return int64(d.Uvarint())
	case tagFloat64:
		return math.Float64frombits(d.Uvarint())
	case tagString:
		return d.Str()
	case tagOID:
		return d.OID()
	case tagOIDs:
		n := d.Count()
		oids := make([]OID, 0, min(n, Prealloc))
		for i := 0; i < n && d.err == nil; i++ {
			oids = append(oids, d.OID())
		}
		return oids
	}
	d.fail("unknown value tag %d", tag)
	return nil
}

// Attrs reads an attribute assignment.
func (d *Decoder) Attrs() Attrs {
	n := d.Count()
	attrs := make(Attrs, min(n, Prealloc))
	for i := 0; i < n && d.err == nil; i++ {
		name := d.Str()
		attrs[name] = d.Value()
	}
	return attrs
}

// Op reads one mutation.
func (d *Decoder) Op() Op {
	op := Op{Kind: OpKind(d.Byte()), OID: d.OID()}
	if d.err != nil {
		return Op{}
	}
	switch op.Kind {
	case KindInsert:
		op.Class = d.Str()
		op.Attrs = d.Attrs()
	case KindSet:
		op.Attr = d.Str()
		op.Value = d.Value()
	case KindDelete:
	default:
		d.fail("unknown operation kind %d", uint8(op.Kind))
	}
	return op
}
