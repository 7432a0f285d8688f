package encoding

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
)

// OID is a four-byte object identifier, matching the paper's experimental
// setup ("objects ... referenced by 4 bytes OIDS", Section 5.1).
type OID uint32

// OIDSize is the fixed on-key size of an OID.
const OIDSize = 4

// AttrType selects an order-preserving byte encoding for attribute values.
// All encodings compare correctly with bytes.Compare.
type AttrType int

const (
	// AttrUint64 encodes uint64 values as 8 big-endian bytes.
	AttrUint64 AttrType = iota
	// AttrInt64 encodes int64 values as 8 big-endian bytes with the sign
	// bit flipped, so negative values sort before positive ones.
	AttrInt64
	// AttrFloat64 encodes float64 values with the standard IEEE-754
	// order-preserving transform.
	AttrFloat64
	// AttrString encodes strings with 0x00-escaping and a 0x00 0x00
	// terminator, so that variable-length values remain prefix-free and
	// order-preserving.
	AttrString
)

// String implements fmt.Stringer.
func (t AttrType) String() string {
	switch t {
	case AttrUint64:
		return "uint64"
	case AttrInt64:
		return "int64"
	case AttrFloat64:
		return "float64"
	case AttrString:
		return "string"
	}
	return fmt.Sprintf("AttrType(%d)", int(t))
}

// AppendValue appends the order-preserving encoding of v to dst. v must
// match the attribute type: uint64, int64, float64 or string (int and int64
// are both accepted by the integer types for convenience).
func (t AttrType) AppendValue(dst []byte, v any) ([]byte, error) {
	switch t {
	case AttrUint64:
		u, err := asUint64(v)
		if err != nil {
			return nil, err
		}
		return binary.BigEndian.AppendUint64(dst, u), nil
	case AttrInt64:
		i, err := asInt64(v)
		if err != nil {
			return nil, err
		}
		return binary.BigEndian.AppendUint64(dst, uint64(i)^(1<<63)), nil
	case AttrFloat64:
		f, ok := v.(float64)
		if !ok {
			return nil, fmt.Errorf("encoding: %T is not a float64", v)
		}
		bits := math.Float64bits(f)
		if bits&(1<<63) != 0 {
			bits = ^bits
		} else {
			bits |= 1 << 63
		}
		return binary.BigEndian.AppendUint64(dst, bits), nil
	case AttrString:
		s, ok := v.(string)
		if !ok {
			return nil, fmt.Errorf("encoding: %T is not a string", v)
		}
		for i := 0; i < len(s); i++ {
			if s[i] == 0x00 {
				dst = append(dst, 0x00, 0xFF)
			} else {
				dst = append(dst, s[i])
			}
		}
		return append(dst, 0x00, 0x00), nil
	}
	return nil, fmt.Errorf("encoding: unknown attribute type %d", int(t))
}

// EncodeValue is AppendValue into a fresh slice.
func (t AttrType) EncodeValue(v any) ([]byte, error) {
	return t.AppendValue(nil, v)
}

// SplitValue splits an encoded key into the attribute-value bytes and the
// remainder (the path portion). It fails if the key is too short to contain
// a full value.
func (t AttrType) SplitValue(key []byte) (val, rest []byte, err error) {
	switch t {
	case AttrUint64, AttrInt64, AttrFloat64:
		if len(key) < 8 {
			return nil, nil, fmt.Errorf("encoding: key too short for %v value", t)
		}
		return key[:8], key[8:], nil
	case AttrString:
		for i := 0; i+1 < len(key); i++ {
			if key[i] != 0x00 {
				continue
			}
			switch key[i+1] {
			case 0x00:
				return key[:i+2], key[i+2:], nil
			case 0xFF:
				i++ // escaped NUL, skip the escape byte
			default:
				return nil, nil, fmt.Errorf("encoding: invalid string escape 0x00 0x%02X", key[i+1])
			}
		}
		return nil, nil, fmt.Errorf("encoding: unterminated string value in key")
	}
	return nil, nil, fmt.Errorf("encoding: unknown attribute type %d", int(t))
}

// DecodeValue decodes the attribute-value bytes produced by AppendValue back
// into a Go value (uint64, int64, float64 or string).
func (t AttrType) DecodeValue(val []byte) (any, error) {
	switch t {
	case AttrUint64:
		if len(val) != 8 {
			return nil, fmt.Errorf("encoding: uint64 value has %d bytes", len(val))
		}
		return binary.BigEndian.Uint64(val), nil
	case AttrInt64:
		if len(val) != 8 {
			return nil, fmt.Errorf("encoding: int64 value has %d bytes", len(val))
		}
		return int64(binary.BigEndian.Uint64(val) ^ (1 << 63)), nil
	case AttrFloat64:
		if len(val) != 8 {
			return nil, fmt.Errorf("encoding: float64 value has %d bytes", len(val))
		}
		bits := binary.BigEndian.Uint64(val)
		if bits&(1<<63) != 0 {
			bits &^= 1 << 63
		} else {
			bits = ^bits
		}
		return math.Float64frombits(bits), nil
	case AttrString:
		if len(val) < 2 || val[len(val)-1] != 0x00 || val[len(val)-2] != 0x00 {
			return nil, fmt.Errorf("encoding: string value not terminated")
		}
		body := val[:len(val)-2]
		if bytes.IndexByte(body, 0x00) < 0 {
			return string(body), nil // no escaped NUL: one copy
		}
		out := make([]byte, 0, len(body))
		for i := 0; i < len(body); i++ {
			if body[i] == 0x00 {
				if i+1 >= len(body) || body[i+1] != 0xFF {
					return nil, fmt.Errorf("encoding: invalid string escape")
				}
				out = append(out, 0x00)
				i++
				continue
			}
			out = append(out, body[i])
		}
		return string(out), nil
	}
	return nil, fmt.Errorf("encoding: unknown attribute type %d", int(t))
}

func asUint64(v any) (uint64, error) {
	switch x := v.(type) {
	case uint64:
		return x, nil
	case uint:
		return uint64(x), nil
	case int:
		if x < 0 {
			return 0, fmt.Errorf("encoding: negative value %d for uint64 attribute", x)
		}
		return uint64(x), nil
	case int64:
		if x < 0 {
			return 0, fmt.Errorf("encoding: negative value %d for uint64 attribute", x)
		}
		return uint64(x), nil
	}
	return 0, fmt.Errorf("encoding: %T is not a uint64", v)
}

func asInt64(v any) (int64, error) {
	switch x := v.(type) {
	case int64:
		return x, nil
	case int:
		return int64(x), nil
	}
	return 0, fmt.Errorf("encoding: %T is not an int64", v)
}

// PathEntry is one (class, object) step of a composite key. Entries appear
// in key order: the terminal class of the REF path first (it has the
// lexicographically smallest code), the queried class last.
type PathEntry struct {
	Code Code
	OID  OID
}

// AppendKey appends the composite key attr ‖ code₁ ‖ '$' ‖ oid₁ ‖ … to dst.
// attr must already be encoded with an AttrType.
func AppendKey(dst, attr []byte, path []PathEntry) []byte {
	dst = append(dst, attr...)
	for _, pe := range path {
		dst = append(dst, pe.Code...)
		dst = append(dst, SepByte)
		dst = binary.BigEndian.AppendUint32(dst, uint32(pe.OID))
	}
	return dst
}

// BuildKey is AppendKey into a fresh slice.
func BuildKey(attr []byte, path []PathEntry) []byte {
	return AppendKey(nil, attr, path)
}

// SplitKey parses a composite key built by AppendKey back into its
// attribute-value bytes and path entries.
func SplitKey(t AttrType, key []byte) (attr []byte, path []PathEntry, err error) {
	attr, rest, err := t.SplitValue(key)
	if err != nil {
		return nil, nil, err
	}
	path, err = SplitPath(rest)
	if err != nil {
		return nil, nil, err
	}
	return attr, path, nil
}

// SplitPath parses the path portion of a composite key (everything after
// the attribute value).
func SplitPath(rest []byte) ([]PathEntry, error) {
	return AppendSplitPath(nil, rest, nil)
}

// CodeInterner converts raw code bytes from composite keys into validated
// Codes, keeping one canonical string per distinct code. An index sees a
// handful of distinct class codes across millions of entries, so the scan
// executor's per-entry ParseCode (a string conversion plus label-by-label
// validation) collapses to an allocation-free map probe. The zero value is
// ready to use; an interner is not safe for concurrent use — give each
// execution its own.
type CodeInterner struct {
	m map[string]Code
}

// Intern returns the validated Code for raw code bytes, reusing the
// canonical string after the first occurrence.
func (ci *CodeInterner) Intern(raw []byte) (Code, error) {
	if c, ok := ci.m[string(raw)]; ok { // compiled to a no-alloc lookup
		return c, nil
	}
	c, err := ParseCode(string(raw))
	if err != nil {
		return "", err
	}
	if ci.m == nil {
		ci.m = make(map[string]Code)
	}
	ci.m[string(c)] = c
	return c, nil
}

// AppendSplitPath is SplitPath appending into path — pass a retained
// slice's path[:0] to reuse its backing array across keys. A non-nil
// interner additionally dedups the per-entry code strings; nil falls back
// to ParseCode per entry.
func AppendSplitPath(path []PathEntry, rest []byte, ci *CodeInterner) ([]PathEntry, error) {
	for len(rest) > 0 {
		sep := -1
		for i, b := range rest {
			if b == SepByte {
				sep = i
				break
			}
		}
		if sep <= 0 {
			return nil, fmt.Errorf("encoding: malformed key path (missing code before separator)")
		}
		var code Code
		var err error
		if ci != nil {
			code, err = ci.Intern(rest[:sep])
		} else {
			code, err = ParseCode(string(rest[:sep]))
		}
		if err != nil {
			return nil, fmt.Errorf("encoding: malformed key path: %w", err)
		}
		rest = rest[sep+1:]
		if len(rest) < OIDSize {
			return nil, fmt.Errorf("encoding: malformed key path (truncated oid)")
		}
		path = append(path, PathEntry{Code: code, OID: OID(binary.BigEndian.Uint32(rest))})
		rest = rest[OIDSize:]
	}
	return path, nil
}

// PrefixEnd returns the smallest byte string greater than every valid
// composite key that starts with prefix and continues with at least one more
// byte of key material. Key material after any prefix position is either a
// code character, '.', '$', or an OID byte — OID bytes may be 0xFF, so this
// bound is only valid at positions where the next byte is a code character
// or separator (which is how the interval builders in internal/core use it).
// It appends 0xFF, which exceeds every code/separator byte.
func PrefixEnd(prefix []byte) []byte {
	out := make([]byte, len(prefix)+1)
	copy(out, prefix)
	out[len(prefix)] = 0xFF
	return out
}
