package uindex

// Database persistence: Save writes a self-contained binary snapshot —
// schema declarations, every object, and every index declaration — and Load
// reconstructs the database, reassigning the identical class codes
// (deterministic in declaration order) and rebuilding the indexes with bulk
// loads. The format is versioned and uses only length-prefixed primitives.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"repro/internal/encoding"
	"repro/internal/store"
)

// ErrInvalidSnapshot reports that the input handed to Load/LoadWith is not a
// well-formed database snapshot: wrong magic, an unsupported format version,
// a checksum mismatch, or corrupt section data. Every Load failure caused by
// the input matches it with errors.Is.
var ErrInvalidSnapshot = errors.New("uindex: invalid database snapshot")

const (
	snapshotMagic = 0x554F4442 // "UODB"
	// Version 2 appends a CRC32C trailer over the whole snapshot, so any
	// corruption — even in value bytes no parser validates — is detected.
	snapshotVersion = 2

	// snapshotPreallocCap bounds slice preallocation from untrusted counts:
	// larger counts still load (slices grow), but a corrupt count cannot
	// balloon memory before the data runs out.
	snapshotPreallocCap = 1 << 16
)

var snapshotCRC = crc32.MakeTable(crc32.Castagnoli)

// invalidSnapshot tags an input-caused Load error with ErrInvalidSnapshot,
// keeping the original error in the chain for errors.Is/As.
func invalidSnapshot(err error) error {
	if err == nil || errors.Is(err, ErrInvalidSnapshot) {
		return err
	}
	return fmt.Errorf("%w: %w", ErrInvalidSnapshot, err)
}

// value tags in the object section.
const (
	tagInt = iota
	tagUint64
	tagInt64
	tagFloat64
	tagString
	tagOID
	tagOIDs
)

type snapshotWriter struct {
	w   *bufio.Writer
	err error
}

func (sw *snapshotWriter) u32(v uint32) {
	if sw.err != nil {
		return
	}
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], v)
	_, sw.err = sw.w.Write(b[:])
}

func (sw *snapshotWriter) uvarint(v uint64) {
	if sw.err != nil {
		return
	}
	var b [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(b[:], v)
	_, sw.err = sw.w.Write(b[:n])
}

func (sw *snapshotWriter) str(s string) {
	sw.uvarint(uint64(len(s)))
	if sw.err != nil {
		return
	}
	_, sw.err = sw.w.WriteString(s)
}

func (sw *snapshotWriter) byte(b byte) {
	if sw.err != nil {
		return
	}
	sw.err = sw.w.WriteByte(b)
}

type snapshotReader struct {
	r   *bufio.Reader
	err error
}

func (sr *snapshotReader) u32() uint32 {
	if sr.err != nil {
		return 0
	}
	var b [4]byte
	if _, sr.err = io.ReadFull(sr.r, b[:]); sr.err != nil {
		return 0
	}
	return binary.BigEndian.Uint32(b[:])
}

func (sr *snapshotReader) uvarint() uint64 {
	if sr.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(sr.r)
	sr.err = err
	return v
}

func (sr *snapshotReader) str() string {
	n := sr.uvarint()
	if sr.err != nil {
		return ""
	}
	if n > 1<<20 {
		sr.err = fmt.Errorf("%w: implausible string length %d", ErrInvalidSnapshot, n)
		return ""
	}
	b := make([]byte, n)
	if _, sr.err = io.ReadFull(sr.r, b); sr.err != nil {
		return ""
	}
	return string(b)
}

func (sr *snapshotReader) byte() byte {
	if sr.err != nil {
		return 0
	}
	b, err := sr.r.ReadByte()
	sr.err = err
	return b
}

// Save writes a snapshot of the database (schema, objects, index
// declarations) to w, followed by a CRC32C trailer over everything written.
// Index contents are not serialized; Load rebuilds them, which is both
// simpler and usually faster than paging them in.
func (db *Database) Save(w io.Writer) error {
	objs, next := db.st.Snapshot()
	return db.saveSnapshot(w, objs, next)
}

// saveSnapshot is Save over a pre-taken store snapshot — the WAL
// checkpointer snapshots the store under its commit cut and encodes the
// bytes here, outside every lock.
func (db *Database) saveSnapshot(w io.Writer, objs []store.RestoredObject, next OID) error {
	h := crc32.New(snapshotCRC)
	sw := &snapshotWriter{w: bufio.NewWriter(io.MultiWriter(w, h))}
	sw.u32(snapshotMagic)
	sw.u32(snapshotVersion)

	// Schema, in declaration order (codes are deterministic in it).
	classes := db.sch.Classes()
	sw.uvarint(uint64(len(classes)))
	for _, name := range classes {
		cl, _ := db.sch.Class(name)
		sw.str(cl.Name)
		sw.str(cl.Super)
		sw.uvarint(uint64(len(cl.Attrs)))
		for _, a := range cl.Attrs {
			sw.str(a.Name)
			sw.str(a.Ref)
			sw.byte(byte(a.Type))
			if a.Multi {
				sw.byte(1)
			} else {
				sw.byte(0)
			}
		}
	}

	// Objects.
	sw.u32(uint32(next))
	sw.uvarint(uint64(len(objs)))
	for _, o := range objs {
		sw.u32(uint32(o.OID))
		sw.str(o.Class)
		sw.uvarint(uint64(len(o.Attrs)))
		// Deterministic attribute order.
		cl, _ := db.sch.Class(o.Class)
		written := 0
		emit := func(name string, v any) error {
			sw.str(name)
			switch x := v.(type) {
			case int:
				sw.byte(tagInt)
				sw.uvarint(uint64(x))
			case uint64:
				sw.byte(tagUint64)
				sw.uvarint(x)
			case int64:
				sw.byte(tagInt64)
				sw.uvarint(uint64(x))
			case float64:
				sw.byte(tagFloat64)
				sw.uvarint(math.Float64bits(x))
			case string:
				sw.byte(tagString)
				sw.str(x)
			case OID:
				sw.byte(tagOID)
				sw.u32(uint32(x))
			case []OID:
				sw.byte(tagOIDs)
				sw.uvarint(uint64(len(x)))
				for _, o := range x {
					sw.u32(uint32(o))
				}
			default:
				return fmt.Errorf("uindex: cannot serialize attribute %q of type %T", name, v)
			}
			written++
			return nil
		}
		// Walk the inheritance chain for a stable order.
		for c := cl; c != nil; {
			for _, a := range c.Attrs {
				if v, ok := o.Attrs[a.Name]; ok {
					if err := emit(a.Name, v); err != nil {
						return err
					}
				}
			}
			if c.Super == "" {
				break
			}
			c, _ = db.sch.Class(c.Super)
		}
		if written != len(o.Attrs) {
			return fmt.Errorf("uindex: object %d has %d attributes, serialized %d", o.OID, len(o.Attrs), written)
		}
	}

	// Index declarations.
	sw.uvarint(uint64(len(db.order)))
	for _, name := range db.order {
		spec := db.groups[name].sharded.Prototype().Spec()
		if spec.Coding != nil {
			return fmt.Errorf("uindex: index %q uses a custom coding; snapshots support default-coding indexes", name)
		}
		sw.str(spec.Name)
		sw.str(spec.Root)
		sw.uvarint(uint64(len(spec.Refs)))
		for _, r := range spec.Refs {
			sw.str(r)
		}
		sw.str(spec.Attr)
		sw.u32(uint32(spec.MaxEntries))
		if spec.NoCompression {
			sw.byte(1)
		} else {
			sw.byte(0)
		}
	}
	if sw.err != nil {
		return sw.err
	}
	if err := sw.w.Flush(); err != nil {
		return err
	}
	// The trailer goes to w alone: it is the checksum of everything above.
	var tr [4]byte
	binary.BigEndian.PutUint32(tr[:], h.Sum32())
	_, err := w.Write(tr[:])
	return err
}

// Load reconstructs a database from a snapshot produced by Save.
func Load(r io.Reader) (*Database, error) {
	return LoadWith(r, Options{})
}

// LoadWith is Load with explicit Options; the rebuilt indexes run through
// buffer pools when opts.PoolPages is set. The whole snapshot is checksum-
// verified before any of it is parsed; every failure caused by the input
// matches ErrInvalidSnapshot.
func LoadWith(r io.Reader, opts Options) (*Database, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, invalidSnapshot(err)
	}
	snap, err := decodeSnapshot(data)
	if err != nil {
		return nil, err
	}
	db, err := NewDatabaseWith(snap.schema, opts)
	if err != nil {
		return nil, err // environment (e.g. Options.Dir), not the snapshot
	}
	if err := db.attach(snap); err != nil {
		db.close(false)
		return nil, err
	}
	return db, nil
}

// snapshotData is a decoded snapshot: everything Save wrote, as values, with
// no Database behind it yet.
type snapshotData struct {
	schema *Schema
	objs   []store.RestoredObject
	next   OID
	specs  []IndexSpec
}

// decodeSnapshot is the pure half of loading: checksum, framing and sections
// of a snapshot, touching no file and no Database. Every failure matches
// ErrInvalidSnapshot.
func decodeSnapshot(data []byte) (*snapshotData, error) {
	if len(data) < 12 { // magic + version + trailer
		return nil, fmt.Errorf("%w: %d bytes is too short", ErrInvalidSnapshot, len(data))
	}
	body := data[:len(data)-4]
	if got := binary.BigEndian.Uint32(data[len(data)-4:]); got != crc32.Checksum(body, snapshotCRC) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrInvalidSnapshot)
	}
	// The length check above guarantees these two reads.
	sr := &snapshotReader{r: bufio.NewReader(bytes.NewReader(body))}
	if sr.u32() != snapshotMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrInvalidSnapshot)
	}
	if v := sr.u32(); v != snapshotVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrInvalidSnapshot, v)
	}

	snap := &snapshotData{schema: NewSchema()}
	nClasses := sr.uvarint()
	for i := uint64(0); i < nClasses && sr.err == nil; i++ {
		name := sr.str()
		super := sr.str()
		nAttrs := sr.uvarint()
		attrs := make([]Attr, 0, min(nAttrs, snapshotPreallocCap))
		for j := uint64(0); j < nAttrs && sr.err == nil; j++ {
			a := Attr{Name: sr.str(), Ref: sr.str()}
			// Unknown type bytes surface as validation errors when the
			// schema is used.
			a.Type = encoding.AttrType(sr.byte())
			a.Multi = sr.byte() == 1
			attrs = append(attrs, a)
		}
		if sr.err == nil {
			if err := snap.schema.AddClass(name, super, attrs...); err != nil {
				return nil, invalidSnapshot(err)
			}
		}
	}

	snap.next = OID(sr.u32())
	nObjs := sr.uvarint()
	snap.objs = make([]store.RestoredObject, 0, min(nObjs, snapshotPreallocCap))
	for i := uint64(0); i < nObjs && sr.err == nil; i++ {
		ro := store.RestoredObject{OID: OID(sr.u32()), Class: sr.str(), Attrs: Attrs{}}
		nAttrs := sr.uvarint()
		for j := uint64(0); j < nAttrs && sr.err == nil; j++ {
			name := sr.str()
			switch tag := sr.byte(); tag {
			case tagInt:
				ro.Attrs[name] = int(sr.uvarint())
			case tagUint64:
				ro.Attrs[name] = sr.uvarint()
			case tagInt64:
				ro.Attrs[name] = int64(sr.uvarint())
			case tagFloat64:
				ro.Attrs[name] = math.Float64frombits(sr.uvarint())
			case tagString:
				ro.Attrs[name] = sr.str()
			case tagOID:
				ro.Attrs[name] = OID(sr.u32())
			case tagOIDs:
				n := sr.uvarint()
				if n > 1<<20 {
					return nil, fmt.Errorf("%w: implausible reference list length %d", ErrInvalidSnapshot, n)
				}
				oids := make([]OID, n)
				for k := range oids {
					oids[k] = OID(sr.u32())
				}
				ro.Attrs[name] = oids
			default:
				if sr.err == nil {
					return nil, fmt.Errorf("%w: unknown value tag %d", ErrInvalidSnapshot, tag)
				}
			}
		}
		snap.objs = append(snap.objs, ro)
	}

	nIdx := sr.uvarint()
	for i := uint64(0); i < nIdx && sr.err == nil; i++ {
		spec := IndexSpec{Name: sr.str(), Root: sr.str()}
		nRefs := sr.uvarint()
		for j := uint64(0); j < nRefs && sr.err == nil; j++ {
			spec.Refs = append(spec.Refs, sr.str())
		}
		spec.Attr = sr.str()
		spec.MaxEntries = int(sr.u32())
		spec.NoCompression = sr.byte() == 1
		snap.specs = append(snap.specs, spec)
	}
	if sr.err != nil {
		return nil, invalidSnapshot(sr.err)
	}
	return snap, nil
}

// attach fills a fresh database from a decoded snapshot: the objects go into
// the store and every declared index is created — reopened from its files
// when Options.Dir holds them, built otherwise. On error the caller releases
// the database with close(false).
func (db *Database) attach(snap *snapshotData) error {
	if err := db.st.Restore(snap.objs, snap.next); err != nil {
		return invalidSnapshot(err)
	}
	for _, spec := range snap.specs {
		if err := db.CreateIndex(spec); err != nil {
			// Corruption of the reopened index files is a recovery
			// failure, not a malformed snapshot: keep the pager detail
			// in the chain under the recovery sentinel.
			var pageErr ErrCorruptPage
			if errors.Is(err, ErrCorruptFile) || errors.As(err, &pageErr) {
				return fmt.Errorf("%w: reopening index %q: %w", ErrRecovery, spec.Name, err)
			}
			return invalidSnapshot(err)
		}
	}
	// A log bootstrapped by NewDatabaseWith checkpointed the empty
	// pre-restore store; fold the restored objects and indexes into a fresh
	// checkpoint so the on-disk committed state matches what we return. (Open
	// attaches before it has a log: its state is the checkpoint already.)
	if db.wal != nil {
		return db.Checkpoint()
	}
	return nil
}

// SaveFile writes a snapshot to a file.
func (db *Database) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := db.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadFile reads a snapshot from a file.
func LoadFile(path string) (*Database, error) {
	return LoadFileWith(path, Options{})
}

// LoadFileWith reads a snapshot from a file with explicit Options.
func LoadFileWith(path string, opts Options) (*Database, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close() // only read
	return LoadWith(f, opts)
}
