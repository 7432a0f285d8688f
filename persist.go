package uindex

// Database persistence: Save writes a self-contained binary snapshot —
// schema declarations, every object, and every index declaration — and Load
// reconstructs the database, reassigning the identical class codes
// (deterministic in declaration order) and rebuilding the indexes with bulk
// loads. The format is versioned; strings, counts, values and objects are
// the store codec's (internal/store/codec.go), the one encoding the log and
// the wire share.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
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

	// snapshotChunk is the size of the pieces Save writes.
	snapshotChunk = 64 << 10
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
// bytes here, outside every lock. Objects are encoded with the store codec
// (internal/store/codec.go), the encoding the log and the wire use too; the
// bytes go out in chunks of about snapshotChunk.
func (db *Database) saveSnapshot(w io.Writer, objs []store.RestoredObject, next OID) error {
	h := crc32.New(snapshotCRC)
	out := io.MultiWriter(w, h)
	b := binary.BigEndian.AppendUint32(nil, snapshotMagic)
	b = binary.BigEndian.AppendUint32(b, snapshotVersion)

	// Schema, in declaration order (codes are deterministic in it).
	classes := db.sch.Classes()
	b = binary.AppendUvarint(b, uint64(len(classes)))
	for _, name := range classes {
		cl, _ := db.sch.Class(name)
		b = store.AppendString(b, cl.Name)
		b = store.AppendString(b, cl.Super)
		b = binary.AppendUvarint(b, uint64(len(cl.Attrs)))
		for _, a := range cl.Attrs {
			b = store.AppendString(b, a.Name)
			b = store.AppendString(b, a.Ref)
			b = append(b, byte(a.Type), boolByte(a.Multi))
		}
	}

	// Objects: oid, class, attributes.
	b = store.AppendOID(b, next)
	b = binary.AppendUvarint(b, uint64(len(objs)))
	for _, o := range objs {
		b = store.AppendString(store.AppendOID(b, o.OID), o.Class)
		var err error
		if b, err = store.AppendAttrs(b, o.Attrs); err != nil {
			return fmt.Errorf("uindex: cannot serialize object %d: %w", o.OID, err)
		}
		if len(b) >= snapshotChunk {
			if _, err := out.Write(b); err != nil {
				return err
			}
			b = b[:0]
		}
	}

	// Index declarations.
	b = binary.AppendUvarint(b, uint64(len(db.order)))
	for _, name := range db.order {
		spec := db.groups[name].sharded.Prototype().Spec()
		if spec.Coding != nil {
			return fmt.Errorf("uindex: index %q uses a custom coding; snapshots support default-coding indexes", name)
		}
		b = store.AppendString(b, spec.Name)
		b = store.AppendString(b, spec.Root)
		b = binary.AppendUvarint(b, uint64(len(spec.Refs)))
		for _, r := range spec.Refs {
			b = store.AppendString(b, r)
		}
		b = store.AppendString(b, spec.Attr)
		b = binary.BigEndian.AppendUint32(b, uint32(spec.MaxEntries))
		b = append(b, boolByte(spec.NoCompression))
	}
	if _, err := out.Write(b); err != nil {
		return err
	}
	// The trailer goes to w alone: it is the checksum of everything above.
	_, err := w.Write(binary.BigEndian.AppendUint32(nil, h.Sum32()))
	return err
}

func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
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
	d := store.NewDecoder(body)
	if d.U32() != snapshotMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrInvalidSnapshot)
	}
	if v := d.U32(); v != snapshotVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrInvalidSnapshot, v)
	}

	snap := &snapshotData{schema: NewSchema()}
	nClasses := d.Count()
	for i := 0; i < nClasses && d.Err() == nil; i++ {
		name := d.Str()
		super := d.Str()
		nAttrs := d.Count()
		attrs := make([]Attr, 0, min(nAttrs, store.Prealloc))
		for j := 0; j < nAttrs && d.Err() == nil; j++ {
			a := Attr{Name: d.Str(), Ref: d.Str()}
			// Unknown type bytes surface as validation errors when the
			// schema is used.
			a.Type = encoding.AttrType(d.Byte())
			a.Multi = d.Byte() == 1
			attrs = append(attrs, a)
		}
		if d.Err() == nil {
			if err := snap.schema.AddClass(name, super, attrs...); err != nil {
				return nil, invalidSnapshot(err)
			}
		}
	}

	snap.next = d.OID()
	nObjs := d.Count()
	snap.objs = make([]store.RestoredObject, 0, min(nObjs, store.Prealloc))
	for i := 0; i < nObjs && d.Err() == nil; i++ {
		snap.objs = append(snap.objs, store.RestoredObject{OID: d.OID(), Class: d.Str(), Attrs: d.Attrs()})
	}

	nIdx := d.Count()
	for i := 0; i < nIdx && d.Err() == nil; i++ {
		spec := IndexSpec{Name: d.Str(), Root: d.Str()}
		nRefs := d.Count()
		for j := 0; j < nRefs && d.Err() == nil; j++ {
			spec.Refs = append(spec.Refs, d.Str())
		}
		spec.Attr = d.Str()
		spec.MaxEntries = int(d.U32())
		spec.NoCompression = d.Byte() == 1
		snap.specs = append(snap.specs, spec)
	}
	if err := d.Err(); err != nil {
		return nil, invalidSnapshot(err)
	}
	if d.Len() != 0 {
		return nil, fmt.Errorf("%w: %d bytes after the index section", ErrInvalidSnapshot, d.Len())
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
