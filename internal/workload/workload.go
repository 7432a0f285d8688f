// Package workload generates the two experimental databases of the paper's
// Section 5:
//
//   - the Figure-1 schema enhanced with the Section-5 class additions
//     (ForeignAuto … PassengerBus) and a 12,000-record random database, used
//     by the Table-1 experiment;
//   - the large class-hierarchy database — 150,000 objects distributed
//     uniformly over 8 or 40 sets with 100, 1,000 or 150,000 (unique)
//     distinct key values — used by the Figure 5–8 experiments, loaded
//     simultaneously into a U-index, a CG-tree, a CH-tree and an H-tree.
//
// All generation is deterministic in the seed.
package workload

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/bufferpool"
	"repro/internal/cgtree"
	"repro/internal/chtree"
	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/htree"
	"repro/internal/pager"
	"repro/internal/schema"
	"repro/internal/store"
)

// Colors is the color attribute domain of the Table-1 database: a
// 48-value paint palette. The paper does not state its color cardinality;
// its Table-1 node counts imply small per-(color, class) clusters, which a
// six-color palette over 12,000 records cannot produce, so we use a fleet
// paint catalogue. The queried colors Red, Blue and Green are present.
var Colors = []string{
	"Amber", "Apricot", "Aqua", "Azure", "Beige", "Black", "Blue", "Bronze",
	"Brown", "Burgundy", "Charcoal", "Copper", "Coral", "Cream", "Crimson",
	"Cyan", "Emerald", "Fuchsia", "Gold", "Graphite", "Green", "Grey",
	"Indigo", "Ivory", "Jade", "Khaki", "Lavender", "Lime", "Magenta",
	"Maroon", "Mint", "Navy", "Ochre", "Olive", "Orange", "Pearl", "Pink",
	"Plum", "Purple", "Red", "Rose", "Sand", "Silver", "Teal", "Turquoise",
	"Violet", "White", "Yellow",
}

// Figure1Schema builds the paper's Figure-1 schema with the Section-5
// additions, in the declaration order that reproduces the paper's COD table
// (Vehicle=C5, Automobile=C5A, PassengerBus=C5CC, ...).
func Figure1Schema() (*schema.Schema, error) {
	s := schema.New()
	type decl struct {
		name, super string
		attrs       []schema.Attr
	}
	decls := []decl{
		{"Employee", "", []schema.Attr{{Name: "Age", Type: encoding.AttrUint64}}},
		{"Company", "", []schema.Attr{
			{Name: "Name", Type: encoding.AttrString},
			{Name: "President", Ref: "Employee"}}},
		{"City", "", []schema.Attr{{Name: "Name", Type: encoding.AttrString}}},
		{"Division", "", []schema.Attr{
			{Name: "Belong", Ref: "Company"},
			{Name: "LocatedIn", Ref: "City"}}},
		{"Vehicle", "", []schema.Attr{
			{Name: "Name", Type: encoding.AttrString},
			{Name: "Color", Type: encoding.AttrString},
			{Name: "ManufacturedBy", Ref: "Company"}}},
		// Company hierarchy: C2A, C2AA, C2B.
		{"AutoCompany", "Company", nil},
		{"TruckCompany", "Company", nil},
		{"JapaneseAutoCompany", "AutoCompany", nil},
		// Vehicle hierarchy: C5A{C5AA,C5AB,C5AC}, C5B{C5BA,C5BB},
		// C5C{C5CA,C5CB,C5CC} — the Section-5 enhanced set.
		{"Automobile", "Vehicle", nil},
		{"Truck", "Vehicle", nil},
		{"Bus", "Vehicle", nil},
		{"CompactAutomobile", "Automobile", nil},
		{"ForeignAuto", "Automobile", nil},
		{"ServiceAuto", "Automobile", nil},
		{"HeavyTruck", "Truck", nil},
		{"LightTruck", "Truck", nil},
		{"MilitaryBus", "Bus", nil},
		{"TouristBus", "Bus", nil},
		{"PassengerBus", "Bus", nil},
	}
	for _, d := range decls {
		if err := s.AddClass(d.name, d.super, d.attrs...); err != nil {
			return nil, err
		}
	}
	if _, err := s.AssignCodes(); err != nil {
		return nil, err
	}
	return s, nil
}

// VehicleClasses lists the concrete vehicle classes of the enhanced schema
// with the share each receives in the random database. Automobiles dominate
// (as in any fleet), which keeps bus queries selective the way the paper's
// Table-1 node counts suggest.
var VehicleClasses = []struct {
	Name  string
	Share float64
}{
	{"Vehicle", 0.04},
	{"Automobile", 0.22},
	{"CompactAutomobile", 0.20},
	{"ForeignAuto", 0.12},
	{"ServiceAuto", 0.10},
	{"Truck", 0.08},
	{"HeavyTruck", 0.06},
	{"LightTruck", 0.06},
	{"Bus", 0.04},
	{"MilitaryBus", 0.02},
	{"TouristBus", 0.02},
	{"PassengerBus", 0.04},
}

// Figure1DB holds the Table-1 experimental database.
type Figure1DB struct {
	Schema    *schema.Schema
	Store     *store.Store
	Employees []store.OID
	Companies []store.OID
	Vehicles  []store.OID
}

// NewFigure1DB generates the 12,000-record random database: 600 employees,
// 300 companies, 60 cities, 140 divisions and 10,900 vehicles.
func NewFigure1DB(seed int64) (*Figure1DB, error) {
	s, err := Figure1Schema()
	if err != nil {
		return nil, err
	}
	st := store.New(s)
	rng := rand.New(rand.NewSource(seed))
	db := &Figure1DB{Schema: s, Store: st}

	for i := 0; i < 600; i++ {
		oid, err := st.Insert("Employee", store.Attrs{"Age": 25 + rng.Intn(46)})
		if err != nil {
			return nil, err
		}
		db.Employees = append(db.Employees, oid)
	}
	var cities []store.OID
	for i := 0; i < 60; i++ {
		oid, err := st.Insert("City", store.Attrs{"Name": fmt.Sprintf("City%02d", i)})
		if err != nil {
			return nil, err
		}
		cities = append(cities, oid)
	}
	companyClasses := []string{"Company", "AutoCompany", "JapaneseAutoCompany", "TruckCompany"}
	for i := 0; i < 300; i++ {
		class := companyClasses[rng.Intn(len(companyClasses))]
		oid, err := st.Insert(class, store.Attrs{
			"Name":      fmt.Sprintf("Co%03d", i),
			"President": db.Employees[rng.Intn(len(db.Employees))],
		})
		if err != nil {
			return nil, err
		}
		db.Companies = append(db.Companies, oid)
	}
	for i := 0; i < 140; i++ {
		if _, err := st.Insert("Division", store.Attrs{
			"Belong":    db.Companies[rng.Intn(len(db.Companies))],
			"LocatedIn": cities[rng.Intn(len(cities))],
		}); err != nil {
			return nil, err
		}
	}
	// 10,900 vehicles over the weighted class distribution.
	const nVehicles = 10900
	for i := 0; i < nVehicles; i++ {
		r := rng.Float64()
		class := VehicleClasses[len(VehicleClasses)-1].Name
		for _, vc := range VehicleClasses {
			if r < vc.Share {
				class = vc.Name
				break
			}
			r -= vc.Share
		}
		oid, err := st.Insert(class, store.Attrs{
			"Name":           fmt.Sprintf("V%05d", i),
			"Color":          Colors[rng.Intn(len(Colors))],
			"ManufacturedBy": db.Companies[rng.Intn(len(db.Companies))],
		})
		if err != nil {
			return nil, err
		}
		db.Vehicles = append(db.Vehicles, oid)
	}
	return db, nil
}

// LargeConfig parameterizes the Section-5.1 database.
type LargeConfig struct {
	Objects  int   // 150,000 in the paper
	Sets     int   // 8 or 40
	Keys     int   // distinct key values; 0 = unique keys
	Seed     int64 //
	PageSize int   // 1024 in the paper
	// PoolPages, when positive, routes each structure's page file through
	// a buffer pool of that many frames. Logical page-read accounting is
	// unaffected — the pool only adds a physical-I/O layer.
	PoolPages int
}

// LargeDB is the Section-5.1 database loaded into all four structures.
type LargeDB struct {
	Config LargeConfig
	Schema *schema.Schema
	Store  *store.Store
	Sets   []string      // class names, code order
	UIndex *core.Sharded // one shard, as the engine builds an unsharded index
	CG     *cgtree.Tree
	CH     *chtree.Tree
	H      *htree.Forest
	// Pools holds the buffer pools wrapped around the four structures'
	// page files when Config.PoolPages > 0, in U/CG/CH/H order.
	Pools []*bufferpool.Pool
	// KeyOf[i] is the key of object with OID i+1; SetOf[i] its set.
	KeyOf []uint64
	SetOf []int
}

// newFile builds one structure's page file, wrapping it in a buffer pool
// when the config requests one.
func (db *LargeDB) newFile() (pager.File, error) {
	var f pager.File = pager.NewMemFile(db.Config.PageSize)
	if db.Config.PoolPages <= 0 {
		return f, nil
	}
	p, err := bufferpool.New(f, bufferpool.Config{Pages: db.Config.PoolPages})
	if err != nil {
		return nil, err
	}
	db.Pools = append(db.Pools, p)
	return p, nil
}

// PoolStats aggregates the pool counters over all four structures; the
// zero value when the database was built without pools.
func (db *LargeDB) PoolStats() bufferpool.Stats {
	var agg bufferpool.Stats
	for _, p := range db.Pools {
		agg.Add(p.PoolStats())
	}
	return agg
}

// DropCaches empties all four structures' node caches, so that
// subsequent traffic reaches the page files (and any pools) again.
func (db *LargeDB) DropCaches() {
	db.UIndex.DropCache()
	db.CG.DropCache()
	db.CH.DropCache()
	db.H.DropCache()
}

// Key8 encodes a key value the way every structure in the large experiment
// does (8-byte big-endian, the paper's "key size was 8 bytes").
func Key8(v uint64) []byte {
	return binary.BigEndian.AppendUint64(nil, v)
}

// NewLargeDB generates the database and loads the four index structures.
func NewLargeDB(cfg LargeConfig) (*LargeDB, error) {
	if cfg.Objects <= 0 || cfg.Sets <= 0 {
		return nil, fmt.Errorf("workload: bad config %+v", cfg)
	}
	if cfg.PageSize == 0 {
		cfg.PageSize = 1024
	}
	s := schema.New()
	if err := s.AddClass("Obj", "", schema.Attr{Name: "Key", Type: encoding.AttrUint64}); err != nil {
		return nil, err
	}
	sets := make([]string, cfg.Sets)
	for i := range sets {
		sets[i] = fmt.Sprintf("Set%03d", i)
		if err := s.AddClass(sets[i], "Obj"); err != nil {
			return nil, err
		}
	}
	coding, err := s.AssignCodes()
	if err != nil {
		return nil, err
	}
	_ = coding
	st := store.New(s)
	db := &LargeDB{Config: cfg, Schema: s, Store: st, Sets: sets}

	rng := rand.New(rand.NewSource(cfg.Seed))
	db.KeyOf = make([]uint64, cfg.Objects)
	db.SetOf = make([]int, cfg.Objects)
	var uniquePerm []int
	if cfg.Keys <= 0 {
		uniquePerm = rng.Perm(cfg.Objects)
	}
	for i := 0; i < cfg.Objects; i++ {
		if cfg.Keys > 0 {
			db.KeyOf[i] = uint64(rng.Intn(cfg.Keys))
		} else {
			db.KeyOf[i] = uint64(uniquePerm[i])
		}
		db.SetOf[i] = rng.Intn(cfg.Sets)
		oid, err := st.Insert(sets[db.SetOf[i]], store.Attrs{"Key": db.KeyOf[i]})
		if err != nil {
			return nil, err
		}
		if int(oid) != i+1 {
			return nil, fmt.Errorf("workload: oid %d for object %d", oid, i)
		}
	}

	// U-index (class-hierarchy index on Obj.Key).
	uFile, err := db.newFile()
	if err != nil {
		return nil, err
	}
	db.UIndex, err = core.NewSharded(st, core.Spec{Name: "large", Root: "Obj", Attr: "Key"},
		nil, []pager.File{uFile}, nil)
	if err != nil {
		return nil, err
	}

	// CG-tree.
	cgFile, err := db.newFile()
	if err != nil {
		return nil, err
	}
	db.CG, err = cgtree.New(cgFile, cgtree.Config{})
	if err != nil {
		return nil, err
	}
	cgEntries := make([]cgtree.Entry, cfg.Objects)
	for i := 0; i < cfg.Objects; i++ {
		cgEntries[i] = cgtree.Entry{
			Set: cgtree.SetID(db.SetOf[i]),
			Key: Key8(db.KeyOf[i]),
			OID: encoding.OID(i + 1),
		}
	}
	sort.Slice(cgEntries, func(i, j int) bool {
		a, b := cgEntries[i], cgEntries[j]
		if a.Set != b.Set {
			return a.Set < b.Set
		}
		if c := string(a.Key); c != string(b.Key) {
			return c < string(b.Key)
		}
		return a.OID < b.OID
	})
	if err := db.CG.BulkLoad(cgEntries); err != nil {
		return nil, err
	}

	// CH-tree.
	chFile, err := db.newFile()
	if err != nil {
		return nil, err
	}
	db.CH, err = chtree.New(chFile, chtree.Config{})
	if err != nil {
		return nil, err
	}
	chEntries := make([]chtree.Entry, cfg.Objects)
	for i := 0; i < cfg.Objects; i++ {
		chEntries[i] = chtree.Entry{
			Key: Key8(db.KeyOf[i]),
			Set: chtree.SetID(db.SetOf[i]),
			OID: encoding.OID(i + 1),
		}
	}
	sort.Slice(chEntries, func(i, j int) bool {
		a, b := chEntries[i], chEntries[j]
		if c := string(a.Key); c != string(b.Key) {
			return c < string(b.Key)
		}
		if a.Set != b.Set {
			return a.Set < b.Set
		}
		return a.OID < b.OID
	})
	if err := db.CH.BulkLoad(chEntries); err != nil {
		return nil, err
	}

	// H-tree.
	hFile, err := db.newFile()
	if err != nil {
		return nil, err
	}
	db.H = htree.New(hFile, htree.Config{})
	hEntries := make([]htree.Entry, cfg.Objects)
	for i := 0; i < cfg.Objects; i++ {
		hEntries[i] = htree.Entry{
			Set: htree.SetID(db.SetOf[i]),
			Key: Key8(db.KeyOf[i]),
			OID: encoding.OID(i + 1),
		}
	}
	if err := db.H.BulkLoad(hEntries); err != nil {
		return nil, err
	}
	return db, nil
}

// KeyDomain returns the number of distinct key values.
func (db *LargeDB) KeyDomain() int {
	if db.Config.Keys > 0 {
		return db.Config.Keys
	}
	return db.Config.Objects
}

// QueriedSets picks n of the total sets. Near sets are adjacent in the
// class hierarchy (a random consecutive window); far sets are spread as
// evenly as possible ("distant ... if it was possible", Section 5.1). When
// spreading is impossible (n > total/2) the choice degenerates to a random
// subset, as in the paper.
func QueriedSets(total, n int, near bool, rng *rand.Rand) []int {
	if n >= total {
		out := make([]int, total)
		for i := range out {
			out[i] = i
		}
		return out
	}
	if near {
		start := rng.Intn(total - n + 1)
		out := make([]int, n)
		for i := range out {
			out[i] = start + i
		}
		return out
	}
	if n*2 <= total {
		stride := total / n
		start := rng.Intn(stride)
		out := make([]int, n)
		for i := range out {
			out[i] = start + i*stride
		}
		return out
	}
	// Too dense to separate: random subset.
	perm := rng.Perm(total)[:n]
	sort.Ints(perm)
	return perm
}
