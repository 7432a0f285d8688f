package main

// gen.go is the benchmark's only source of inputs. The data set, every
// query value and every write-op choice derive from -seed through the
// samplers below; the engine under test receives nothing but what this file
// generates, so two runs with the same seed present identical inputs.
//
// Seed 1996 is the working seed — the one used while a change is written.
// Seed 2026 is held out: a later performance claim must also hold on it.

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"

	"repro/internal/workload"
)

const (
	workingSeed = 1996 // the held-out seed, 2026, is only ever typed on a command line

	minAge, maxAge = 25, 70 // president ages, inclusive
	zipfS          = 1.1    // skew of every zipfian choice
)

// stream returns an independent generator for one named purpose, so adding a
// consumer never shifts the values another one draws.
func stream(seed int64, name string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(name))
	return rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
}

// zipfian draws ranks 0..n-1 with P(rank) ∝ 1/(1+rank)^s. A seeded
// permutation maps ranks to values so the hot values are not the
// alphabetically first ones.
type zipfian struct {
	z    *rand.Zipf
	perm []int
}

func newZipfian(r *rand.Rand, n int) *zipfian {
	return &zipfian{z: rand.NewZipf(r, zipfS, 1, uint64(n-1)), perm: r.Perm(n)}
}

// rank returns the raw zipfian rank, for callers that index a changing list.
func (z *zipfian) rank() int { return int(z.z.Uint64()) }

func (z *zipfian) next() int { return z.perm[z.rank()] }

// company and vehicle reference their targets by position in the data set;
// the loader translates positions to the OIDs the engine assigns.
type company struct {
	class, name string
	president   int
}

type vehicle struct {
	class, name, color string
	maker              int
}

type dataset struct {
	ages      []uint64 // one employee per entry
	companies []company
	vehicles  []vehicle
}

var companyClasses = []string{"Company", "AutoCompany", "JapaneseAutoCompany", "TruckCompany"}

// genData generates the Figure-1 fleet at the given scale: one company per
// 40 vehicles and two employees per company, the proportions of the paper's
// 12,000-record Table-1 database.
//
// The data is stratified: every class holds exactly its workload.VehicleClasses
// share of the vehicles, every colour the same number of vehicles of each
// class, every company the same number of vehicles of each class, and the
// presidents' ages are spread evenly over the companies. The seed decides
// which object carries which value, not how many do, so a query shape does
// the same amount of work whatever the seed and the metrics of two seeds can
// be compared.
func genData(seed int64, vehicles int) *dataset {
	r := stream(seed, "data")
	nAges := maxAge - minAge + 1
	nCompanies := max(vehicles/40, 8)
	d := &dataset{
		ages:      make([]uint64, max(2*nCompanies, nAges)),
		companies: make([]company, nCompanies),
		vehicles:  make([]vehicle, 0, vehicles),
	}
	// Employee e is aged minAge + e mod nAges: rows of one employee per age.
	for e := range d.ages {
		d.ages[e] = uint64(minAge + e%nAges)
	}
	ageOrder, classOrder := r.Perm(nAges), r.Perm(nCompanies)
	for i := range d.companies {
		row := r.Intn(len(d.ages) / nAges)
		d.companies[i] = company{
			class:     companyClasses[classOrder[i]%len(companyClasses)],
			name:      fmt.Sprintf("Co%05d", i),
			president: row*nAges + ageOrder[i%nAges],
		}
	}
	left := vehicles
	for k, vc := range workload.VehicleClasses {
		n := int(vc.Share*float64(vehicles) + 0.5)
		if k == len(workload.VehicleClasses)-1 {
			n = left
		}
		left -= n
		colours, makers := r.Perm(len(workload.Colors)), r.Perm(nCompanies)
		for j := range n {
			d.vehicles = append(d.vehicles, vehicle{
				class: vc.Name,
				color: workload.Colors[colours[j%len(colours)]],
				maker: makers[j%nCompanies],
			})
		}
	}
	r.Shuffle(len(d.vehicles), func(i, j int) { d.vehicles[i], d.vehicles[j] = d.vehicles[j], d.vehicles[i] })
	for i := range d.vehicles {
		d.vehicles[i].name = fmt.Sprintf("V%06d", i)
	}
	return d
}

// vehicleClass draws a concrete class by the workload.VehicleClasses shares,
// for the vehicles the write mix inserts.
func vehicleClass(r *rand.Rand) string {
	x := r.Float64()
	for _, vc := range workload.VehicleClasses {
		if x < vc.Share {
			return vc.Name
		}
		x -= vc.Share
	}
	return workload.VehicleClasses[len(workload.VehicleClasses)-1].Name
}

// shape names one read-query template.
type shape int

const (
	pointColor shape = iota // (Color=c, K): one colour, one exact small class
	pointAge                // (Age=a, ?, ?, Bus*): one age down the path index
	rangeColor              // (Color=[lo-hi], Vehicle*): 4-12 colours, whole hierarchy
	parscan                 // (Color={a,b,c}, [CompactAutomobile*, Truck*, PassengerBus])
	rangeAge                // (Age=[lo-lo+8], ?, ?, Truck*)
)

// mixEntry gives one shape its share of a read mix, in percent.
type mixEntry struct {
	shape   shape
	percent int
}

// classPat is one class alternative at the vehicle position of a query.
type classPat struct {
	class   string
	subtree bool
}

// readOp is one generated query: querylang text for the wire and for
// uindex.ParseQuery, plus the same predicate as data for the brute-force
// oracle, which must not depend on the parser it checks.
type readOp struct {
	index, text  string
	colours      []string // "color" index: the accepted colours
	contiguous   bool     // colours is a value range, not an enumeration
	ageLo, ageHi uint64   // "age" index: the accepted ages, inclusive
	classes      []classPat
}

var smallClasses = []string{"Bus", "MilitaryBus", "TouristBus", "PassengerBus"}

// readGen draws queries of a mix. Point shapes take zipfian values (a few
// hot colours and ages), scan shapes uniform ones.
type readGen struct {
	r       *rand.Rand
	colours *zipfian
	ages    *zipfian
}

func newReadGen(r *rand.Rand) *readGen {
	return &readGen{
		r:       r,
		colours: newZipfian(r, len(workload.Colors)),
		ages:    newZipfian(r, maxAge-minAge+1),
	}
}

// gen generates the j-th query of a shape. What sets the size of the answer
// — the small class of a point probe, the width of a colour range — cycles
// with j, so every cycle of queries holds the same amounts of work; the
// values themselves are drawn.
func (g *readGen) gen(s shape, j int) readOp {
	colors := workload.Colors // sorted, so a slice of it is a value range
	switch s {
	case pointColor:
		c, k := colors[g.colours.next()], smallClasses[j%len(smallClasses)]
		return readOp{index: "color", text: fmt.Sprintf("(Color=%s, %s)", c, k),
			colours: []string{c}, classes: []classPat{{k, false}}}
	case pointAge:
		a := uint64(minAge + g.ages.next())
		return readOp{index: "age", text: fmt.Sprintf("(Age=%d, ?, ?, Bus*)", a),
			ageLo: a, ageHi: a, classes: []classPat{{"Bus", true}}}
	case rangeColor:
		span := 4 + j%9
		lo := g.r.Intn(len(colors) - span + 1)
		return readOp{index: "color",
			text:    fmt.Sprintf("(Color=[%s-%s], Vehicle*)", colors[lo], colors[lo+span-1]),
			colours: colors[lo : lo+span], contiguous: true, classes: []classPat{{"Vehicle", true}}}
	case parscan:
		p := g.r.Perm(len(colors))[:3]
		cs := []string{colors[p[0]], colors[p[1]], colors[p[2]]}
		return readOp{index: "color",
			text:    fmt.Sprintf("(Color={%s}, [CompactAutomobile*, Truck*, PassengerBus])", strings.Join(cs, ",")),
			colours: cs,
			classes: []classPat{{"CompactAutomobile", true}, {"Truck", true}, {"PassengerBus", false}}}
	default: // rangeAge
		lo := uint64(minAge + g.r.Intn(maxAge-minAge-8+1))
		return readOp{index: "age", text: fmt.Sprintf("(Age=[%d-%d], ?, ?, Truck*)", lo, lo+8),
			ageLo: lo, ageHi: lo + 8, classes: []classPat{{"Truck", true}}}
	}
}

// cycle pre-generates n queries holding every shape of the mix in exactly its
// share, in shuffled order.
func (g *readGen) cycle(mix []mixEntry, n int) []readOp {
	ops := make([]readOp, 0, n)
	for k, m := range mix {
		count := n * m.percent / 100
		if k == len(mix)-1 {
			count = n - len(ops)
		}
		for j := range count {
			ops = append(ops, g.gen(m.shape, j))
		}
	}
	g.r.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

// writeKind names one commit template of the write mix.
type writeKind int

const (
	setColor     writeKind = iota // Set Color on a zipfian-chosen live vehicle
	insertOne                     // Insert one vehicle
	deleteOne                     // Delete one live vehicle
	batchColor                    // ApplyBatch of 16 Set Color
	setPresident                  // Set President on a company: rewrites every path entry under it
)

const batchSize = 16

// nextWrite draws a commit kind: 50 % Set Color, 20 % Insert, 15 % Delete,
// 10 % batch, 5 % Set President.
func nextWrite(r *rand.Rand) writeKind {
	switch x := r.Intn(100); {
	case x < 50:
		return setColor
	case x < 70:
		return insertOne
	case x < 85:
		return deleteOne
	case x < 95:
		return batchColor
	default:
		return setPresident
	}
}
