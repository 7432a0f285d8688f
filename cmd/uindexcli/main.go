// Command uindexcli is an interactive shell over the paper's Example-1
// database: it builds the Figure-1 schema, loads the example objects,
// creates the class-hierarchy color index and the combined
// Vehicle/Company/Employee age index, and then evaluates textual queries in
// the paper's own notation.
//
//	$ go run ./cmd/uindexcli
//	> color (Color=Red, C5A*)
//	> age (Age=50, ?, ?) ; distinct 2
//	> .cod          — print the COD relation
//	> .indexes      — list indexes
//	> .help
//
// Each answer reports the matched paths and the page-read cost under both
// retrieval algorithms. With -save the database is snapshotted on exit;
// with -load a previously saved snapshot is used instead of the demo data.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro"
	"repro/internal/demo"
)

func main() {
	var (
		loadPath   = flag.String("load", "", "load a database snapshot instead of building the demo")
		savePath   = flag.String("save", "", "write a snapshot of the database on exit (.quit)")
		poolPages  = flag.Int("poolpages", 0, "buffer-pool frames per index (0 = no pool)")
		policy     = flag.String("policy", "clock", "buffer-pool replacement policy: clock or lru")
		dir        = flag.String("dir", "", "directory for disk-backed index files (empty = in-memory)")
		durability = flag.String("durability", "checkpoint", "durability mode for -dir: none, checkpoint, or wal")
	)
	flag.Parse()
	dur, err := demo.ParseDurability(*durability)
	if err != nil {
		fmt.Fprintln(os.Stderr, "uindexcli:", err)
		os.Exit(1)
	}
	opts := uindex.Options{PoolPages: *poolPages, PoolPolicy: *policy, Dir: *dir, Durability: dur}
	var db *uindex.Database
	var names map[uindex.OID]string
	if *loadPath != "" {
		db, err = uindex.LoadFileWith(*loadPath, opts)
		names = map[uindex.OID]string{}
	} else {
		db, names, err = demo.Build(opts)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "uindexcli:", err)
		os.Exit(1)
	}
	save := func() {
		if *savePath != "" {
			if err := db.SaveFile(*savePath); err != nil {
				fmt.Fprintln(os.Stderr, "uindexcli: save:", err)
			} else {
				fmt.Printf("saved snapshot to %s\n", *savePath)
			}
		}
		if err := db.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "uindexcli: close:", err)
		}
	}
	defer save()
	fmt.Println("U-index shell over the paper's Example 1 database.")
	fmt.Println(`Type ".help" for commands; queries look like: color (Color=Red, C5A*)`)
	sc := bufio.NewScanner(os.Stdin)
	fmt.Print("> ")
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
		case line == ".quit" || line == ".exit":
			return
		case line == ".help":
			fmt.Println(`Commands:
  .cod               print the COD relation (class codes)
  .indexes           list indexes and their paths
  .objects           list the example objects
  .explain <ix> <q>  show the compiled query plan
  .pool              show buffer-pool counters (run with -poolpages)
  .checkpoint        flush + fsync disk-backed indexes (run with -dir)
  .quit              leave
Queries: <index> <query>, e.g.
  color (Color=Red, C5A*)
  color (Color=[Blue-Red], [C5A*, C5B])
  age   (Age=50, ?, ?) ; distinct 2
  age   (Age=[46-], ?, C2A*, C5A*)
  age   (Age=50, ?, Company{Name=Fiat}, ?)   predicate (select) restriction`)
		case strings.HasPrefix(line, ".explain "):
			rest := strings.TrimSpace(strings.TrimPrefix(line, ".explain"))
			parts := strings.SplitN(rest, " ", 2)
			if len(parts) != 2 {
				fmt.Println("  want: .explain <index> <query>")
				break
			}
			ix, ok := db.Index(parts[0])
			if !ok {
				fmt.Printf("  no index %q\n", parts[0])
				break
			}
			parsed, err := uindex.ParseQuery(ix, strings.TrimSpace(parts[1]))
			if err != nil {
				fmt.Println(" ", err)
				break
			}
			plan, err := ix.Explain(parsed)
			if err != nil {
				fmt.Println(" ", err)
				break
			}
			fmt.Print(plan)
		case line == ".checkpoint":
			if err := db.Checkpoint(); err != nil {
				fmt.Println("  checkpoint:", err)
			} else if *dir == "" {
				fmt.Println("  checkpointed (no -dir: indexes are in-memory, nothing persisted)")
			} else {
				fmt.Printf("  checkpointed disk-backed indexes under %s\n", *dir)
			}
		case line == ".pool":
			if st, ok := db.PoolStats(); ok {
				fmt.Printf("  hits %d, misses %d (hit ratio %.1f%%), evictions %d, writebacks %d\n",
					st.Hits, st.Misses, 100*st.HitRate(), st.Evictions, st.Writebacks)
				fmt.Printf("  physical: %d reads, %d writes\n", st.PhysicalReads, st.PhysicalWrites)
			} else {
				fmt.Println("  no buffer pool (start with -poolpages N)")
			}
		case line == ".cod":
			for _, row := range db.CODTable() {
				fmt.Println(" ", row)
			}
		case line == ".indexes":
			for _, name := range db.Indexes() {
				ix, _ := db.Index(name)
				fmt.Printf("  %-8s on %s.%s (path %s)\n", name,
					ix.PathClasses()[len(ix.PathClasses())-1], ix.Spec().Attr,
					strings.Join(ix.PathClasses(), "/"))
			}
		case line == ".objects":
			for oid, n := range names {
				cls, _ := db.ClassOf(oid)
				fmt.Printf("  %-4d %-12s %s\n", oid, n, cls)
			}
		default:
			runQuery(db, names, line)
		}
		fmt.Print("> ")
	}
}

func runQuery(db *uindex.Database, names map[uindex.OID]string, line string) {
	parts := strings.SplitN(line, " ", 2)
	if len(parts) != 2 {
		fmt.Println("  want: <index> <query> — see .help")
		return
	}
	ixName, q := parts[0], strings.TrimSpace(parts[1])
	ix, ok := db.Index(ixName)
	if !ok {
		fmt.Printf("  no index %q (try .indexes)\n", ixName)
		return
	}
	parsed, err := uindex.ParseQuery(ix, q)
	if err != nil {
		fmt.Println(" ", err)
		return
	}
	ctx := context.Background()
	ms, sp, err := db.Query(ctx, ixName, parsed)
	if err != nil {
		fmt.Println(" ", err)
		return
	}
	_, sf, err := db.Query(ctx, ixName, parsed, uindex.WithAlgorithm(uindex.Forward))
	if err != nil {
		fmt.Println(" ", err)
		return
	}
	for _, m := range ms {
		var path []string
		for _, pe := range m.Path {
			label := fmt.Sprint(pe.OID)
			if n, ok := names[pe.OID]; ok {
				label = n
			}
			path = append(path, fmt.Sprintf("%s$%s", pe.Code.Compact(), label))
		}
		fmt.Printf("  %v  %s\n", m.Value, strings.Join(path, " "))
	}
	fmt.Printf("  -- %d match(es); pages read: parallel %d, forward %d\n",
		len(ms), sp.PagesRead, sf.PagesRead)
}
