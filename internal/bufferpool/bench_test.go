package bufferpool

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/pager"
)

// BenchmarkBufferPool sweeps pool sizes over a fixed working set with a
// Zipf-skewed access pattern (the hot-root/cold-leaf shape of tree
// descents) and reports the achieved hit ratio alongside ns/op.
func BenchmarkBufferPool(b *testing.B) {
	const pages = 1024
	for _, frames := range []int{16, 64, 256, 1024} {
		b.Run(fmt.Sprintf("frames=%d", frames), func(b *testing.B) {
			mf := pager.NewMemFile(pager.DefaultPageSize)
			ids := make([]pager.PageID, pages)
			for i := range ids {
				id, err := mf.Alloc()
				if err != nil {
					b.Fatal(err)
				}
				ids[i] = id
			}
			p, err := New(mf, Config{Pages: frames})
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1996))
			zipf := rand.NewZipf(rng, 1.2, 1, pages-1)
			buf := make([]byte, pager.DefaultPageSize)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := p.Read(ids[zipf.Uint64()], buf); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(p.PoolStats().HitRate(), "hit-ratio")
		})
	}
}
