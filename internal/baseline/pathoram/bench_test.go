package pathoram

import (
	"fmt"
	"testing"

	"dpstore/internal/block"
	"dpstore/internal/crypto"
	"dpstore/internal/rng"
	"dpstore/internal/store"
)

func benchORAM(b *testing.B, n int, opts Options) *ORAM {
	b.Helper()
	db, err := block.PatternDatabase(n, block.DefaultSize)
	if err != nil {
		b.Fatal(err)
	}
	slots, bs := TreeShape(n, block.DefaultSize, opts)
	srv, err := store.NewMem(slots, bs)
	if err != nil {
		b.Fatal(err)
	}
	o, err := Setup(db, srv, opts)
	if err != nil {
		b.Fatal(err)
	}
	return o
}

// BenchmarkReadFlat is one flat Path ORAM read at two sizes: n = 2^12, the
// allocation-gated case, and n = 2^16, the served benchmark's shape (height
// 16, 136 blocks per access).
func BenchmarkReadFlat(b *testing.B) {
	for _, n := range []int{1 << 12, 1 << 16} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			o := benchORAM(b, n, Options{Rand: rng.New(1), Key: crypto.KeyFromSeed(1)})
			b.ReportMetric(float64(o.BlocksPerAccess()), "blocks/op")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := o.Read(i % n); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkReadByZ is the bucket-size ablation.
func BenchmarkReadByZ(b *testing.B) {
	b.ReportAllocs()
	for _, z := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("Z=%d", z), func(b *testing.B) {
			b.ReportAllocs()
			o := benchORAM(b, 1<<10, Options{Z: z, Rand: rng.New(1), Key: crypto.KeyFromSeed(1)})
			b.ReportMetric(float64(o.BlocksPerAccess()), "blocks/op")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := o.Read(i % (1 << 10)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkReadRecursive(b *testing.B) {
	b.ReportAllocs()
	db, err := block.PatternDatabase(1<<12, 16)
	if err != nil {
		b.Fatal(err)
	}
	r, err := SetupRecursive(db, MemFactory, RecursiveOptions{
		Pack:   4,
		Cutoff: 8,
		Inner:  Options{Rand: rng.New(1), Key: crypto.KeyFromSeed(1)},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(r.BlocksPerAccess()), "blocks/op")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Read(i % (1 << 12)); err != nil {
			b.Fatal(err)
		}
	}
}
