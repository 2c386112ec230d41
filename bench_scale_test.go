package dpstore

// Closed-loop multi-client throughput benchmarks for the sharded store:
// C goroutine clients issue back-to-back ReadBatch calls (no think time)
// against one server and the benchmark reports aggregate wall time per
// operation. Two backend models are measured:
//
//   - Mem: pure in-memory stores. The contended resource is the lock and
//     the memory bus; on a multi-core host the sharded store scales with
//     client count while the single lock serializes. (On a single-core
//     host both flatline at CPU speed — there is no parallelism to win.)
//
//   - diskLike: stores that charge a per-address service time while
//     HOLDING their lock, exactly the locking discipline of
//     store.Durable, whose page mutex is held across each run's read or
//     write. This models the production deployment (disk- or
//     network-attached shards) where the single-lock store flatlines at
//     one device's speed regardless of client count, while K shards keep
//     K devices busy concurrently — sleeping goroutines overlap even on
//     one core, so the measured speedup is the deployment's, not the
//     benchmark host's.
//
// Numbers are recorded in EXPERIMENTS.md §Scale.

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"dpstore/internal/block"
	"dpstore/internal/store"
)

const (
	scaleSlots     = 1 << 14
	scaleBlockSize = block.DefaultSize
	scaleBatch     = 8 // addresses per ReadBatch (a realistic per-query set)
	scaleShards    = 16
)

// diskLike wraps a Mem with store.Durable's locking discipline: one mutex
// held across the whole batch's (simulated) device time, serviceTime per
// address — the seek-per-run cost of random reads. It deliberately does
// NOT implement BatchServer beyond charging per address, so a batch of B
// random addresses holds the lock for B·serviceTime, as a coalesced Durable
// batch of B single-page runs would.
type diskLike struct {
	mu          sync.Mutex
	inner       *store.Mem
	serviceTime time.Duration
}

func (d *diskLike) Download(addr int) (block.Block, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	time.Sleep(d.serviceTime)
	return d.inner.Download(addr)
}

func (d *diskLike) Upload(addr int, b block.Block) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	time.Sleep(d.serviceTime)
	return d.inner.Upload(addr, b)
}

func (d *diskLike) ReadBatch(addrs []int) ([]block.Block, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	time.Sleep(time.Duration(len(addrs)) * d.serviceTime)
	return d.inner.ReadBatch(addrs)
}

func (d *diskLike) WriteBatch(ops []store.WriteOp) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	time.Sleep(time.Duration(len(ops)) * d.serviceTime)
	return d.inner.WriteBatch(ops)
}

func (d *diskLike) Size() int      { return d.inner.Size() }
func (d *diskLike) BlockSize() int { return d.inner.BlockSize() }

func newDiskLike(n int, serviceTime time.Duration) store.Server {
	m, err := store.NewMem(n, scaleBlockSize)
	if err != nil {
		panic(err)
	}
	return &diskLike{inner: m, serviceTime: serviceTime}
}

func newShardedDiskLike(n, k int, serviceTime time.Duration) store.Server {
	shards := make([]store.Server, k)
	for i := range shards {
		shards[i] = newDiskLike(store.ShardSlots(n, k, i), serviceTime)
	}
	s, err := store.NewSharded(shards)
	if err != nil {
		panic(err)
	}
	return s
}

// closedLoop drives b.N ReadBatch operations through srv from `clients`
// concurrent goroutines with no think time and reports aggregate
// throughput (the inverse of ns/op).
func closedLoop(b *testing.B, srv store.Server, clients int) {
	b.Helper()
	batch := store.AsBatch(srv)
	n := srv.Size()
	var next sync.WaitGroup
	perClient := b.N/clients + 1
	b.ResetTimer()
	for c := 0; c < clients; c++ {
		next.Add(1)
		go func(c int) {
			defer next.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			addrs := make([]int, scaleBatch)
			for i := 0; i < perClient; i++ {
				for j := range addrs {
					addrs[j] = rng.Intn(n)
				}
				if _, err := batch.ReadBatch(addrs); err != nil {
					b.Error(err)
					return
				}
			}
		}(c)
	}
	next.Wait()
	b.StopTimer()
	b.ReportMetric(float64(b.N)*float64(scaleBatch)/b.Elapsed().Seconds(), "blocks/s")
}

// BenchmarkScaleMemRead: pure-CPU closed loop, single-lock Mem vs sharded
// Mem, at increasing client counts.
func BenchmarkScaleMemRead(b *testing.B) {
	b.ReportAllocs()
	for _, clients := range []int{1, 4, 16} {
		single, err := store.NewMem(scaleSlots, scaleBlockSize)
		if err != nil {
			b.Fatal(err)
		}
		sharded, err := store.NewShardedMem(scaleSlots, scaleBlockSize, scaleShards)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("store=single/clients=%d", clients), func(b *testing.B) {
			b.ReportAllocs()
			closedLoop(b, single, clients)
		})
		b.Run(fmt.Sprintf("store=sharded%d/clients=%d", scaleShards, clients), func(b *testing.B) {
			b.ReportAllocs()
			closedLoop(b, sharded, clients)
		})
	}
}

// BenchmarkScaleDiskLikeRead: the same closed loop against stores that
// charge a 1 ms per-address device time under their lock (File's locking
// discipline; 1 ms is a disk seek or a same-region network hop, and sits
// above this kernel's ~1.1 ms sleep resolution so requested ≈ actual).
// The single lock flatlines at one device's throughput regardless of
// client count; K shards sustain K devices' worth.
func BenchmarkScaleDiskLikeRead(b *testing.B) {
	b.ReportAllocs()
	const serviceTime = time.Millisecond
	for _, clients := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("store=single/clients=%d", clients), func(b *testing.B) {
			b.ReportAllocs()
			closedLoop(b, newDiskLike(scaleSlots, serviceTime), clients)
		})
		b.Run(fmt.Sprintf("store=sharded%d/clients=%d", scaleShards, clients), func(b *testing.B) {
			b.ReportAllocs()
			closedLoop(b, newShardedDiskLike(scaleSlots, scaleShards, serviceTime), clients)
		})
	}
}

// BenchmarkNamespaceOpen measures the per-namespace handshake: one open
// round trip on a live connection, alternating between two attached
// namespaces so every iteration crosses the wire.
func BenchmarkNamespaceOpen(b *testing.B) {
	b.ReportAllocs()
	ns := store.NewNamespaces()
	for _, name := range []string{"a", "b"} {
		m, err := store.NewMem(64, scaleBlockSize)
		if err != nil {
			b.Fatal(err)
		}
		ns.Attach(name, m)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { ln.Close() })
	go store.ServeNamespaces(ln, ns) //nolint:errcheck
	r, err := store.DialNamespace(ln.Addr().String(), "a", 0, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { r.Close() })
	names := [2]string{"a", "b"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.Open(names[i%2], 0, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPoolFanout: 16 goroutine clients sharing one transport to a
// live TCP daemon — a single serialized Remote vs a 16-connection Pool.
// The pool removes head-of-line blocking: with one socket every client's
// round trip queues behind 15 others.
func BenchmarkPoolFanout(b *testing.B) {
	b.ReportAllocs()
	backing, err := store.NewShardedMem(scaleSlots, scaleBlockSize, scaleShards)
	if err != nil {
		b.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { ln.Close() })
	go store.Serve(ln, backing) //nolint:errcheck
	addr := ln.Addr().String()

	b.Run("transport=remote1", func(b *testing.B) {
		b.ReportAllocs()
		r, err := store.Dial(addr)
		if err != nil {
			b.Fatal(err)
		}
		defer r.Close()
		closedLoop(b, r, 16)
	})
	b.Run("transport=pool16", func(b *testing.B) {
		b.ReportAllocs()
		p, err := store.DialPool(addr, 16)
		if err != nil {
			b.Fatal(err)
		}
		defer p.Close()
		closedLoop(b, p, 16)
	})
}
