package dpstore

// Closed-loop durability benchmarks: C goroutine clients issue
// back-to-back WriteBatch calls (no think time) against one disk-backed
// store, comparing three durability disciplines of store.Durable on
// identical hardware:
//
//   - walSyncNone: SyncNone — the log is written but never fsynced on the
//                  write path, the no-fsync reference on the same engine
//                  and the throughput ceiling;
//   - walSyncEach: SyncEach — one fsync per WriteBatch, the naive
//                  durable discipline;
//   - walGroup:    SyncGroup (the default) — all writers waiting during a
//                  flush share the next fsync, amortizing durability
//                  exactly the way the batch transport amortizes round
//                  trips.
//
// The paper's schemes bound the WORK per access; this table bounds the
// durability overhead factor on top of it. Group commit's advantage grows
// with client count (more writers share each fsync), which is the
// production shape: the daemon serves many tenants concurrently. Numbers
// are recorded in EXPERIMENTS.md §Durability; the acceptance bar is
// group-commit ≥ 0.5× the no-fsync throughput at 16 clients.

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"dpstore/internal/block"
	"dpstore/internal/store"
)

const (
	durSlots     = 1 << 12
	durBlockSize = block.DefaultSize
)

// benchWriteClosedLoop drives C clients of back-to-back batch-op write
// batches and reports blocks/s.
func benchWriteClosedLoop(b *testing.B, srv store.BatchServer, clients, batch int) {
	b.Helper()
	var start, done sync.WaitGroup
	start.Add(1)
	done.Add(clients)
	perClient := (b.N + clients - 1) / clients
	for c := 0; c < clients; c++ {
		go func(seed int64) {
			defer done.Done()
			rnd := rand.New(rand.NewSource(seed))
			ops := make([]store.WriteOp, batch)
			payload := make([]block.Block, batch)
			for i := range payload {
				payload[i] = block.New(durBlockSize)
				rnd.Read(payload[i])
			}
			start.Wait()
			for n := 0; n < perClient; n++ {
				for i := range ops {
					ops[i] = store.WriteOp{Addr: rnd.Intn(durSlots), Block: payload[i]}
				}
				if err := srv.WriteBatch(ops); err != nil {
					panic(err)
				}
			}
		}(int64(c) + 1)
	}
	b.ResetTimer()
	start.Done()
	done.Wait()
	b.StopTimer()
	blocks := float64(perClient*clients) * float64(batch)
	b.ReportMetric(blocks/b.Elapsed().Seconds(), "blocks/s")
}

func durBackends() []struct {
	name string
	open func(b *testing.B) store.BatchServer
} {
	open := func(mode store.SyncMode) func(b *testing.B) store.BatchServer {
		return func(b *testing.B) store.BatchServer { return openBenchDurable(b, durSlots, mode) }
	}
	return []struct {
		name string
		open func(b *testing.B) store.BatchServer
	}{
		{"walSyncNone", open(store.SyncNone)},
		{"walSyncEach", open(store.SyncEach)},
		{"walGroup", open(store.SyncGroup)},
	}
}

// openBenchDurable creates an n × durBlockSize Durable store in a
// benchmark temp dir, closed at cleanup.
func openBenchDurable(b *testing.B, n int, mode store.SyncMode) *store.Durable {
	d, err := store.CreateDurable(filepath.Join(b.TempDir(), "blocks"), n, durBlockSize,
		store.DurableOptions{Sync: mode})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { d.Close() })
	return d
}

// BenchmarkDurableWrite is the 8-op-batch (per-query write set) closed
// loop across the client axis: the fsync-amortization story.
func BenchmarkDurableWrite(b *testing.B) {
	b.ReportAllocs()
	for _, be := range durBackends() {
		for _, clients := range []int{1, 4, 16} {
			b.Run(fmt.Sprintf("%s/clients=%d", be.name, clients), func(b *testing.B) {
				b.ReportAllocs()
				benchWriteClosedLoop(b, be.open(b), clients, 8)
			})
		}
	}
}

// BenchmarkDurableWriteBatched holds clients at 16 and scales the batch —
// the shape the proxy's write-behind Pipeline produces, which coalesces
// queued evictions into one WriteBatch of up to its coalesce cap (1024
// ops). This is where the engine's durability overhead factor vs its
// no-fsync reference is judged: the group-commit sync amortizes over
// clients × batch blocks.
func BenchmarkDurableWriteBatched(b *testing.B) {
	b.ReportAllocs()
	for _, be := range durBackends() {
		for _, batch := range []int{64, 256} {
			b.Run(fmt.Sprintf("%s/batch=%d", be.name, batch), func(b *testing.B) {
				b.ReportAllocs()
				benchWriteClosedLoop(b, be.open(b), 16, batch)
			})
		}
	}
}

// BenchmarkDurableRead measures the checksummed page read path: sorted
// run coalescing plus CRC verification (no WAL involvement on reads).
func BenchmarkDurableRead(b *testing.B) {
	b.Run("wal", func(b *testing.B) {
		b.ReportAllocs()
		srv := openBenchDurable(b, durSlots, store.SyncGroup)
		rnd := rand.New(rand.NewSource(1))
		addrs := make([]int, 8)
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			for i := range addrs {
				addrs[i] = rnd.Intn(durSlots)
			}
			if _, err := srv.ReadBatch(addrs); err != nil {
				b.Fatal(err)
			}
		}
	})
}
