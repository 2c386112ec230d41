package store

import (
	"fmt"
	"time"

	"dpstore/internal/block"
)

// Sharded stripes a logical address space over K independently locked
// sub-stores, so concurrent clients stop serializing on one mutex: with K
// shards, up to K operations proceed in parallel, one per shard lock (and,
// for disk-backed shards, one per spindle/file handle).
//
// Striping is round-robin: logical address a lives in shard a mod K at
// local slot a div K. Round-robin has two properties the constructions
// need. First, any address multiset — uniform decoy sets, tree paths,
// sequential scans — spreads across shards near-evenly, so no access
// pattern concentrates on one lock. Second, a contiguous logical range
// maps to a contiguous local range within every shard, so the Durable
// engine's run-coalescing survives sharding: a ScanRange window becomes K
// sequential reads executing concurrently instead of one.
//
// A sharded batch is transcript-equivalent to the unsharded one: the same
// (op, address) multiset reaches storage, and a repeated address always
// routes to the same shard in submission order, preserving read-your-write
// and last-write-wins semantics within a batch. Only the physical layout —
// invisible to the paper's adversary, who observes logical addresses at
// the wire — changes.
type Sharded struct {
	shards    []BatchServer
	n         int
	blockSize int
	// parallelMin is the total batch size at which a batch is partitioned
	// and its sub-batches fanned out on goroutines. Below it the batch
	// runs per-op on the caller's goroutine — each op holds only its own
	// shard's lock for one copy, so concurrent clients still scale, but
	// neither partition bookkeeping nor goroutine dispatch (~1 µs/shard)
	// is paid on work that costs less than the dispatch. Zero means
	// always partition and fan out.
	parallelMin int
}

// memParallelMin is the default parallelism threshold for in-memory
// shards: below ~128 addresses the batch's memcpy work is cheaper than
// partition + dispatch, so small per-query batches (DP-RAM's pair, Path
// ORAM's path) stay on the caller's goroutine while scan windows fan out.
const memParallelMin = 128

// ShardSlots returns the number of slots shard i of k holds when a logical
// address space of n slots is striped round-robin — ⌈(n−i)/k⌉. Use it to
// size the sub-stores handed to NewSharded (for example, K files).
func ShardSlots(n, k, i int) int {
	return (n - i + k - 1) / k
}

// NewSharded stripes a logical address space over the given sub-stores.
// All shards must share one block size, and shard i must hold exactly
// ShardSlots(n, k, i) slots for the logical size n = Σ sizes; the
// round-robin layout is a bijection only for that shape.
//
// Sub-batches of every size execute concurrently, the right default for
// I/O-bound shards (files, remotes) whose per-operation latency dwarfs
// goroutine dispatch; for in-memory shards use NewShardedMem or raise
// SetParallelMin.
func NewSharded(shards []Server) (*Sharded, error) {
	k := len(shards)
	if k == 0 {
		return nil, fmt.Errorf("store: sharded server needs at least one shard")
	}
	n := 0
	blockSize := shards[0].BlockSize()
	for i, sh := range shards {
		if sh.BlockSize() != blockSize {
			return nil, fmt.Errorf("store: shard %d block size %d, want %d", i, sh.BlockSize(), blockSize)
		}
		n += sh.Size()
	}
	s := &Sharded{shards: make([]BatchServer, k), n: n, blockSize: blockSize}
	for i, sh := range shards {
		if want := ShardSlots(n, k, i); sh.Size() != want {
			return nil, fmt.Errorf("store: shard %d holds %d slots, want %d for %d striped over %d", i, sh.Size(), want, n, k)
		}
		s.shards[i] = AsBatch(sh)
	}
	return s, nil
}

// NewShardedMem creates an in-memory sharded server: n zeroed slots of
// blockSize bytes striped over k independently locked Mem stores.
func NewShardedMem(n, blockSize, k int) (*Sharded, error) {
	if k <= 0 {
		return nil, fmt.Errorf("store: shard count %d must be positive", k)
	}
	if n < k {
		return nil, fmt.Errorf("store: %d slots cannot stripe over %d shards", n, k)
	}
	shards := make([]Server, k)
	for i := range shards {
		m, err := NewMem(ShardSlots(n, k, i), blockSize)
		if err != nil {
			return nil, err
		}
		shards[i] = m
	}
	s, err := NewSharded(shards)
	if err != nil {
		return nil, err
	}
	s.parallelMin = memParallelMin
	return s, nil
}

// SetParallelMin sets the total batch size at which sub-batches fan out
// onto goroutines instead of executing sequentially (0 = always fan out).
// Tune it to the shard medium: 0 for shards that block on I/O, higher for
// pure in-memory shards where tiny sub-batches cost less than a dispatch.
// Not safe to call concurrently with operations.
func (s *Sharded) SetParallelMin(minAddrs int) { s.parallelMin = minAddrs }

// Shards returns the stripe width K.
func (s *Sharded) Shards() int { return len(s.shards) }

// SyncLatency reports the slowest shard's observed WAL fsync latency
// (zero when no shard is durable) — the whole stripe commits no faster
// than its slowest member.
func (s *Sharded) SyncLatency() time.Duration {
	var worst time.Duration
	for _, sh := range s.shards {
		if r, ok := sh.(syncLatencyReporter); ok {
			if l := r.SyncLatency(); l > worst {
				worst = l
			}
		}
	}
	return worst
}

// Size implements Server.
func (s *Sharded) Size() int { return s.n }

// BlockSize implements Server.
func (s *Sharded) BlockSize() int { return s.blockSize }

func (s *Sharded) check(addr int) error {
	if addr < 0 || addr >= s.n {
		return fmt.Errorf("%w: %d (size %d)", ErrAddr, addr, s.n)
	}
	return nil
}

// Download implements Server, touching only the owning shard's lock.
func (s *Sharded) Download(addr int) (block.Block, error) {
	if err := s.check(addr); err != nil {
		return nil, err
	}
	return s.shards[addr%len(s.shards)].Download(addr / len(s.shards))
}

// Upload implements Server, touching only the owning shard's lock.
func (s *Sharded) Upload(addr int, b block.Block) error {
	if err := s.check(addr); err != nil {
		return err
	}
	return s.shards[addr%len(s.shards)].Upload(addr/len(s.shards), b)
}

// partition splits a logical address list into per-shard local address
// lists plus, for each, the positions those addresses came from, so results
// can be scattered back into request order.
func (s *Sharded) partition(addrs []int) (local [][]int, pos [][]int, err error) {
	k := len(s.shards)
	counts := make([]int, k)
	for _, a := range addrs {
		if err := s.check(a); err != nil {
			return nil, nil, err
		}
		counts[a%k]++
	}
	local = make([][]int, k)
	pos = make([][]int, k)
	for i, c := range counts {
		if c > 0 {
			local[i] = make([]int, 0, c)
			pos[i] = make([]int, 0, c)
		}
	}
	for i, a := range addrs {
		local[a%k] = append(local[a%k], a/k)
		pos[a%k] = append(pos[a%k], i)
	}
	return local, pos, nil
}

// busyShards lists the shards a partition actually touches.
func busyShards[T any](local [][]T) []int {
	busy := make([]int, 0, len(local))
	for i, l := range local {
		if len(l) > 0 {
			busy = append(busy, i)
		}
	}
	return busy
}

// ReadBatch implements BatchServer: the batch is partitioned by shard and
// the per-shard sub-batches execute concurrently, one goroutine per busy
// shard — or sequentially for batches under the parallelism threshold
// (see SetParallelMin), which still touches each shard's lock only
// briefly. Results come back in request order.
func (s *Sharded) ReadBatch(addrs []int) ([]block.Block, error) {
	if len(addrs) == 0 {
		return nil, nil
	}
	k := len(s.shards)
	if len(addrs) < s.parallelMin {
		// Small batch: the partition bookkeeping costs more than it
		// saves, so read per-op in submission order — each access grabs
		// only its own shard's lock for the one copy.
		out := make([]block.Block, len(addrs))
		for i, a := range addrs {
			if err := s.check(a); err != nil {
				return nil, err
			}
			b, err := s.shards[a%k].Download(a / k)
			if err != nil {
				return nil, err
			}
			out[i] = b
		}
		return out, nil
	}
	local, pos, err := s.partition(addrs)
	if err != nil {
		return nil, err
	}
	out := make([]block.Block, len(addrs))
	scatter := func(shard int) error {
		blocks, err := s.shards[shard].ReadBatch(local[shard])
		if err != nil {
			return err
		}
		for j, p := range pos[shard] {
			out[p] = blocks[j]
		}
		return nil
	}
	busy := busyShards(local)
	if len(busy) == 1 {
		if err := scatter(busy[0]); err != nil {
			return nil, err
		}
		return out, nil
	}
	if err := Concurrently(len(busy), func(i int) error { return scatter(busy[i]) }); err != nil {
		return nil, err
	}
	return out, nil
}

// WriteBatch implements BatchServer. Every op is validated (address range
// and block size) before any shard is touched, so a rejected batch leaves
// the store unmodified; after validation the per-shard sub-batches execute
// concurrently. A repeated address keeps its submission order — it always
// lands in the same shard's sub-batch, which applies in order — so
// last-write-wins matches the sequential semantics.
func (s *Sharded) WriteBatch(ops []WriteOp) error {
	if len(ops) == 0 {
		return nil
	}
	k := len(s.shards)
	if len(ops) < s.parallelMin {
		// Small batch: validate everything first (all-or-nothing on
		// rejection, like the partitioned path), then apply per-op.
		for _, op := range ops {
			if err := s.check(op.Addr); err != nil {
				return err
			}
			if len(op.Block) != s.blockSize {
				return fmt.Errorf("%w: got %d want %d", block.ErrSize, len(op.Block), s.blockSize)
			}
		}
		for _, op := range ops {
			if err := s.shards[op.Addr%k].Upload(op.Addr/k, op.Block); err != nil {
				return err
			}
		}
		return nil
	}
	counts := make([]int, k)
	for _, op := range ops {
		if err := s.check(op.Addr); err != nil {
			return err
		}
		if len(op.Block) != s.blockSize {
			return fmt.Errorf("%w: got %d want %d", block.ErrSize, len(op.Block), s.blockSize)
		}
		counts[op.Addr%k]++
	}
	local := make([][]WriteOp, k)
	for i, c := range counts {
		if c > 0 {
			local[i] = make([]WriteOp, 0, c)
		}
	}
	for _, op := range ops {
		sh := op.Addr % k
		local[sh] = append(local[sh], WriteOp{Addr: op.Addr / k, Block: op.Block})
	}
	busy := busyShards(local)
	if len(busy) == 1 {
		return s.shards[busy[0]].WriteBatch(local[busy[0]])
	}
	return Concurrently(len(busy), func(i int) error {
		return s.shards[busy[i]].WriteBatch(local[busy[i]])
	})
}
