package store

import "dpstore/internal/block"

// Slab allocation for batch results: every ReadBatch in this package used
// to allocate one block.Block per address, which made per-block allocation
// the top line of the allocation profile (≈40% of objects on the remote
// hot path came from Mem.ReadBatch alone). A slab carves all n blocks out
// of one backing array, so a batch result costs exactly two allocations —
// the backing bytes and the header slice — independent of batch size.
//
// # Ownership rules (the decode→apply handoff)
//
//   - The slab is the caller's. BatchServer's contract ("ReadBatch returns
//     copies") is unchanged: the caller may retain and mutate the returned
//     blocks indefinitely, and the store never touches them again.
//   - Blocks within one slab share a backing array. Each is capacity-capped
//     to its own extent, so an append through one block can never bleed into
//     its neighbor — but retaining a single block pins the whole batch's
//     backing (len(addrs)·blockSize bytes, bounded by the request the caller
//     itself made, never by MaxFrame or another tenant's batch).
//   - Producers (Mem, Durable, Remote) must fully overwrite every
//     block before returning the slab; a slab never carries recycled bytes
//     because it is freshly allocated, and it is never pooled precisely
//     because ownership transfers to the caller.
type slab []block.Block

// newSlab returns n blocks of size bytes carved from one backing array in
// exactly two allocations. The blocks are zeroed, contiguous, and
// capacity-capped to size.
func newSlab(n, size int) slab {
	if n == 0 {
		return nil
	}
	backing := make([]byte, n*size)
	out := make(slab, n)
	for i := range out {
		out[i] = block.Block(backing[i*size : (i+1)*size : (i+1)*size])
	}
	return out
}

// VectoredIO reports whether this build issues coalesced batch runs as
// single preadv/pwritev syscalls or through the portable staging-buffer
// fallback — see the fallback matrix in DESIGN.md §HotPath. Daemons log it
// at startup so recorded measurements are attributable to a build flavor.
func VectoredIO() bool { return vectoredIO }

// BatchAppender is the serve loop's zero-copy read fast path: append the
// blocks at addrs, in order, directly onto dst — straight into the response
// frame buffer, with no intermediate slab at all. Implementations must
// either append exactly len(addrs) blocks of BlockSize() bytes or return dst
// unchanged alongside the error (no partial appends), and must not retain
// dst. Stores without it fall back to ReadBatch plus a copy.
type BatchAppender interface {
	AppendReadBatch(dst []byte, addrs []int) ([]byte, error)
}
