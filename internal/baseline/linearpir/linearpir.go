// Package linearpir provides the two PIR baselines the paper positions its
// results against.
//
// Trivial single-server PIR downloads the whole database per query — the
// cost floor Theorem 3.3 proves unavoidable for errorless schemes, DP or
// not. The two-server XOR scheme of Chor–Goldreich–Kushilevitz–Sudan [19]
// achieves perfect (information-theoretic) privacy against one corrupted
// server with one block of reply per server, but each server still touches
// about half the database per query, so server computation remains Θ(n).
package linearpir

import (
	"errors"
	"fmt"

	"dpstore/internal/block"
	"dpstore/internal/rng"
	"dpstore/internal/store"
)

// Trivial is single-server linear-scan PIR: perfect privacy, perfect
// correctness, n operations per query.
type Trivial struct {
	server store.BatchServer
	n      int
}

// NewTrivial creates a trivial PIR client.
func NewTrivial(server store.Server) *Trivial {
	return &Trivial{server: store.AsBatch(server), n: server.Size()}
}

// Query downloads every record in batched scan windows and keeps record q.
// The access pattern is identical for every query, giving obliviousness
// (ε = 0, δ = 0); on a Durable-backed server each window becomes one
// sequential read, and client memory stays O(ScanWindow) at any n.
func (t *Trivial) Query(q int) (block.Block, error) {
	if q < 0 || q >= t.n {
		return nil, fmt.Errorf("linearpir: query %d out of range [0,%d)", q, t.n)
	}
	var want block.Block
	err := store.ScanRange(t.server, t.n, func(base int, blocks []block.Block) error {
		if q >= base && q < base+len(blocks) {
			want = blocks[q-base]
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("linearpir: scanning: %w", err)
	}
	return want, nil
}

// TwoServerXOR is the classic 2-server information-theoretic PIR: the
// client sends a uniform subset S ⊆ [n] to server 0 and S △ {q} to server
// 1; each server replies with the XOR of the requested blocks; the client
// XORs the two replies to recover B_q. Each server individually sees a
// uniform subset, independent of q: perfect privacy against one corrupted
// server.
type TwoServerXOR struct {
	servers [2]store.BatchServer
	n       int
	src     *rng.Source
}

// NewTwoServerXOR builds the client over two replicas of the database.
func NewTwoServerXOR(s0, s1 store.Server, src *rng.Source) (*TwoServerXOR, error) {
	if src == nil {
		return nil, errors.New("linearpir: rand source is required")
	}
	if s0.Size() != s1.Size() || s0.BlockSize() != s1.BlockSize() {
		return nil, fmt.Errorf("linearpir: replica shape mismatch: (%d,%d) vs (%d,%d)",
			s0.Size(), s0.BlockSize(), s1.Size(), s1.BlockSize())
	}
	return &TwoServerXOR{servers: [2]store.BatchServer{store.AsBatch(s0), store.AsBatch(s1)}, n: s0.Size(), src: src}, nil
}

// xorAnswer computes the server-side XOR over the selected blocks, fetching
// the subset in one batch. The download counter of a Counting wrapper
// therefore meters true server work.
func xorAnswer(s store.BatchServer, sel []bool, blockSize int) (block.Block, error) {
	addrs := make([]int, 0, len(sel)/2)
	for j, in := range sel {
		if in {
			addrs = append(addrs, j)
		}
	}
	acc := block.New(blockSize)
	err := store.ReadWindows(s, addrs, func(_ int, blocks []block.Block) error {
		for _, b := range blocks {
			for i := range acc {
				acc[i] ^= b[i]
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("linearpir: xor scan: %w", err)
	}
	return acc, nil
}

// Query retrieves record q with information-theoretic privacy.
func (t *TwoServerXOR) Query(q int) (block.Block, error) {
	if q < 0 || q >= t.n {
		return nil, fmt.Errorf("linearpir: query %d out of range [0,%d)", q, t.n)
	}
	sel0 := make([]bool, t.n)
	sel1 := make([]bool, t.n)
	for j := range sel0 {
		sel0[j] = t.src.Bernoulli(0.5)
		sel1[j] = sel0[j]
	}
	sel1[q] = !sel1[q]
	bs := t.servers[0].BlockSize()
	// Both subsets are fixed before any traffic, and the two servers are
	// independent parties (the non-collusion model), so the scans run
	// concurrently: latency is one server's scan, not the sum of both.
	sels := [2][]bool{sel0, sel1}
	var answers [2]block.Block
	err := store.Concurrently(2, func(i int) error {
		a, err := xorAnswer(t.servers[i], sels[i], bs)
		if err != nil {
			return err
		}
		answers[i] = a
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := block.New(bs)
	for i := range out {
		out[i] = answers[0][i] ^ answers[1][i]
	}
	return out, nil
}
