package store

import (
	"bufio"
	"errors"
	"net"
	"path/filepath"
	"testing"

	"dpstore/internal/block"
	"dpstore/internal/wire"
)

// Compile-time checks: every in-tree Server implements BatchServer
// natively.
var (
	_ BatchServer = (*Mem)(nil)
	_ BatchServer = (*Durable)(nil)
	_ BatchServer = (*Counting)(nil)
	_ BatchServer = (*Faulty)(nil)
	_ BatchServer = (*Remote)(nil)
)

// exerciseBatch runs a batch conformance suite against any server.
func exerciseBatch(t *testing.T, s Server, n, bs int) {
	t.Helper()
	b := AsBatch(s)
	if native, ok := s.(BatchServer); ok && BatchServer(native) != b {
		t.Fatal("AsBatch wrapped a native BatchServer")
	}

	// WriteBatch with duplicates: later op wins, like sequential uploads.
	ops := make([]WriteOp, 0, n+2)
	for i := 0; i < n; i++ {
		ops = append(ops, WriteOp{Addr: i, Block: block.Pattern(uint64(i), bs)})
	}
	ops = append(ops,
		WriteOp{Addr: 2, Block: block.Pattern(100, bs)},
		WriteOp{Addr: 2, Block: block.Pattern(200, bs)},
	)
	if err := b.WriteBatch(ops); err != nil {
		t.Fatal(err)
	}

	// ReadBatch preserves request order, including duplicates and
	// non-monotonic addresses.
	addrs := []int{n - 1, 0, 2, 2, 1}
	got, err := b.ReadBatch(addrs)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(addrs) {
		t.Fatalf("got %d blocks, want %d", len(got), len(addrs))
	}
	wantID := func(a int) uint64 {
		if a == 2 {
			return 200
		}
		return uint64(a)
	}
	for i, a := range addrs {
		if !block.CheckPattern(got[i], wantID(a)) {
			t.Fatalf("block %d (addr %d) holds wrong data", i, a)
		}
	}
	// Returned blocks are independent copies: mutating one leaves its
	// duplicate and the store untouched.
	got[2][0] ^= 0xff
	if !block.CheckPattern(got[3], 200) {
		t.Fatal("duplicate addresses alias the same memory")
	}
	again, err := b.ReadBatch([]int{2})
	if err != nil {
		t.Fatal(err)
	}
	if !block.CheckPattern(again[0], 200) {
		t.Fatal("ReadBatch returned aliased storage")
	}

	// Empty batches are no-ops.
	if blocks, err := b.ReadBatch(nil); err != nil || len(blocks) != 0 {
		t.Fatalf("empty ReadBatch: %v, %v", blocks, err)
	}
	if err := b.WriteBatch(nil); err != nil {
		t.Fatalf("empty WriteBatch: %v", err)
	}

	// Errors: any bad element fails the batch.
	if _, err := b.ReadBatch([]int{0, n}); err == nil {
		t.Fatal("out-of-range read batch accepted")
	}
	if err := b.WriteBatch([]WriteOp{{Addr: -1, Block: block.New(bs)}}); err == nil {
		t.Fatal("out-of-range write batch accepted")
	}
	if err := b.WriteBatch([]WriteOp{{Addr: 0, Block: block.New(bs + 1)}}); err == nil {
		t.Fatal("wrong-size write batch accepted")
	}
}

func TestMemBatchConformance(t *testing.T) {
	m, err := NewMem(8, 32)
	if err != nil {
		t.Fatal(err)
	}
	exerciseBatch(t, m, 8, 32)
}

func TestDurableBatchConformance(t *testing.T) {
	exerciseBatch(t, newTestDurable(t, 8, 32), 8, 32)
}

// newTestDurable creates a Durable store in a test temp dir, closed at
// cleanup. SyncNone: the coalescing tests exercise the page paths, not
// the log's fsync discipline.
func newTestDurable(t *testing.T, n, bs int) *Durable {
	t.Helper()
	d, err := CreateDurable(filepath.Join(t.TempDir(), "blocks"), n, bs, DurableOptions{Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

func TestCountingBatchConformance(t *testing.T) {
	m, _ := NewMem(8, 32)
	exerciseBatch(t, NewCounting(m), 8, 32)
}

func TestLoopAdapterConformance(t *testing.T) {
	m, _ := NewMem(8, 32)
	pb := PerBlock(m)
	if _, ok := pb.(BatchServer); ok {
		t.Fatal("PerBlock did not hide the native batch methods")
	}
	exerciseBatch(t, pb, 8, 32)
}

// TestDurableBatchGapsAndRuns drives the coalescing paths: scattered
// singletons, a consecutive run, duplicates inside a run, and a gap that
// must split two runs (a regression guard against zero-filling the gap).
func TestDurableBatchGapsAndRuns(t *testing.T) {
	const n, bs = 16, 8
	f := newTestDurable(t, n, bs)
	for i := 0; i < n; i++ {
		if err := f.Upload(i, block.Pattern(uint64(i), bs)); err != nil {
			t.Fatal(err)
		}
	}
	// Writes at 3, 3, and 5: addresses 3 and 5 coalesce-sort adjacent but
	// are NOT consecutive; slot 4 must keep its contents.
	if err := f.WriteBatch([]WriteOp{
		{Addr: 3, Block: block.Pattern(33, bs)},
		{Addr: 5, Block: block.Pattern(55, bs)},
		{Addr: 3, Block: block.Pattern(99, bs)},
	}); err != nil {
		t.Fatal(err)
	}
	want := map[int]uint64{3: 99, 4: 4, 5: 55}
	for a, id := range want {
		got, err := f.Download(a)
		if err != nil {
			t.Fatal(err)
		}
		if !block.CheckPattern(got, id) {
			t.Fatalf("slot %d corrupted by coalesced write", a)
		}
	}
	// A read spanning runs, gaps, and duplicates.
	got, err := f.ReadBatch([]int{9, 3, 4, 5, 3, 0, 15})
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range []uint64{9, 99, 4, 55, 99, 0, 15} {
		if !block.CheckPattern(got[i], id) {
			t.Fatalf("batch element %d wrong", i)
		}
	}
}

// TestDurableBatchRunCap shrinks the run-buffer cap so a full-store batch
// is forced through the sub-run splitting, proving bounded-memory
// coalescing preserves contents, duplicate order, and the
// independent-copies contract.
func TestDurableBatchRunCap(t *testing.T) {
	const n, bs = 32, 8
	old := maxRunBytes
	maxRunBytes = 3 * (bs + pageTrailer) // three pages per I/O
	defer func() { maxRunBytes = old }()

	f := newTestDurable(t, n, bs)

	// Full-store write with a duplicate pair straddling typical splits.
	ops := make([]WriteOp, 0, n+1)
	for i := 0; i < n; i++ {
		ops = append(ops, WriteOp{Addr: i, Block: block.Pattern(uint64(i), bs)})
	}
	ops = append(ops, WriteOp{Addr: 7, Block: block.Pattern(777, bs)})
	if err := f.WriteBatch(ops); err != nil {
		t.Fatal(err)
	}

	// Full-store read plus a duplicate.
	addrs := make([]int, 0, n+1)
	for i := 0; i < n; i++ {
		addrs = append(addrs, i)
	}
	addrs = append(addrs, 7)
	got, err := f.ReadBatch(addrs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		want := uint64(i)
		if i == 7 {
			want = 777
		}
		if !block.CheckPattern(got[i], want) {
			t.Fatalf("slot %d wrong after capped batch", i)
		}
	}
	// Duplicate is independent of the first occurrence.
	got[7][0] ^= 0xff
	if !block.CheckPattern(got[n], 777) {
		t.Fatal("duplicate aliases the first occurrence")
	}
}

// TestCountingBatchStatsMatchPerBlock pins the paper's overhead accounting
// to the transport: a batched access pattern and its per-block equivalent
// must report identical Stats (ops, bytes, unique addresses), so every
// experiment table is transport-independent.
func TestCountingBatchStatsMatchPerBlock(t *testing.T) {
	const n, bs = 32, 16
	reads := []int{5, 0, 5, 31, 7}
	writes := []int{3, 9, 3}

	run := func(batched bool) Stats {
		m, err := NewMem(n, bs)
		if err != nil {
			t.Fatal(err)
		}
		c := NewCounting(m)
		if batched {
			if _, err := c.ReadBatch(reads); err != nil {
				t.Fatal(err)
			}
			ops := make([]WriteOp, len(writes))
			for i, a := range writes {
				ops[i] = WriteOp{Addr: a, Block: block.Pattern(uint64(a), bs)}
			}
			if err := c.WriteBatch(ops); err != nil {
				t.Fatal(err)
			}
		} else {
			for _, a := range reads {
				if _, err := c.Download(a); err != nil {
					t.Fatal(err)
				}
			}
			for _, a := range writes {
				if err := c.Upload(a, block.Pattern(uint64(a), bs)); err != nil {
					t.Fatal(err)
				}
			}
		}
		return c.Stats()
	}

	if got, want := run(true), run(false); got != want {
		t.Fatalf("batched stats %+v != per-block stats %+v", got, want)
	}
}

// TestFaultyBatchOffsets checks the fault schedule counts batch elements as
// individual operations: offset k trips inside the batch containing op k,
// with the prefix of a write batch applied exactly as sequential uploads
// would have been.
func TestFaultyBatchOffsets(t *testing.T) {
	const n, bs = 8, 16
	for offset := int64(1); offset <= 6; offset++ {
		m, _ := NewMem(n, bs)
		f := NewFaulty(m, offset, nil)
		ops := make([]WriteOp, 4)
		for i := range ops {
			ops[i] = WriteOp{Addr: i, Block: block.Pattern(uint64(i+1), bs)}
		}
		werr := f.WriteBatch(ops)           // ops 1..4 (ticking stops at the fault)
		_, rerr := f.ReadBatch([]int{0, 1}) // the next 2 ops
		if offset <= 4 {
			if !errors.Is(werr, ErrInjected) {
				t.Fatalf("offset %d: write batch err = %v", offset, werr)
			}
			// Ops before the fault landed; ops at and after it did not.
			for i := 0; i < 4; i++ {
				got, err := m.Download(i)
				if err != nil {
					t.Fatal(err)
				}
				if applied := int64(i) < offset-1; applied != !got.IsZero() {
					t.Fatalf("offset %d: slot %d applied=%v, want %v", offset, i, !got.IsZero(), applied)
				}
			}
		} else {
			if werr != nil {
				t.Fatalf("offset %d: write batch err = %v", offset, werr)
			}
			if !errors.Is(rerr, ErrInjected) {
				t.Fatalf("offset %d: read batch err = %v", offset, rerr)
			}
		}
		// Ticking stops at the faulting op, exactly like a per-op caller
		// that aborts on first error: a failed write batch leaves the later
		// elements uncounted.
		want := offset
		if offset <= 4 {
			want = offset + 2
		}
		if f.Ops() != want {
			t.Fatalf("offset %d: ticked %d ops, want %d", offset, f.Ops(), want)
		}
	}
}

// TestRemoteBatchEndToEnd drives the batch frames through a real TCP
// loopback: one WriteBatch round trip, one ReadBatch round trip, contents
// intact, errors surfaced without poisoning the connection.
func TestRemoteBatchEndToEnd(t *testing.T) {
	backing, _ := NewMem(16, 32)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go Serve(ln, backing) //nolint:errcheck // returns on listener close

	r, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	exerciseBatch(t, r, 16, 32)

	base := r.RoundTrips()
	ops := make([]WriteOp, 10)
	for i := range ops {
		ops[i] = WriteOp{Addr: i, Block: block.Pattern(uint64(i), 32)}
	}
	if err := r.WriteBatch(ops); err != nil {
		t.Fatal(err)
	}
	addrs := make([]int, 10)
	for i := range addrs {
		addrs[i] = 9 - i
	}
	blocks, err := r.ReadBatch(addrs)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range addrs {
		if !block.CheckPattern(blocks[i], uint64(a)) {
			t.Fatalf("block %d (addr %d) corrupted over the wire", i, a)
		}
	}
	if got := r.RoundTrips() - base; got != 2 {
		t.Fatalf("10 writes + 10 reads took %d round trips, want 2", got)
	}
	// The batch lands in the backing store, not just the wire.
	got, err := backing.Download(4)
	if err != nil {
		t.Fatal(err)
	}
	if !block.CheckPattern(got, 4) {
		t.Fatal("batched write did not reach the backing store")
	}
	// A failing batch reports the server-side error and leaves the
	// connection usable.
	if _, err := r.ReadBatch([]int{0, 99}); err == nil {
		t.Fatal("out-of-range batch accepted over the wire")
	}
	if _, err := r.ReadBatch([]int{0}); err != nil {
		t.Fatalf("connection unusable after batch error: %v", err)
	}
}

// TestDialRejectsInvalidShape: a hostile server must not be able to push a
// zero block size through the handshake (batch chunk sizing divides by it).
func TestDialRejectsInvalidShape(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, err := wire.ReadFrame(bufio.NewReader(conn)); err != nil {
			return
		}
		wire.WriteFrame(conn, wire.EncodeInfo(wire.Info{Size: 8, BlockSize: 0})) //nolint:errcheck
	}()
	if _, err := Dial(ln.Addr().String()); err == nil {
		t.Fatal("Dial accepted a server reporting blockSize = 0")
	}
}

// TestRemoteChunkSizing checks both frame directions constrain a chunk:
// for blocks narrower than the 8-byte wire address, the request frame is
// the binding constraint, not the response.
func TestRemoteChunkSizing(t *testing.T) {
	r := &Remote{maxFrame: 4 + 800}
	if got := r.readChunk(100); got != 8 { // response-bound: 800/100
		t.Fatalf("readChunk = %d, want 8", got)
	}
	if got := r.readChunk(4); got != 100 { // request-bound: 800/8, not 800/4
		t.Fatalf("readChunk = %d, want 100", got)
	}
	if got := r.writeChunk(4); got != 66 { // 800/(8+4)
		t.Fatalf("writeChunk = %d, want 66", got)
	}
}

// TestRemoteWriteBatchRejectsRaggedBlocks: non-uniform block sizes cannot
// be framed and must fail client-side with the store's size error, never
// mis-split on the wire.
func TestRemoteWriteBatchRejectsRaggedBlocks(t *testing.T) {
	backing, _ := NewMem(8, 16)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go Serve(ln, backing) //nolint:errcheck

	r, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	err = r.WriteBatch([]WriteOp{
		{Addr: 0, Block: block.New(8)},
		{Addr: 1, Block: block.New(24)},
	})
	if !errors.Is(err, block.ErrSize) {
		t.Fatalf("ragged write batch: err = %v, want block.ErrSize", err)
	}
	// Nothing reached the store, and the connection is still usable.
	b, err := backing.Download(0)
	if err != nil {
		t.Fatal(err)
	}
	if !b.IsZero() {
		t.Fatal("ragged batch partially applied")
	}
	if err := r.WriteBatch([]WriteOp{{Addr: 0, Block: block.Pattern(1, 16)}}); err != nil {
		t.Fatalf("connection unusable after rejected batch: %v", err)
	}
}

// TestRemoteBatchChunking shrinks the Remote's frame budget so batches are
// forced to split, proving correctness is preserved when a batch exceeds
// MaxFrame (the 16 MiB production ceiling is impractical to exercise
// directly in a unit test).
func TestRemoteBatchChunking(t *testing.T) {
	const n, bs = 64, 32
	backing, _ := NewMem(n, bs)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go Serve(ln, backing) //nolint:errcheck

	r, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.maxFrame = 4 + 5*(8+bs) // five write ops (and ⌊204/32⌋ = 6 reads) per frame

	ops := make([]WriteOp, n)
	addrs := make([]int, n)
	for i := range ops {
		ops[i] = WriteOp{Addr: i, Block: block.Pattern(uint64(i), bs)}
		addrs[i] = i
	}
	base := r.RoundTrips()
	if err := r.WriteBatch(ops); err != nil {
		t.Fatal(err)
	}
	wantWrite := int64((n + 4) / 5)
	if got := r.RoundTrips() - base; got != wantWrite {
		t.Fatalf("chunked write batch took %d trips, want %d", got, wantWrite)
	}
	base = r.RoundTrips()
	blocks, err := r.ReadBatch(addrs)
	if err != nil {
		t.Fatal(err)
	}
	wantRead := int64((n + 5) / 6)
	if got := r.RoundTrips() - base; got != wantRead {
		t.Fatalf("chunked read batch took %d trips, want %d", got, wantRead)
	}
	for i := range addrs {
		if !block.CheckPattern(blocks[i], uint64(i)) {
			t.Fatalf("chunked block %d corrupted", i)
		}
	}
}
