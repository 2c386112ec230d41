package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"dpstore/internal/block"
)

func fillBlock(size int, seed byte) block.Block {
	b := block.New(size)
	for i := range b {
		b[i] = seed + byte(i)
	}
	return b
}

// TestDurableRoundTrip: basic Server/BatchServer semantics on the engine.
func TestDurableRoundTrip(t *testing.T) {
	base := filepath.Join(t.TempDir(), "store")
	d, err := CreateDurable(base, 16, 32, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if d.Size() != 16 || d.BlockSize() != 32 {
		t.Fatalf("shape = %d × %d", d.Size(), d.BlockSize())
	}
	// Fresh slots read back zeroed.
	got, err := d.Download(3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, block.New(32)) {
		t.Fatal("fresh slot not zeroed")
	}
	b := fillBlock(32, 7)
	if err := d.Upload(5, b); err != nil {
		t.Fatal(err)
	}
	got, err = d.Download(5)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, b) {
		t.Fatal("read-your-write failed")
	}
	// Batch with duplicates: last write wins, reads in request order.
	ops := []WriteOp{
		{Addr: 1, Block: fillBlock(32, 1)},
		{Addr: 2, Block: fillBlock(32, 2)},
		{Addr: 1, Block: fillBlock(32, 9)},
	}
	if err := d.WriteBatch(ops); err != nil {
		t.Fatal(err)
	}
	blocks, err := d.ReadBatch([]int{2, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blocks[0], fillBlock(32, 2)) || !bytes.Equal(blocks[1], fillBlock(32, 9)) {
		t.Fatal("batch semantics broken")
	}
	// Bounds and size validation.
	if err := d.Upload(16, b); err == nil {
		t.Fatal("out-of-range upload accepted")
	}
	if err := d.Upload(0, block.New(31)); err == nil {
		t.Fatal("short block accepted")
	}
}

// TestDurableMatchesMem: a random batched workload through the engine is
// bit-identical to the same workload through Mem.
func TestDurableMatchesMem(t *testing.T) {
	base := filepath.Join(t.TempDir(), "store")
	d, err := CreateDurable(base, 64, 24, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	m, err := NewMem(64, 24)
	if err != nil {
		t.Fatal(err)
	}
	rnd := uint64(12345)
	next := func(n int) int {
		rnd = rnd*6364136223846793005 + 1442695040888963407
		return int(rnd>>33) % n
	}
	for round := 0; round < 50; round++ {
		ops := make([]WriteOp, 1+next(8))
		for i := range ops {
			ops[i] = WriteOp{Addr: next(64), Block: fillBlock(24, byte(next(256)))}
		}
		if err := d.WriteBatch(ops); err != nil {
			t.Fatal(err)
		}
		if err := m.WriteBatch(ops); err != nil {
			t.Fatal(err)
		}
	}
	addrs := make([]int, 64)
	for i := range addrs {
		addrs[i] = i
	}
	dB, err := d.ReadBatch(addrs)
	if err != nil {
		t.Fatal(err)
	}
	mB, err := m.ReadBatch(addrs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range addrs {
		if !bytes.Equal(dB[i], mB[i]) {
			t.Fatalf("slot %d diverges from Mem", i)
		}
	}
}

// TestDurablePersistsAcrossReopen: acknowledged writes survive Close/Open,
// and a clean shutdown leaves an empty WAL (nothing to replay).
func TestDurablePersistsAcrossReopen(t *testing.T) {
	base := filepath.Join(t.TempDir(), "store")
	d, err := CreateDurable(base, 8, 16, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := fillBlock(16, 3)
	if err := d.Upload(2, want); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(base + ".wal"); err != nil || st.Size() != walHdrSize {
		t.Fatalf("clean close left WAL at %d bytes (err %v), want %d", st.Size(), err, walHdrSize)
	}
	d2, err := OpenDurable(base, 8, 16, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	got, err := d2.Download(2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("write did not survive reopen")
	}
	// Shape mismatch on open is rejected.
	if _, err := OpenDurable(base, 8, 32, DurableOptions{}); err == nil {
		t.Fatal("wrong block size accepted")
	}
}

// TestDurableReplayRepairsTornPage: a page torn AFTER its WAL record was
// acknowledged (crash between fsync(wal) and the page write completing)
// must be repaired by replay on the next open.
func TestDurableReplayRepairsTornPage(t *testing.T) {
	base := filepath.Join(t.TempDir(), "store")
	d, err := CreateDurable(base, 8, 16, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := fillBlock(16, 5)
	if err := d.Upload(4, want); err != nil {
		t.Fatal(err)
	}
	// Simulate the crash: abandon the engine without Close (the WAL still
	// holds the record) and tear the page on disk.
	pageOff := int64(pagesHdrSize) + 4*int64(16+pageTrailer)
	f, err := os.OpenFile(base+".pages", os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xDE, 0xAD}, pageOff+3); err != nil {
		t.Fatal(err)
	}
	f.Close()
	d2, err := OpenDurable(base, 8, 16, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	got, err := d2.Download(4)
	if err != nil {
		t.Fatalf("replay did not repair the torn page: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("replayed page holds wrong data")
	}
}

// TestDurableDetectsCorruptPage: a corrupted page NOT covered by any WAL
// record must fail its checksum on read, never return garbage.
func TestDurableDetectsCorruptPage(t *testing.T) {
	base := filepath.Join(t.TempDir(), "store")
	d, err := CreateDurable(base, 8, 16, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Upload(1, fillBlock(16, 2)); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil { // clean close: WAL empty
		t.Fatal(err)
	}
	f, err := os.OpenFile(base+".pages", os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xFF}, int64(pagesHdrSize)+1*int64(16+pageTrailer)+2); err != nil {
		t.Fatal(err)
	}
	f.Close()
	d2, err := OpenDurable(base, 8, 16, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if _, err := d2.Download(1); err == nil {
		t.Fatal("corrupt page returned without error")
	} else if _, err2 := d2.Download(0); err2 != nil {
		t.Fatalf("healthy page rejected: %v", err2)
	}
}

// TestDurableHeaderValidation: corrupt header and version skew are
// rejected with ErrCorrupt, not misread.
func TestDurableHeaderValidation(t *testing.T) {
	base := filepath.Join(t.TempDir(), "store")
	d, err := CreateDurable(base, 4, 8, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	d.Close()
	f, err := os.OpenFile(base+".pages", os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0x77}, 9); err != nil { // inside version field
		t.Fatal(err)
	}
	f.Close()
	if _, err := OpenDurable(base, 4, 8, DurableOptions{}); err == nil {
		t.Fatal("corrupted header accepted")
	}
}

// TestDurableCompaction: the WAL is truncated back to its header once it
// outgrows the limit, and the data stays intact (including across reopen).
func TestDurableCompaction(t *testing.T) {
	base := filepath.Join(t.TempDir(), "store")
	d, err := CreateDurable(base, 8, 64, DurableOptions{WALLimit: 2048})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 100; round++ {
		if err := d.Upload(round%8, fillBlock(64, byte(round))); err != nil {
			t.Fatal(err)
		}
		if sz := d.WALSize(); sz > 2048+4096 { // one record of slack
			t.Fatalf("WAL grew to %d despite 2048 limit", sz)
		}
	}
	got, err := d.Download(3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, fillBlock(64, 99)) { // round 99 wrote addr 99%8 = 3
		t.Fatal("post-compaction data wrong")
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, err := OpenDurable(base, 8, 64, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	got, err = d2.Download(3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, fillBlock(64, 99)) {
		t.Fatal("data lost across compacted reopen")
	}
}

// TestDurableShardedComposition: K engines under Sharded behave like Mem.
func TestDurableShardedComposition(t *testing.T) {
	dir := t.TempDir()
	const n, bs, k = 37, 16, 4
	subs := make([]Server, k)
	for i := range subs {
		d, err := CreateDurable(filepath.Join(dir, fmt.Sprintf("s%d", i)), ShardSlots(n, k, i), bs, DurableOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		subs[i] = d
	}
	sh, err := NewSharded(subs)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := NewMem(n, bs)
	for i := 0; i < n; i++ {
		b := fillBlock(bs, byte(3*i))
		if err := sh.Upload(i, b); err != nil {
			t.Fatal(err)
		}
		if err := m.Upload(i, b); err != nil {
			t.Fatal(err)
		}
	}
	addrs := make([]int, n)
	for i := range addrs {
		addrs[i] = n - 1 - i
	}
	sB, err := sh.ReadBatch(addrs)
	if err != nil {
		t.Fatal(err)
	}
	mB, _ := m.ReadBatch(addrs)
	for i := range addrs {
		if !bytes.Equal(sB[i], mB[i]) {
			t.Fatalf("sharded durable slot %d diverges", addrs[i])
		}
	}
}

// TestDurableSyncModes: SyncNone still persists after an explicit Sync and
// a clean Close; SyncEach works end to end.
func TestDurableSyncModes(t *testing.T) {
	for _, mode := range []SyncMode{SyncEach, SyncNone} {
		base := filepath.Join(t.TempDir(), "store")
		d, err := CreateDurable(base, 4, 8, DurableOptions{Sync: mode})
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Upload(1, fillBlock(8, 9)); err != nil {
			t.Fatal(err)
		}
		if mode == SyncNone {
			if err := d.Sync(); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		d2, err := OpenDurable(base, 4, 8, DurableOptions{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := d2.Download(1)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, fillBlock(8, 9)) {
			t.Fatalf("mode %d lost data", mode)
		}
		d2.Close()
	}
}

// TestEpochPersistence: BumpEpoch counts monotonically across "restarts"
// and survives corruption detection.
func TestEpochPersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "epoch")
	if e, err := LoadEpoch(path); err != nil || e != 0 {
		t.Fatalf("fresh epoch = %d, %v", e, err)
	}
	for want := uint64(1); want <= 3; want++ {
		got, err := BumpEpoch(path)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("bump %d returned %d", want, got)
		}
	}
	if e, err := LoadEpoch(path); err != nil || e != 3 {
		t.Fatalf("reload epoch = %d, %v", e, err)
	}
	if err := os.WriteFile(path, []byte("garbage....."), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadEpoch(path); err == nil {
		t.Fatal("corrupt epoch file accepted")
	}
}

// TestRegistryPersistence: namespace records round-trip; missing file is
// empty; version skew rejected.
func TestRegistryPersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "namespaces.json")
	if recs, err := LoadRegistry(path); err != nil || recs != nil {
		t.Fatalf("fresh registry = %v, %v", recs, err)
	}
	want := []NamespaceRecord{
		{Name: "tenant-a", Slots: 128, BlockSize: 64},
		{Name: "weird name \x00✓", Slots: 16, BlockSize: 32},
	}
	if err := SaveRegistry(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := LoadRegistry(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("registry round trip: got %v want %v", got, want)
	}
	if err := os.WriteFile(path, []byte(`{"version":99,"namespaces":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadRegistry(path); err == nil {
		t.Fatal("future registry version accepted")
	}
}

// TestWALRecordCodec: record encode/decode round-trips and rejects every
// corruption class replay depends on detecting.
func TestWALRecordCodec(t *testing.T) {
	d := newDurable("x", 8, 16, DurableOptions{})
	ops := []WriteOp{{Addr: 1, Block: fillBlock(16, 1)}, {Addr: 7, Block: fillBlock(16, 2)}}
	rec := d.encodeWALRecord(ops)
	body := rec[4:]
	got, ok := d.decodeWALRecord(body)
	if !ok || len(got) != 2 || got[0].Addr != 1 || got[1].Addr != 7 ||
		!bytes.Equal(got[0].Block, ops[0].Block) {
		t.Fatal("round trip failed")
	}
	// Flip one payload byte: CRC must fail.
	bad := append([]byte(nil), body...)
	bad[10] ^= 1
	if _, ok := d.decodeWALRecord(bad); ok {
		t.Fatal("corrupt record accepted")
	}
	// Out-of-range address with a fixed-up CRC: shape check must fail.
	bad = append([]byte(nil), body...)
	binary.BigEndian.PutUint64(bad[4:], 99)
	binary.BigEndian.PutUint32(bad[len(bad)-4:], crc32.Checksum(bad[:len(bad)-4], castagnoli))
	if _, ok := d.decodeWALRecord(bad); ok {
		t.Fatal("out-of-range address accepted")
	}
	// Truncated.
	if _, ok := d.decodeWALRecord(body[:len(body)-3]); ok {
		t.Fatal("truncated record accepted")
	}
}
