package pathoram

import (
	"errors"
	"testing"

	"dpstore/internal/block"
	"dpstore/internal/crypto"
	"dpstore/internal/rng"
	"dpstore/internal/store"
)

func newORAM(t *testing.T, n int, opts Options) (*ORAM, *store.Counting) {
	t.Helper()
	db, err := block.PatternDatabase(n, 16)
	if err != nil {
		t.Fatal(err)
	}
	if opts.Rand == nil {
		opts.Rand = rng.New(1)
	}
	if opts.Key == (crypto.Key{}) && !opts.DisableEncryption {
		opts.Key = crypto.KeyFromSeed(1)
	}
	slots, bs := TreeShape(n, 16, opts)
	srv, err := store.NewMem(slots, bs)
	if err != nil {
		t.Fatal(err)
	}
	counting := store.NewCounting(srv)
	o, err := Setup(db, counting, opts)
	if err != nil {
		t.Fatal(err)
	}
	counting.Reset()
	return o, counting
}

func TestSetupValidation(t *testing.T) {
	db, _ := block.PatternDatabase(8, 16)
	slots, bs := TreeShape(8, 16, Options{})
	srv, _ := store.NewMem(slots, bs)
	if _, err := Setup(db, srv, Options{}); err == nil {
		t.Fatal("nil Rand accepted")
	}
	bad, _ := store.NewMem(slots-1, bs)
	if _, err := Setup(db, bad, Options{Rand: rng.New(1)}); err == nil {
		t.Fatal("wrong server shape accepted")
	}
}

func TestReadAfterSetup(t *testing.T) {
	n := 64
	o, _ := newORAM(t, n, Options{})
	for i := 0; i < n; i++ {
		b, err := o.Read(i)
		if err != nil {
			t.Fatal(err)
		}
		if !block.CheckPattern(b, uint64(i)) {
			t.Fatalf("record %d corrupted", i)
		}
	}
}

func TestReadWriteAgainstReference(t *testing.T) {
	n := 64
	o, _ := newORAM(t, n, Options{})
	ref := make([]block.Block, n)
	for i := range ref {
		ref[i] = block.Pattern(uint64(i), 16)
	}
	src := rng.New(2)
	for step := 0; step < 3000; step++ {
		i := src.Intn(n)
		if src.Bernoulli(0.4) {
			v := block.Pattern(uint64(5000+step), 16)
			prev, err := o.Write(i, v)
			if err != nil {
				t.Fatal(err)
			}
			if !prev.Equal(ref[i]) {
				t.Fatalf("step %d: stale previous value", step)
			}
			ref[i] = v
		} else {
			got, err := o.Read(i)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(ref[i]) {
				t.Fatalf("step %d: Read(%d) diverged", step, i)
			}
		}
	}
}

func TestExactPathCost(t *testing.T) {
	for _, n := range []int{16, 256, 1024} {
		o, counting := newORAM(t, n, Options{})
		const queries = 100
		src := rng.New(3)
		for i := 0; i < queries; i++ {
			if _, err := o.Read(src.Intn(n)); err != nil {
				t.Fatal(err)
			}
		}
		st := counting.Stats()
		perPath := int64(o.Z() * (o.Height() + 1))
		if st.Downloads != queries*perPath || st.Uploads != queries*perPath {
			t.Fatalf("n=%d: ops = (%d,%d), want (%d,%d)",
				n, st.Downloads, st.Uploads, queries*perPath, queries*perPath)
		}
		if o.BlocksPerAccess() != int(2*perPath) {
			t.Fatalf("BlocksPerAccess = %d, want %d", o.BlocksPerAccess(), 2*perPath)
		}
	}
}

func TestOverheadIsLogarithmic(t *testing.T) {
	// Path ORAM blocks/access must grow linearly in lg n — the separation
	// from DP-RAM's constant 3.
	small, _ := newORAM(t, 1<<6, Options{})
	large, _ := newORAM(t, 1<<12, Options{})
	if large.BlocksPerAccess() <= small.BlocksPerAccess() {
		t.Fatal("ORAM cost did not grow with n")
	}
	// 2·Z·(lg n + 1): ratio should be ≈ 13/7.
	ratio := float64(large.BlocksPerAccess()) / float64(small.BlocksPerAccess())
	if ratio < 1.5 || ratio > 2.2 {
		t.Fatalf("cost ratio %v, want ≈ 13/7", ratio)
	}
}

func TestStashStaysSmall(t *testing.T) {
	n := 1 << 10
	o, _ := newORAM(t, n, Options{})
	src := rng.New(4)
	for i := 0; i < 5000; i++ {
		if _, err := o.Read(src.Intn(n)); err != nil {
			t.Fatal(err)
		}
	}
	// Path ORAM stash is O(log n)·ω(1) w.h.p.; 60 is a generous ceiling
	// for n = 1024, Z = 4.
	if o.MaxStashSize() > 60 {
		t.Fatalf("max stash %d; eviction is broken", o.MaxStashSize())
	}
}

func TestRoundTripsTwoPerAccess(t *testing.T) {
	o, _ := newORAM(t, 64, Options{})
	src := rng.New(5)
	const queries = 50
	for i := 0; i < queries; i++ {
		if _, err := o.Read(src.Intn(64)); err != nil {
			t.Fatal(err)
		}
	}
	if o.RoundTrips() != 2*queries {
		t.Fatalf("round trips = %d, want %d", o.RoundTrips(), 2*queries)
	}
	if o.Accesses() != queries {
		t.Fatalf("accesses = %d", o.Accesses())
	}
}

func TestPlaintextModeWorks(t *testing.T) {
	n := 32
	o, _ := newORAM(t, n, Options{DisableEncryption: true})
	for i := 0; i < n; i++ {
		b, err := o.Read(i)
		if err != nil {
			t.Fatal(err)
		}
		if !block.CheckPattern(b, uint64(i)) {
			t.Fatalf("record %d corrupted", i)
		}
	}
}

func TestWriteSizeValidation(t *testing.T) {
	o, _ := newORAM(t, 16, Options{})
	if _, err := o.Write(0, block.New(8)); err == nil {
		t.Fatal("wrong-size write accepted")
	}
	if _, err := o.Read(-1); err == nil {
		t.Fatal("negative index accepted")
	}
	if _, err := o.Read(16); err == nil {
		t.Fatal("overflow index accepted")
	}
}

// --- Recursive variant -------------------------------------------------------

func newRecursive(t *testing.T, n int, opts RecursiveOptions) *Recursive {
	t.Helper()
	db, err := block.PatternDatabase(n, 16)
	if err != nil {
		t.Fatal(err)
	}
	if opts.Inner.Rand == nil {
		opts.Inner.Rand = rng.New(6)
	}
	if opts.Inner.Key == (crypto.Key{}) && !opts.Inner.DisableEncryption {
		opts.Inner.Key = crypto.KeyFromSeed(2)
	}
	r, err := SetupRecursive(db, MemFactory, opts)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRecursiveCorrectness(t *testing.T) {
	n := 128
	r := newRecursive(t, n, RecursiveOptions{})
	ref := make([]block.Block, n)
	for i := range ref {
		ref[i] = block.Pattern(uint64(i), 16)
	}
	src := rng.New(7)
	for step := 0; step < 1500; step++ {
		i := src.Intn(n)
		if src.Bernoulli(0.3) {
			v := block.Pattern(uint64(9000+step), 16)
			if _, err := r.Write(i, v); err != nil {
				t.Fatal(err)
			}
			ref[i] = v
		} else {
			got, err := r.Read(i)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(ref[i]) {
				t.Fatalf("step %d: Read(%d) diverged", step, i)
			}
		}
	}
}

func TestRecursiveDepthGrows(t *testing.T) {
	small := newRecursive(t, 64, RecursiveOptions{Pack: 4, Cutoff: 8})
	large := newRecursive(t, 4096, RecursiveOptions{Pack: 4, Cutoff: 8})
	if large.Levels() <= small.Levels() {
		t.Fatalf("levels did not grow: %d vs %d", small.Levels(), large.Levels())
	}
	if small.topLevelSize() > 8 || large.topLevelSize() > 8 {
		t.Fatal("top level exceeds cutoff")
	}
}

func TestRecursiveRoundTripsScaleWithLevels(t *testing.T) {
	n := 1024
	r := newRecursive(t, n, RecursiveOptions{Pack: 4, Cutoff: 8})
	src := rng.New(8)
	const queries = 50
	for i := 0; i < queries; i++ {
		if _, err := r.Read(src.Intn(n)); err != nil {
			t.Fatal(err)
		}
	}
	// Every access touches each level exactly once: 2 round trips each.
	want := int64(2 * r.Levels() * queries)
	if r.RoundTrips() != want {
		t.Fatalf("round trips = %d, want %d (levels = %d)", r.RoundTrips(), want, r.Levels())
	}
	// This is the Root-ORAM comparison: round trips per access must exceed
	// the flat ORAM's 2 and DP-RAM's 2.
	if r.Levels() < 3 {
		t.Fatalf("recursion too shallow (%d levels) for n = %d", r.Levels(), n)
	}
}

func TestRecursiveClientStateSmall(t *testing.T) {
	n := 4096
	r := newRecursive(t, n, RecursiveOptions{Pack: 4, Cutoff: 8})
	src := rng.New(9)
	for i := 0; i < 500; i++ {
		if _, err := r.Read(src.Intn(n)); err != nil {
			t.Fatal(err)
		}
	}
	// Client state = top table + stashes ≪ n.
	if st := r.ClientState(); st > n/8 {
		t.Fatalf("client state %d not sublinear in n = %d", st, n)
	}
}

func TestRecursiveValidation(t *testing.T) {
	db, _ := block.PatternDatabase(16, 16)
	if _, err := SetupRecursive(db, MemFactory, RecursiveOptions{}); err == nil {
		t.Fatal("nil Rand accepted")
	}
	if _, err := SetupRecursive(db, MemFactory, RecursiveOptions{Pack: 1, Inner: Options{Rand: rng.New(1)}}); err == nil {
		t.Fatal("pack=1 accepted")
	}
}

// TestFaultedEvictionPreservesStash: a failed path write must leave every
// placed block in the stash — the server path was not rewritten, so the
// stash holds the only current copies. A retry after the transient fault
// must still return the written value.
func TestFaultedEvictionPreservesStash(t *testing.T) {
	const n = 8
	db, err := block.PatternDatabase(n, 16)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Rand: rng.New(4), Key: crypto.KeyFromSeed(4)}
	slots, bs := TreeShape(n, 16, opts)
	srv, err := store.NewMem(slots, bs)
	if err != nil {
		t.Fatal(err)
	}
	// Op schedule: setup = slots uploads; each access = perPath reads then
	// perPath writes. Fault the first write of the second access (the one
	// evicting the freshly written block).
	perPath := int64(4 * 4) // Z=4, height+1=4 at n=8
	failAt := int64(slots) + 2*perPath + perPath + 1
	faulty := store.NewFaulty(srv, failAt, nil)
	o, err := Setup(db, faulty, opts)
	if err != nil {
		t.Fatal(err)
	}
	if int64(o.Z()*(o.Height()+1)) != perPath {
		t.Fatalf("perPath = %d, want %d", o.Z()*(o.Height()+1), perPath)
	}
	want := block.Pattern(4242, 16)
	if _, err := o.Write(3, want); err != nil {
		t.Fatal(err)
	}
	if _, err := o.Read(3); !errors.Is(err, store.ErrInjected) {
		t.Fatalf("faulted read: err = %v, want ErrInjected", err)
	}
	got, err := o.Read(3)
	if err != nil {
		t.Fatalf("retry after transient fault: %v", err)
	}
	if !got.Equal(want) {
		t.Fatal("retry returned stale data: eviction failure dropped the stash copy")
	}
}

// TestTransientFaultConsistency fuzzes the failure-recovery invariant: one
// transient fault is injected at each of a range of operation offsets, the
// faulted access is retried once, and every subsequent read must match a
// reference map — catching both lost updates and stale-copy resurrection
// from partially written paths.
func TestTransientFaultConsistency(t *testing.T) {
	const n, rounds = 16, 120
	db, err := block.PatternDatabase(n, 16)
	if err != nil {
		t.Fatal(err)
	}
	for offset := int64(1); offset <= 40; offset += 3 {
		opts := Options{Rand: rng.New(9), Key: crypto.KeyFromSeed(9)}
		slots, bs := TreeShape(n, 16, opts)
		srv, err := store.NewMem(slots, bs)
		if err != nil {
			t.Fatal(err)
		}
		faulty := store.NewFaulty(srv, int64(slots)+offset, nil)
		o, err := Setup(db, faulty, opts)
		if err != nil {
			t.Fatal(err)
		}
		ref := make(map[int]block.Block)
		for i := 0; i < n; i++ {
			ref[i] = block.Pattern(uint64(i), 16)
		}
		w := rng.New(offset)
		sawFault := false
		for r := 0; r < rounds; r++ {
			idx := w.Intn(n)
			if w.Bernoulli(0.4) {
				val := block.Pattern(uint64(1000+r), 16)
				_, err := o.Write(idx, val)
				if errors.Is(err, store.ErrInjected) {
					sawFault = true
					if _, err := o.Write(idx, val); err != nil {
						t.Fatalf("offset %d round %d: write retry failed: %v", offset, r, err)
					}
				} else if err != nil {
					t.Fatalf("offset %d round %d: write: %v", offset, r, err)
				}
				ref[idx] = val
			} else {
				got, err := o.Read(idx)
				if errors.Is(err, store.ErrInjected) {
					sawFault = true
					got, err = o.Read(idx)
				}
				if err != nil {
					t.Fatalf("offset %d round %d: read: %v", offset, r, err)
				}
				if !got.Equal(ref[idx]) {
					t.Fatalf("offset %d round %d: stale read of %d after transient fault", offset, r, idx)
				}
			}
		}
		if !sawFault {
			t.Fatalf("offset %d: fault never fired", offset)
		}
	}
}

// refPlace is the per-level eviction scan place replaced, kept as the
// reference: for each bucket on path(leaf), deepest first, it scans the
// whole stash for up to Z blocks not yet placed whose leaf shares that
// bucket's ancestor. It returns the ids placed in each bucket, in path
// order.
func refPlace(stash map[int]stashEntry, leaf, height, z int) [][]int {
	taken := make(map[int]bool)
	out := make([][]int, height+1)
	for li := range out {
		level := height - li
		for id, e := range stash {
			if len(out[li]) == z {
				break
			}
			if !taken[id] && sameAncestor(e.pos, leaf, level, height) {
				out[li] = append(out[li], id)
				taken[id] = true
			}
		}
	}
	return out
}

// sameAncestor reports whether leaves a and b share the ancestor at the
// given level (root = level 0) of a tree with the given height.
func sameAncestor(a, b, level, height int) bool {
	shift := uint(height - level)
	return a>>shift == b>>shift
}

func TestPlaceMatchesPerLevelScan(t *testing.T) {
	src := rng.New(9)
	for trial := 0; trial < 3000; trial++ {
		height := 1 + src.Intn(12)
		z := 1 + src.Intn(6)
		leaf := src.Intn(1 << height)
		// Positions near leaf fill the deep buckets and overflow them;
		// uniform ones mostly qualify only near the root.
		stash := make(map[int]stashEntry)
		for size := src.Intn(3 * z * (height + 1)); len(stash) < size; {
			d := src.Intn(height + 1)
			stash[src.Intn(1<<20)] = stashEntry{pos: leaf ^ src.Intn(1<<d)}
		}
		o := &ORAM{z: z, height: height, numLeaves: 1 << height, stash: stash}

		slots := o.place(leaf)
		if len(slots) != z*(height+1) {
			t.Fatalf("trial %d: %d slots, want %d", trial, len(slots), z*(height+1))
		}
		ref := refPlace(stash, leaf, height, z)
		seen := make(map[int]bool)
		for li := 0; li <= height; li++ {
			level := height - li
			got := 0
			for _, id := range slots[li*z : (li+1)*z] {
				if id < 0 {
					continue
				}
				got++
				e, ok := stash[id]
				if !ok {
					t.Fatalf("trial %d: placed id %d is not in the stash", trial, id)
				}
				if seen[id] {
					t.Fatalf("trial %d: id %d placed twice", trial, id)
				}
				seen[id] = true
				if !sameAncestor(e.pos, leaf, level, height) {
					t.Fatalf("trial %d: id %d (pos %d) placed at level %d, off its path to leaf %d",
						trial, id, e.pos, level, leaf)
				}
			}
			if got != len(ref[li]) {
				t.Fatalf("trial %d (height %d, Z %d, stash %d): level %d got %d blocks, per-level scan places %d",
					trial, height, z, len(stash), level, got, len(ref[li]))
			}
		}
	}
}
