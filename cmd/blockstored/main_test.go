package main

import (
	"math"
	"testing"
)

// TestNamespaceFactoryRejectsHostileShapes: a client-requested shape whose
// byte product overflows int64 must be rejected by the budget check, not
// turned into a daemon-killing allocation. Exercises the factory the
// daemon actually installs (tenantRegistry, in its no-data-dir form).
func TestNamespaceFactoryRejectsHostileShapes(t *testing.T) {
	reg, err := newTenantRegistry("", 64, 32, 4, 1<<30, &shutdown{})
	if err != nil {
		t.Fatal(err)
	}
	factory := reg.factory
	bad := [][2]int{
		{math.MaxInt64 >> 4, 32}, // product overflows int64
		{1 << 59, 32},            // wraps to 0 under naive int64 multiply
		{1 << 30, 1},             // within the naive byte product, but 2^30 slot headers
		{-1, 32},                 // negative slot count
		{1 << 40, 0},             // zero block size falls back to default but slots stay huge
		{(1 << 30) / 32, 32},     // exactly at the naive budget; overhead pushes it over
	}
	for _, c := range bad {
		if _, err := factory("t", c[0], c[1]); err == nil {
			t.Errorf("factory accepted hostile shape %d × %d", c[0], c[1])
		}
	}
	// Sane shapes still work, including zero-defaults.
	s, err := factory("t", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.Size() != 64 || s.BlockSize() != 32 {
		t.Fatalf("default shape = %d × %d, want 64 × 32", s.Size(), s.BlockSize())
	}
	if _, err := factory("t", 1024, 112); err != nil {
		t.Fatalf("sane shape rejected: %v", err)
	}
}

// TestNewMemBackingClampsShards: tenant namespaces smaller than the stripe
// width stripe as far as they go instead of failing or silently growing.
func TestNewMemBackingClampsShards(t *testing.T) {
	s, err := newMemBacking(3, 16, 8)
	if err != nil {
		t.Fatal(err)
	}
	if s.Size() != 3 {
		t.Fatalf("size = %d, want 3", s.Size())
	}
	s, err = newMemBacking(100, 16, 8)
	if err != nil {
		t.Fatal(err)
	}
	if s.Size() != 100 {
		t.Fatalf("size = %d, want 100", s.Size())
	}
}

// TestOpenBackingShapes covers the flag-validation matrix of the default
// namespace's memory backing.
func TestOpenBackingShapes(t *testing.T) {
	// The operator's explicit -shards must not silently downgrade.
	if _, _, err := openBacking(4, 16, 8); err == nil {
		t.Error("mem: 4 slots over 8 shards accepted")
	}
	s, desc, err := openBacking(10, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	if s.Size() != 10 || s.BlockSize() != 16 {
		t.Fatalf("sharded mem store shape = %d × %d (%s)", s.Size(), s.BlockSize(), desc)
	}
}
