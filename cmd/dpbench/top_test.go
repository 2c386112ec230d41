package main

import (
	"os/exec"
	"strings"
	"testing"
	"time"

	"dpstore/internal/wire"
)

// fakeSource feeds topLoop a scripted sequence of snapshots.
type fakeSource struct {
	snaps [][]wire.StatsEntry
	i     int
}

func (f *fakeSource) Stats() ([]wire.StatsEntry, error) {
	s := f.snaps[f.i]
	if f.i < len(f.snaps)-1 {
		f.i++
	}
	return s, nil
}

// TestRenderTop: the renderer derives the acceptance rate from
// consecutive snapshots, renders quantiles as durations, and dashes out
// the quantiles of a namespace that has served nothing yet.
func TestRenderTop(t *testing.T) {
	prev := []wire.StatsEntry{{Name: "default", Accepted: 100}}
	cur := []wire.StatsEntry{
		{
			Name: "default", Kind: wire.StatsKindProxy,
			Accepted: 300, Shed: 7, Inflight: 2, Queued: 1, Depth: 42,
			Requests: 300, P50Micros: 1500, P99Micros: 9000, MaxMicros: 12000,
			SyncMicros: 250,
		},
		{Name: "idle-tenant", Accepted: 5}, // all quantile fields zero
	}
	var sb strings.Builder
	renderTop(&sb, prev, cur, 2*time.Second)
	out := sb.String()

	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("want header + 2 rows, got %d lines:\n%s", len(lines), out)
	}
	for _, col := range []string{"NS", "KIND", "ACC", "ACC/s", "SHED", "INFL", "Q", "P50", "P99", "MAX", "DEPTH", "SYNC"} {
		if !strings.Contains(lines[0], col) {
			t.Fatalf("header missing %q: %q", col, lines[0])
		}
	}
	row := lines[1]
	// (300-100)/2s = 100 ops/s; quantiles render as Go durations.
	for _, want := range []string{"default", "proxy", "300", "100", "1.5ms", "9ms", "12ms", "42", "250µs"} {
		if !strings.Contains(row, want) {
			t.Fatalf("row missing %q: %q", want, row)
		}
	}
	// The idle tenant has no previous snapshot and no quantiles: rate and
	// quantiles dash out rather than showing zeros.
	if got := strings.Count(lines[2], "-"); got < 5 {
		t.Fatalf("idle row should dash out rate+p50+p99+max+sync, got %d dashes: %q", got, lines[2])
	}
}

// TestTopLoopPlain: two refreshes against a scripted source emit two
// tables with no ANSI escapes in -plain mode.
func TestTopLoopPlain(t *testing.T) {
	src := &fakeSource{snaps: [][]wire.StatsEntry{
		{{Name: "default", Accepted: 10}},
		{{Name: "default", Accepted: 20}},
	}}
	var sb strings.Builder
	if err := topLoop(&sb, src, "test", time.Millisecond, 2, true); err != nil {
		t.Fatalf("topLoop: %v", err)
	}
	out := sb.String()
	if strings.Contains(out, "\033") {
		t.Fatalf("-plain output contains ANSI escapes:\n%q", out)
	}
	if got := strings.Count(out, "dpbench top —"); got != 2 {
		t.Fatalf("want 2 refresh headers, got %d:\n%s", got, out)
	}
	if got := strings.Count(out, "\nNS\t"); got == 0 {
		// tabwriter expands tabs; just check both tables carry the name.
		if got := strings.Count(out, "default"); got != 2 {
			t.Fatalf("want the namespace row in both refreshes:\n%s", out)
		}
	}
}

// TestTopSmoke: `dpbench top` against an in-process daemon — the full
// binary path: dial, stats round trip, render, exit 0 after -n
// refreshes.
func TestTopSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	ln, err := serveInProcess(256, 64, 1, 8, 8)
	if err != nil {
		t.Fatalf("in-process daemon: %v", err)
	}
	defer ln.Close()

	bin := buildBench(t)
	out, err := exec.Command(bin, "top",
		"-addr", ln.Addr().String(), "-n", "2", "-interval", "50ms", "-plain").CombinedOutput()
	if err != nil {
		t.Fatalf("dpbench top failed: %v\n%s", err, out)
	}
	s := string(out)
	for _, want := range []string{"dpbench top —", "NS", "default", "block"} {
		if !strings.Contains(s, want) {
			t.Fatalf("top output missing %q:\n%s", want, s)
		}
	}
}
