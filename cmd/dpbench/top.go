// The top subcommand: a live per-namespace view of a running daemon,
// polled over the wire protocol's stats frame.
//
//	dpbench top                                   # watch 127.0.0.1:9045
//	dpbench top -addr 10.0.0.5:9045 -interval 2s
//	dpbench top -n 5 -plain                       # 5 refreshes, append-only
//
// Each refresh renders one row per namespace: accepted/shed totals, the
// acceptance rate since the previous refresh, live inflight/queue gauges,
// service-time p50/p99 and max (whole-microsecond quantiles; dashes for a
// namespace that has served nothing yet), the backing depth gauge (proxy
// stash occupancy or resync backlog), and the WAL's EWMA fsync latency.
// Everything shown is a data-independent aggregate — the same rule the
// daemon's /metrics endpoint obeys — so leaving top running against a
// production daemon observes load, never access patterns.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
	"time"

	"dpstore/internal/store"
	"dpstore/internal/wire"
)

// topSource is the stats feed runTop polls — *store.Remote in production,
// a stub in the renderer tests.
type topSource interface {
	Stats() ([]wire.StatsEntry, error)
}

func runTop(argv []string) {
	fs := flag.NewFlagSet("dpbench top", flag.ExitOnError)
	var (
		addr     = fs.String("addr", "127.0.0.1:9045", "daemon address")
		interval = fs.Duration("interval", time.Second, "refresh interval")
		count    = fs.Int("n", 0, "exit after this many refreshes (0 = run until interrupted)")
		plain    = fs.Bool("plain", false, "append each refresh instead of redrawing in place (for pipes and logs)")
	)
	fs.Parse(argv) //nolint:errcheck // ExitOnError

	if *interval <= 0 {
		fmt.Fprintln(os.Stderr, "dpbench top: -interval must be > 0")
		os.Exit(2)
	}
	r, err := store.Dial(*addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dpbench top: %v\n", err)
		os.Exit(1)
	}
	defer r.Close()

	if err := topLoop(os.Stdout, r, *addr, *interval, *count, *plain); err != nil {
		fmt.Fprintf(os.Stderr, "dpbench top: %v\n", err)
		os.Exit(1)
	}
}

// topLoop polls src every interval and renders refreshes to w, count
// times (0 = forever). Split from runTop so the smoke test can drive it
// in-process against a loopback daemon.
func topLoop(w io.Writer, src topSource, addr string, interval time.Duration, count int, plain bool) error {
	var prev []wire.StatsEntry
	last := time.Now()
	for i := 0; count == 0 || i < count; i++ {
		if i > 0 {
			time.Sleep(interval)
		}
		cur, err := src.Stats()
		if err != nil {
			return err
		}
		now := time.Now()
		if !plain {
			// Home the cursor and clear below it — redraw in place
			// without flashing a full-screen erase.
			fmt.Fprint(w, "\033[H\033[J")
		}
		fmt.Fprintf(w, "dpbench top — %s — %s\n", addr, now.Format("15:04:05"))
		renderTop(w, prev, cur, now.Sub(last))
		prev, last = cur, now
	}
	return nil
}

// renderTop writes one refresh: a fixed-header table with one row per
// namespace. prev is the previous refresh's snapshot (nil on the first),
// used to derive the acceptance rate over elapsed.
func renderTop(w io.Writer, prev, cur []wire.StatsEntry, elapsed time.Duration) {
	prevAcc := make(map[string]uint64, len(prev))
	for _, e := range prev {
		prevAcc[e.Name] = e.Accepted
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "NS\tKIND\tACC\tACC/s\tSHED\tINFL\tQ\tP50\tP99\tMAX\tDEPTH\tSYNC")
	for _, e := range cur {
		rate := "-"
		if before, ok := prevAcc[e.Name]; ok && elapsed > 0 && e.Accepted >= before {
			rate = fmt.Sprintf("%.0f", float64(e.Accepted-before)/elapsed.Seconds())
		}
		name := e.Name
		if name == "" {
			name = "default" // the default namespace's wire name is empty
		}
		fmt.Fprintf(tw, "%s\t%s\t%d\t%s\t%d\t%d\t%d\t%s\t%s\t%s\t%d\t%s\n",
			name, statsKindName(e.Kind),
			e.Accepted, rate, e.Shed, e.Inflight, e.Queued,
			topMicros(e.P50Micros, e.Requests),
			topMicros(e.P99Micros, e.Requests),
			topMicros(e.MaxMicros, e.Requests),
			e.Depth, topMicros(e.SyncMicros, e.SyncMicros))
	}
	tw.Flush() //nolint:errcheck // writes to the caller's buffer/terminal
}

// topMicros renders a whole-microsecond latency, or a dash when the
// gate (typically the Requests count) is zero — an idle namespace has no
// quantiles yet, and dashes beat misleading "0s" cells.
func topMicros(micros, gate uint64) string {
	if gate == 0 {
		return "-"
	}
	return (time.Duration(micros) * time.Microsecond).String()
}

// statsKindName decodes a wire.StatsKind* byte for human readers.
func statsKindName(k uint8) string {
	switch k {
	case wire.StatsKindProxy:
		return "proxy"
	case wire.StatsKindReplicated:
		return "repl"
	default:
		return "block"
	}
}
