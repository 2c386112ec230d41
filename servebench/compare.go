package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"text/tabwriter"
)

// benchSpec is the part of BENCHMARK.json compare mode reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// compareMain compares two result sets, A the base and B the candidate,
// each a directory of result files. For every workload and end-to-end
// metric it prints both sides' medians and quartiles, the fraction of
// (A, B) run pairs B wins, and a verdict against the metric's bound; for
// traced runs, the per-layer medians.
func compareMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("servebench compare", flag.ContinueOnError)
	specPath := fs.String("bench", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: servebench compare [-bench BENCHMARK.json] <results-dir-A> <results-dir-B>")
		return 2
	}
	var spec benchSpec
	data, err := os.ReadFile(*specPath)
	if err == nil {
		err = json.Unmarshal(data, &spec)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench compare:", err)
		return 2
	}
	a, err := loadResults(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench compare:", err)
		return 2
	}
	b, err := loadResults(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench compare:", err)
		return 2
	}
	if err := writeComparison(stdout, spec, a, b); err != nil {
		fmt.Fprintln(os.Stderr, "servebench compare:", err)
		return 1
	}
	return 0
}

func loadResults(dir string) ([]resultFile, error) {
	var out []resultFile
	err := filepath.WalkDir(dir, func(path string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() || !strings.HasSuffix(path, ".json") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var r resultFile
		if err := json.Unmarshal(data, &r); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if r.Schema == resultSchema {
			out = append(out, r)
		}
		return nil
	})
	if err == nil && len(out) == 0 {
		err = fmt.Errorf("%s holds no %s result files", dir, resultSchema)
	}
	return out, err
}

// hostKey is the part of a host's identity that must agree for two
// results to be compared.
func hostKey(h host) string {
	return fmt.Sprintf("%s | nproc %d | GOMAXPROCS %d | %s", h.CPUModel, h.NProc, h.GOMAXPROCS, h.OSArch)
}

// values returns, per workload, the values of metric over the results
// of the given trace mode, and how many of those runs failed a check.
func values(rs []resultFile, traced bool, workload, metric string) (v []float64, failed int) {
	for _, r := range rs {
		if r.Trace != traced || r.Workload != workload {
			continue
		}
		if !r.Correct {
			failed++
		}
		if m, ok := r.Metrics[metric]; ok {
			v = append(v, m.Value)
		}
	}
	return v, failed
}

func writeComparison(w io.Writer, spec benchSpec, a, b []resultFile) error {
	hosts := map[string]bool{}
	for _, r := range append(slices.Clone(a), b...) {
		hosts[hostKey(r.Host)] = true
	}
	if len(hosts) > 1 {
		keys := make([]string, 0, len(hosts))
		for k := range hosts {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		return fmt.Errorf("results come from different hosts and cannot be compared:\n  %s", strings.Join(keys, "\n  "))
	}
	var names []string
	for _, r := range append(slices.Clone(a), b...) {
		if !slices.Contains(names, r.Workload) {
			names = append(names, r.Workload)
		}
	}
	slices.Sort(names)

	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA n\tA median\tA q1–q3\tB n\tB median\tB q1–q3\tΔ median\tB wins\tverdict")
	for _, wl := range names {
		for _, m := range spec.EndToEnd {
			av, afail := values(a, false, wl, m.Name)
			bv, bfail := values(b, false, wl, m.Name)
			if len(av) == 0 && len(bv) == 0 {
				continue
			}
			c := compareMetric(av, bv, m.Better == "higher", m.Bound)
			if afail+bfail > 0 {
				c.verdict = fmt.Sprintf("failed checks (A %d, B %d runs)", afail, bfail)
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\n", wl, m.Name, m.Unit, c.row(), c.verdict)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	tw = tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(w)
	fmt.Fprintln(tw, "workload\tper-layer metric (traced)\tunit\tA n\tA median\tB n\tB median")
	for _, wl := range names {
		for _, m := range spec.PerLayer {
			av, _ := values(a, true, wl, m.Name)
			bv, _ := values(b, true, wl, m.Name)
			if len(av) == 0 && len(bv) == 0 {
				continue
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%s\t%d\t%s\n", wl, m.Name, m.Unit, len(av), fmtMedian(av), len(bv), fmtMedian(bv))
		}
	}
	return tw.Flush()
}

// comparison is one (workload, metric) row.
type comparison struct {
	a, b    stat
	delta   float64 // B's median relative to A's, signed as measured
	wins    float64 // fraction of (A, B) pairs B wins; ties count for neither
	pairs   int
	verdict string
}

// stat is a sample's median and quartiles, by Python's
// statistics.quantiles(values, n=4) (the "exclusive" method).
type stat struct {
	n           int
	q1, med, q3 float64
}

func describe(v []float64) stat {
	s := slices.Clone(v)
	slices.Sort(s)
	st := stat{n: len(s)}
	switch len(s) {
	case 0:
	case 1:
		st.q1, st.med, st.q3 = s[0], s[0], s[0]
	default:
		q := quartiles(s)
		st.q1, st.med, st.q3 = q[0], q[1], q[2]
	}
	return st
}

// quartiles is statistics.quantiles(sorted, n=4) for len(sorted) ≥ 2.
func quartiles(sorted []float64) [3]float64 {
	n := len(sorted)
	m := n + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		out[i-1] = (sorted[j-1]*float64(4-delta) + sorted[j]*float64(delta)) / 4
	}
	return out
}

// compareMetric applies the regression rule: B regresses when its median
// is worse than A's by more than bound (a share of A's median). Where A's
// own spread exceeds the bound the result is unresolved, unless every B
// run beats every A run. B improves when it wins at least nine tenths of
// the pairs and its median beats A's by more than A's quartile distance.
func compareMetric(av, bv []float64, higherBetter bool, bound float64) comparison {
	c := comparison{a: describe(av), b: describe(bv)}
	if c.a.n == 0 || c.b.n == 0 {
		c.verdict = "missing runs"
		return c
	}
	better := func(x, y float64) bool { // x better than y
		if higherBetter {
			return x > y
		}
		return x < y
	}
	won := 0
	for _, x := range av {
		for _, y := range bv {
			if better(y, x) {
				won++
			}
		}
	}
	c.pairs = len(av) * len(bv)
	c.wins = float64(won) / float64(c.pairs)
	if c.a.med != 0 {
		c.delta = (c.b.med - c.a.med) / c.a.med
	}
	worse := c.delta
	if higherBetter {
		worse = -worse
	}
	spread := 0.0
	if c.a.med != 0 {
		spread = (c.a.q3 - c.a.q1) / c.a.med
	}
	switch {
	case worse > bound:
		c.verdict = fmt.Sprintf("REGRESSION (worse by %.1f%% > bound %.0f%%)", 100*worse, 100*bound)
	case spread > bound && won < c.pairs:
		c.verdict = fmt.Sprintf("unresolved (A spread %.1f%% > bound %.0f%%)", 100*spread, 100*bound)
	case c.wins >= 0.9 && -worse*c.a.med > c.a.q3-c.a.q1:
		c.verdict = "improved"
	default:
		c.verdict = "no change"
	}
	return c
}

func (c comparison) row() string {
	return fmt.Sprintf("%d\t%.4g\t%.4g–%.4g\t%d\t%.4g\t%.4g–%.4g\t%+.1f%%\t%.2f",
		c.a.n, c.a.med, c.a.q1, c.a.q3, c.b.n, c.b.med, c.b.q1, c.b.q3, 100*c.delta, c.wins)
}

func fmtMedian(v []float64) string {
	if len(v) == 0 {
		return "-"
	}
	return fmt.Sprintf("%.4g", median(v))
}
