package main

import (
	"encoding/json"
	"math"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"dpstore/internal/block"
	"dpstore/internal/store"
	"dpstore/internal/trace"
)

// smallConfig builds stacks small enough for tests.
func smallConfig(t *testing.T) config {
	return config{records: 256, recordSize: 64, tmpDir: t.TempDir()}
}

func mustWorkload(t *testing.T, name string) workload {
	t.Helper()
	w, err := lookupWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// drive builds w, runs n accesses from the given callers one after
// another, and closes everything again.
func drive(t *testing.T, w workload, cfg config, seed int64, callers, n int) (*stack, []*caller) {
	t.Helper()
	s, err := buildStack(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := newCallers(s, w, seed, callers, cfg.tracer)
	if err != nil {
		s.Close()
		t.Fatal(err)
	}
	for i := range n {
		cs[i%callers].step()
	}
	if err := s.quiesce(); err != nil {
		t.Error(err)
	}
	if err := closeCallers(cs); err != nil {
		t.Error(err)
	}
	if err := s.Close(); err != nil {
		t.Error(err)
	}
	return s, cs
}

// addresses splits a transcript into its download and upload address
// sequences. Each is deterministic; their interleaving is not, because
// the pipeline's writer lands writes concurrently with the next reads.
func addresses(tr trace.Transcript) (downloads, uploads []int) {
	for _, a := range tr {
		if a.Op == trace.OpDownload {
			downloads = append(downloads, a.Addr)
		} else {
			uploads = append(uploads, a.Addr)
		}
	}
	return downloads, uploads
}

func TestTracedAndUntracedTranscriptsMatch(t *testing.T) {
	for _, name := range []string{"dpram-mem", "pathoram-mem", "plain-mem"} {
		t.Run(name, func(t *testing.T) {
			w := mustWorkload(t, name)
			record := func(traced bool) *trace.Recorder {
				var rec *trace.Recorder
				cfg := smallConfig(t)
				cfg.backing = func(slots, blockSize int) (store.BatchServer, error) {
					m, err := store.NewMem(slots, blockSize)
					rec = trace.NewRecorder(m)
					return store.AsBatch(rec), err
				}
				if traced {
					cfg.tracer = newTracer(1<<16, 1)
					cfg.tracer.start()
				}
				_, cs := drive(t, w, cfg, 7, 1, 300)
				if cs[0].failed != 0 {
					t.Fatalf("traced=%v: %d accesses failed; first: %v", traced, cs[0].failed, cs[0].err)
				}
				if traced && cfg.tracer.n.Load() == 0 {
					t.Fatal("the traced stack recorded no spans")
				}
				return rec
			}
			plainD, plainU := addresses(record(false).Transcript())
			tracedD, tracedU := addresses(record(true).Transcript())
			if len(plainD) == 0 || len(plainU) == 0 {
				t.Fatalf("empty transcript: %d downloads, %d uploads", len(plainD), len(plainU))
			}
			if !slices.Equal(plainD, tracedD) {
				t.Errorf("download addresses differ: %d untraced vs %d traced", len(plainD), len(tracedD))
			}
			if !slices.Equal(plainU, tracedU) {
				t.Errorf("upload addresses differ: %d untraced vs %d traced", len(plainU), len(tracedU))
			}
		})
	}
}

func TestWrappersForward(t *testing.T) {
	for _, name := range []string{"dpram-mem", "pathoram-mem"} {
		t.Run(name, func(t *testing.T) {
			cfg := smallConfig(t)
			cfg.tracer = newTracer(1<<16, 1)
			s, err := buildStack(mustWorkload(t, name), cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			acc, ok := s.accessor.(frontAccessor)
			if !ok {
				t.Fatalf("%T hides LoadDepth, Partitions or Epoch from the serve loop", s.accessor)
			}
			if acc == store.Accessor(s.proxy) {
				t.Fatal("the traced stack serves the proxy unwrapped")
			}
			sch, ok := s.scheme.(*tracedScheme)
			if !ok {
				t.Fatalf("the traced stack's scheme is %T", s.scheme)
			}

			cs, err := newCallers(s, mustWorkload(t, name), 3, 1, cfg.tracer)
			if err != nil {
				t.Fatal(err)
			}
			defer closeCallers(cs)
			for range 50 {
				cs[0].step()
			}
			if cs[0].failed != 0 {
				t.Fatalf("%d accesses failed; first: %v", cs[0].failed, cs[0].err)
			}
			if got, want := sch.StashSize(), sch.stashScheme.StashSize(); got != want {
				t.Errorf("StashSize = %d, scheme's is %d", got, want)
			}
			if got, want := uint64(s.proxy.StashDepth()), uint64(sch.stashScheme.StashSize()); got != want {
				t.Errorf("proxy stash gauge = %d through the wrapper, scheme's stash is %d", got, want)
			}
			if got, want := acc.LoadDepth(), s.proxy.LoadDepth(); got != want {
				t.Errorf("LoadDepth = %d, proxy's is %d", got, want)
			}
			if got, want := acc.Partitions(), s.proxy.Partitions(); got != want {
				t.Errorf("Partitions = %d, proxy's is %d", got, want)
			}
			if got, want := acc.Epoch(), s.proxy.Epoch(); got != want {
				t.Errorf("Epoch = %d, proxy's is %d", got, want)
			}
			if got := cs[0].cl.(proxyClient).Partitions(); got != 1 {
				t.Errorf("handshake through the wrapper reports %d partitions, want 1", got)
			}
		})
	}
}

// corruptingStore flips one bit of every block it returns.
type corruptingStore struct{ store.BatchServer }

func (c corruptingStore) Download(addr int) (block.Block, error) {
	b, err := c.BatchServer.Download(addr)
	if err == nil {
		b[len(b)-1] ^= 1
	}
	return b, err
}

func TestCheckerFailsCorruptedRead(t *testing.T) {
	w := mustWorkload(t, "plain-mem")
	for _, corrupt := range []bool{false, true} {
		cfg := smallConfig(t)
		cfg.backing = func(slots, blockSize int) (store.BatchServer, error) {
			m, err := store.NewMem(slots, blockSize)
			if corrupt {
				return corruptingStore{m}, err
			}
			return m, err
		}
		s, cs := drive(t, w, cfg, 5, numCallers, 100)
		o := &outcome{}
		checkRun(o, s, cs, 100, 100)
		if corrupt {
			if o.failed == 0 || len(o.errs) == 0 {
				t.Errorf("corrupted reads passed the check: failed=%d errs=%q", o.failed, o.errs)
			}
		} else if o.failed != 0 || len(o.errs) != 0 {
			t.Errorf("clean run failed the check: failed=%d errs=%q", o.failed, o.errs)
		}
	}
}

func TestCheckRunRejectsWrongBlockCount(t *testing.T) {
	s := &stack{blocksPerAccess: 3}
	o := &outcome{}
	checkRun(o, s, nil, 10, 31)
	if len(o.errs) != 1 || !strings.Contains(o.errs[0], "exactly 3 per access") {
		t.Errorf("errs = %q, want one blocks-per-access failure", o.errs)
	}
}

// TestTracedPhaseAccounts runs two callers against a traced stack and
// checks that the spans partition the callers' time and count the
// scheme's blocks.
func TestTracedPhaseAccounts(t *testing.T) {
	w := mustWorkload(t, "dpram-mem")
	cfg := smallConfig(t)
	cfg.tracer = newTracer(1<<16, numCallers)
	s, err := buildStack(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	cs, err := newCallers(s, w, 11, numCallers, cfg.tracer)
	if err != nil {
		t.Fatal(err)
	}
	defer closeCallers(cs)
	cfg.tracer.start()
	runPhase(cs, 200*time.Millisecond, false, cfg.tracer.nearlyFull)
	if err := s.quiesce(); err != nil {
		t.Fatal(err)
	}
	cfg.tracer.stop()
	ops, failed, _, firstErr := totals(cs)
	if failed != 0 {
		t.Fatalf("%d accesses failed; first: %v", failed, firstErr)
	}
	spans, allEnded := cfg.tracer.recorded()
	if !allEnded {
		t.Error("spans left open after the phase")
	}
	b := analyze(spans, ops)
	if pct := b.budgetPct(); pct < 99.9 || pct > 100.1 {
		t.Errorf("blocking-path self times sum to %.2f%% of caller time", pct)
	}
	for _, l := range []layer{layerAccessor, layerScheme, layerPipeRead, layerPipeWrite, layerStoreRead} {
		if b.selfUs[l] <= 0 {
			t.Errorf("no blocking time recorded at %s", layerNames[l])
		}
	}
	if got := cfg.tracer.blocksRead.Load() + cfg.tracer.blocksWritten.Load(); got != 3*ops {
		t.Errorf("backing moved %d blocks for %d accesses, want 3 each", got, ops)
	}
}

func TestAnalyzeSelfTimes(t *testing.T) {
	spans := []span{
		{start: 0, end: 100, parent: -1, layer: layerCaller},
		{start: 10, end: 90, parent: 0, layer: layerAccessor},
		{start: 20, end: 80, parent: 1, layer: layerScheme},
		{start: 25, end: 45, parent: 2, layer: layerPipeRead},
		{start: 30, end: 40, parent: 3, layer: layerStoreRead},
		{start: 50, end: 55, parent: 2, layer: layerPipeWrite},
		{start: 60, end: 160, parent: -1, layer: layerStoreWrite}, // background flush
	}
	b := analyze(spans, 1)
	want := map[layer]float64{
		layerCaller: 0.020, layerAccessor: 0.020, layerScheme: 0.035,
		layerPipeRead: 0.010, layerStoreRead: 0.010, layerPipeWrite: 0.005,
	}
	for l, us := range want {
		if got := b.selfUs[l]; got != us {
			t.Errorf("%s self = %v µs, want %v", layerNames[l], got, us)
		}
	}
	if b.callerUs != 0.1 || b.backgroundUs != 0.1 || math.Abs(b.budgetPct()-100) > 1e-9 {
		t.Errorf("caller %v µs, background %v µs, budget %v%%; want 0.1, 0.1, 100", b.callerUs, b.backgroundUs, b.budgetPct())
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(v, n=4) for each v.
	cases := []struct {
		v    []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{1, 2, 3, 4, 5}, [3]float64{1.5, 3, 4.5}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
	}
	for _, c := range cases {
		if got := quartiles(c.v); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.v, got, c.want)
		}
	}
}

// TestWindowsReportMedians checks that the per-run figures are medians
// over the windows the hypervisor disturbed least, and that each window
// starts from empty latency samples.
func TestWindowsReportMedians(t *testing.T) {
	us := func(v ...int64) []int64 {
		for i := range v {
			v[i] *= 1e3
		}
		return v
	}
	cs := []*caller{{}, {}}
	var ws windows
	// Windows 1 and 2 are slow and lose half the machine to steal; a
	// plain median over the four would fall between the two speeds.
	for _, slow := range []int64{1, 10, 10, 1} {
		steal := time.Duration(slow-1) * time.Duration(runtime.NumCPU()) * 50 * time.Millisecond
		cs[0].lat = [2][]int64{us(20*slow, 20*slow), us(30 * slow)}
		cs[1].lat = [2][]int64{us(20*slow, 20*slow), nil}
		ws.add(cs, 1000/slow, time.Second, time.Duration(20000*slow)*time.Microsecond, steal)
		if len(cs[0].lat[0]) != 0 || len(cs[1].lat[0]) != 0 {
			t.Fatal("a window left latency samples behind")
		}
	}
	if got := ws.keptCount(); got != 2 {
		t.Errorf("kept %d windows, want 2", got)
	}
	if got := ws.median(ws.tput); got != 1000 {
		t.Errorf("throughput = %v, want 1000", got)
	}
	if got := ws.median(ws.cpu); got != 20 {
		t.Errorf("cpu µs per access = %v, want 20", got)
	}
	if got := ws.median(ws.q[0][0]); got != 20 {
		t.Errorf("read p50 = %v µs, want 20", got)
	}
	if got := ws.median(ws.q[1][0]); got != 30 {
		t.Errorf("write p50 = %v µs, want 30", got)
	}
	if ws.n != [2]int{16, 4} {
		t.Errorf("samples = %v, want [16 4]", ws.n)
	}

	// Without steal every window counts.
	quiet := windows{steal: []float64{0, 0, 0}}
	if got := quiet.median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("quiet host: median %v, want 2", got)
	}
}

func TestCompareVerdicts(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	cases := []struct {
		name         string
		b            []float64
		higherBetter bool
		want         string
	}{
		{"same", scale(1), false, "no change"},
		{"slower latency", scale(1.3), false, "REGRESSION"},
		{"lower throughput", scale(0.7), true, "REGRESSION"},
		{"faster latency", scale(0.9), false, "improved"},
		{"within bound", scale(1.1), false, "no change"},
	}
	for _, c := range cases {
		got := compareMetric(base, c.b, c.higherBetter, 0.2).verdict
		if !strings.HasPrefix(got, c.want) {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	wide := []float64{50, 150, 60, 140, 100, 70, 130, 80, 120, 100}
	if got := compareMetric(wide, wide, false, 0.2).verdict; !strings.HasPrefix(got, "unresolved") {
		t.Errorf("wide spread: verdict %q, want unresolved", got)
	}
}

// TestMetricListsMatchBenchmarkJSON keeps the metrics the benchmark
// prints and the ones BENCHMARK.json declares the same.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }               `json:"workloads"`
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the benchmark prints %d", kind, len(got), len(want))
			return
		}
		for i, m := range got {
			if d := want[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the benchmark %+v", kind, i, m, d)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndMetrics)
	check("per_layer", spec.PerLayer, perLayerMetrics)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json has %q, the benchmark %q", i, w.Name, workloads[i].name)
		}
	}
}
