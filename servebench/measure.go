package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"syscall"
	"time"

	"dpstore/internal/obs"
	"dpstore/internal/stats"
	"dpstore/internal/wire"
)

// metricDef is one reported metric. The lists below are the contract
// BENCHMARK.json states; TestMetricListsMatchBenchmarkJSON keeps the two
// in step.
type metricDef struct {
	name, unit string
	better     string // "lower" or "higher"
}

var endToEndMetrics = []metricDef{
	{"throughput_ops_s", "ops/s", "higher"},
	{"read_p50_us", "us", "lower"},
	{"read_p90_us", "us", "lower"},
	{"write_p50_us", "us", "lower"},
	{"write_p90_us", "us", "lower"},
	{"cpu_us_per_op", "us", "lower"},
	{"phys_blocks_per_op", "blocks", "lower"},
	{"storage_bytes_per_user_byte", "ratio", "lower"},
	{"stack_heap_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
}

var perLayerMetrics = []metricDef{
	{"trace.caller_mean_us", "us", "lower"},
	{"trace.budget_pct", "%", "higher"},
	{"trace.overhead_pct", "%", "lower"},
	{"trace.spans", "count", "higher"},
	{"serve.self_us", "us", "lower"},
	{"serve.request_us", "us", "lower"},
	{"proxy.queue_wait_us", "us", "lower"},
	{"scheme.self_us", "us", "lower"},
	{"scheme.stash_mean", "count", "lower"},
	{"crypto.sealed_per_op", "count", "lower"},
	{"crypto.opened_per_op", "count", "lower"},
	{"pipeline.self_us", "us", "lower"},
	{"pipeline.read_us", "us", "lower"},
	{"pipeline.write_us", "us", "lower"},
	{"pipeline.flush_ops", "count", "higher"},
	{"store.blocking_us", "us", "lower"},
	{"store.background_us", "us", "lower"},
	{"store.read_us", "us", "lower"},
	{"store.write_us", "us", "lower"},
	{"store.blocks_read_per_op", "count", "lower"},
	{"store.blocks_written_per_op", "count", "lower"},
	{"wal.fsyncs_per_op", "count", "lower"},
	{"wal.fsync_us", "us", "lower"},
	{"wal.commit_group", "count", "higher"},
	{"wal.append_us", "us", "lower"},
	{"wal.apply_us", "us", "lower"},
	{"wal.background_us", "us", "lower"},
	{"client.roundtrips_per_op", "count", "lower"},
	{"runtime.allocs_per_op", "count", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects values for one list of definitions.
type metricSet struct {
	defs []metricDef
	m    map[string]metric
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, m: make(map[string]metric, len(defs))}
}

func (s *metricSet) set(name string, v float64) {
	for _, d := range s.defs {
		if d.name == name {
			s.m[name] = metric{Value: v, Unit: d.unit}
			return
		}
	}
	panic("servebench: undeclared metric " + name)
}

// complete reports an error naming any declared metric left unset.
func (s *metricSet) complete() error {
	for _, d := range s.defs {
		if _, ok := s.m[d.name]; !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
	}
	return nil
}

// snap is the process state a phase is measured between.
type snap struct {
	cpu     time.Duration // user + system CPU of the whole process
	mallocs uint64
	numGC   uint32
	obs     []obs.Sample
}

// processCPU is the user + system CPU the process has used so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // cannot fail for RUSAGE_SELF
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func takeSnap() snap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return snap{
		cpu:     processCPU(),
		mallocs: ms.Mallocs,
		numGC:   ms.NumGC,
		obs:     obs.Default().Snapshot(),
	}
}

// obsDelta is the change in the process's registered instruments over a
// phase, as obs.Delta gives it.
type obsDelta map[string]obs.Sample

func deltaOf(before, after snap) obsDelta { return obs.Delta(before.obs, after.obs) }

// hist sums a histogram or timer over every series of the name. Sums of
// timers are in nanoseconds. The sum is as exact as obs.Sample.Sum.
func (d obsDelta) hist(name string) (count uint64, sum int64) {
	for _, s := range d {
		if s.Name == name {
			count += s.Count
			sum += s.Sum
		}
	}
	return count, sum
}

// exactSum sums a histogram of small counts bucket by bucket. Below 128
// every bucket holds one value, so the sum is exact; a larger recorded
// value is an error, not a rounding.
func (d obsDelta) exactSum(name string) (int64, error) {
	var sum int64
	for _, s := range d {
		if s.Name != name {
			continue
		}
		for i, c := range s.Buckets {
			if i >= 128 || stats.BucketValue(i) != int64(i) {
				return 0, fmt.Errorf("%s holds values ≥ 128, which it cannot sum exactly", name)
			}
			sum += int64(i) * int64(c)
		}
	}
	return sum, nil
}

// frames sums the serve loop's frame counter for the given frame types.
func (d obsDelta) frames(types ...byte) int64 {
	var n int64
	for _, s := range d {
		if s.Name != "dpstore_serve_frames_total" {
			continue
		}
		for _, l := range s.Labels {
			for _, t := range types {
				if l.Key == "type" && l.Value == wire.TypeName(t) {
					n += s.Value
				}
			}
		}
	}
	return n
}

// meanUs is sum/count for a timer, in microseconds (0 without samples).
func meanUs(count uint64, sumNs int64) float64 {
	if count == 0 {
		return 0
	}
	return float64(sumNs) / float64(count) / 1e3
}

// physBlocks counts the blocks the stack moved at its backing over a
// quiesced phase, from the program's own instruments: for a proxy stack,
// the blocks the scheme read and wrote through the pipeline (every one
// reaches the backing once the pipeline is flushed, which the caller
// checks against the flush counter); for a block stack, one block per
// single-block download or upload frame.
func physBlocks(s *stack, d obsDelta) (int64, error) {
	if s.proxy == nil {
		return d.frames(wire.MsgDownloadReq, wire.MsgUploadReq), nil
	}
	read, err := d.exactSum("dpstore_pipeline_read_batch_blocks")
	if err != nil {
		return 0, err
	}
	written, err := d.exactSum("dpstore_pipeline_write_batch_ops")
	if err != nil {
		return 0, err
	}
	// The flush histogram's sum is rounded through a float mean, so it
	// can only confirm that every write landed to within that rounding.
	if _, flushed := d.hist("dpstore_pipeline_flush_ops"); math.Abs(float64(flushed-written)) > 2 {
		return 0, fmt.Errorf("the pipeline accepted %d block writes but flushed %d", written, flushed)
	}
	return read + written, nil
}

// quantile returns the q-quantile of sorted ns samples in microseconds,
// interpolating between the two nearest ranks.
func quantile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return float64(sorted[len(sorted)-1]) / 1e3
	}
	frac := pos - float64(lo)
	return (float64(sorted[lo])*(1-frac) + float64(sorted[lo+1])*frac) / 1e3
}

// windowQuantiles are the latency quantiles each window reports.
var windowQuantiles = [3]float64{0.50, 0.90, 0.99}

// windows collects the per-window figures of a measured phase. Index i
// of every slice is window i.
type windows struct {
	tput  []float64       // accesses per second
	cpu   []float64       // process CPU µs per access
	steal []float64       // % of the machine's CPU time the hypervisor took
	q     [2][3][]float64 // [read, write][windowQuantiles] µs; NaN without samples
	n     [2]int          // latency samples over all windows
	all   []int64         // scratch for merging the callers' samples
}

// add takes one window's figures: its accesses, their elapsed time, the
// CPU they used and the CPU time the hypervisor took from the machine
// meanwhile, and the callers' latencies, which it then clears.
func (ws *windows) add(cs []*caller, ops int64, elapsed, cpu, steal time.Duration) {
	ws.tput = append(ws.tput, float64(ops)/elapsed.Seconds())
	ws.cpu = append(ws.cpu, float64(cpu)/1e3/float64(max(ops, 1)))
	ws.steal = append(ws.steal, 100*steal.Seconds()/(elapsed.Seconds()*float64(runtime.NumCPU())))
	for op := range 2 {
		ws.all = ws.all[:0]
		for _, c := range cs {
			ws.all = append(ws.all, c.lat[op]...)
			c.lat[op] = c.lat[op][:0]
		}
		slices.Sort(ws.all)
		ws.n[op] += len(ws.all)
		for i, q := range windowQuantiles {
			v := math.NaN()
			if len(ws.all) > 0 {
				v = quantile(ws.all, q)
			}
			ws.q[op][i] = append(ws.q[op][i], v)
		}
	}
}

// kept reports whether window i counts: the hypervisor took no more CPU
// time during it than during the median window. On a quiet host that is
// every window; on a busy one it drops the windows other guests slowed
// most, which a median alone does not when they are half the phase.
func (ws *windows) kept(i int) bool { return ws.steal[i] <= median(ws.steal) }

// median is the median of one per-window figure over the kept windows
// that have it.
func (ws *windows) median(v []float64) float64 {
	var k []float64
	for i, x := range v {
		if ws.kept(i) && !math.IsNaN(x) {
			k = append(k, x)
		}
	}
	return median(k)
}

// keptCount is the number of kept windows.
func (ws *windows) keptCount() int {
	n := 0
	for i := range ws.steal {
		if ws.kept(i) {
			n++
		}
	}
	return n
}

// heapLiveMB is the live heap after forced collections. The second one
// empties the sync.Pool victim caches the first leaves behind, so pooled
// buffers the stack happens to hold at the end do not count.
func heapLiveMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}
