package main

import (
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"time"
)

const (
	// records and recordSize are the logical database of every workload.
	records    = 1 << 16
	recordSize = 64
	// An end-to-end run builds its stack at least minSetups times and
	// goes on until setupBudget has passed or it has built maxSetups;
	// setup_s is the median over the builds, stack_heap_mb the least live
	// heap a build held (see README.md), and the last build serves the
	// load.
	minSetups   = 5
	maxSetups   = 51
	setupBudget = time.Second
	// warmup runs the load untimed before measuring, so connections,
	// buffers and the scheme's stash reach their steady state.
	warmup = time.Second
	// window is the length of one slice of the measured phase. Each
	// timing metric is a median over the phase's windows (see
	// windows.kept), so a burst of load from other guests of the host
	// moves a few windows, not the result.
	window = time.Second
	// spanCapacity bounds the traced phase: it ends early when the span
	// buffer is nearly full (24 MiB at 24 B a span).
	spanCapacity = 1 << 20
)

// outcome is one run's results and checks.
type outcome struct {
	attempted, failed int64
	errs              []string
	metrics           map[string]metric
	details           map[string]any
}

func (o *outcome) fail(format string, args ...any) {
	o.errs = append(o.errs, fmt.Sprintf(format, args...))
}

// checkRun records the run's correctness checks: every access of the
// run, warm-up included, returned what the caller's shadow predicts, and
// over the measured phase the backing moved exactly the stack's blocks
// per access.
func checkRun(o *outcome, s *stack, cs []*caller, phaseOps, blocks int64) {
	ops, failed, _, firstErr := totals(cs)
	o.attempted, o.failed = ops, failed
	if firstErr != nil {
		o.fail("%d of %d accesses failed or returned a wrong value; first: %v", failed, ops, firstErr)
	}
	if want := int64(s.blocksPerAccess) * phaseOps; blocks != want {
		o.fail("the backing moved %d blocks for %d accesses, want exactly %d per access", blocks, phaseOps, s.blocksPerAccess)
	}
}

// runEndToEnd measures the untraced stack: the one the daemon serves.
func runEndToEnd(w workload, seed int64, dur time.Duration, tmpDir string) (*outcome, error) {
	cfg := config{records: records, recordSize: recordSize, tmpDir: tmpDir}
	var setups, heaps []float64
	var s *stack
	for first := time.Now(); len(setups) < minSetups ||
		(len(setups) < maxSetups && time.Since(first) < setupBudget); {
		if s != nil {
			if err := s.Close(); err != nil {
				return nil, fmt.Errorf("closing a set-up stack: %w", err)
			}
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if s, err = buildStack(w, cfg); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		heaps = append(heaps, heapLiveMB())
	}
	defer s.Close() //nolint:errcheck // the load's results are already taken
	cs, err := newCallers(s, w, seed, numCallers, nil)
	if err != nil {
		return nil, err
	}
	defer closeCallers(cs) //nolint:errcheck // runs first; see above

	runPhase(cs, warmup, false, nil)
	if err := s.quiesce(); err != nil {
		return nil, err
	}
	ops0, failed0, rt0, _ := totals(cs)
	before := takeSnap()
	var ws windows
	var elapsed time.Duration
	for elapsed < dur {
		wOps0, _, _, _ := totals(cs)
		cpu0 := processCPU()
		steal0 := hostSteal()
		d := runPhase(cs, min(window, dur-elapsed), true, nil)
		wOps1, _, _, _ := totals(cs)
		ws.add(cs, wOps1-wOps0, d, processCPU()-cpu0, hostSteal()-steal0)
		elapsed += d
	}
	if err := s.quiesce(); err != nil {
		return nil, err
	}
	after := takeSnap()
	ops1, failed1, rt1, _ := totals(cs)
	ops, failed := ops1-ops0, failed1-failed0
	if ops == 0 {
		return nil, errors.New("no access completed in the measured phase")
	}

	o := &outcome{}
	d := deltaOf(before, after)
	blocks, err := physBlocks(s, d)
	if err != nil {
		o.fail("%v", err)
	}
	checkRun(o, s, cs, ops, blocks)

	ws.all = nil
	for _, c := range cs {
		c.lat = [2][]int64{} // the live heap is the stack's, not the samples'
	}
	endHeap := heapLiveMB()
	m := newMetricSet(endToEndMetrics)
	m.set("throughput_ops_s", ws.median(ws.tput))
	m.set("read_p50_us", ws.median(ws.q[0][0]))
	m.set("read_p90_us", ws.median(ws.q[0][1]))
	m.set("write_p50_us", ws.median(ws.q[1][0]))
	m.set("write_p90_us", ws.median(ws.q[1][1]))
	m.set("cpu_us_per_op", ws.median(ws.cpu))
	m.set("phys_blocks_per_op", float64(blocks)/float64(ops))
	m.set("storage_bytes_per_user_byte", s.storageRatio())
	m.set("stack_heap_mb", slices.Min(heaps))
	m.set("setup_s", median(setups))
	if err := m.complete(); err != nil {
		return nil, err
	}
	o.metrics = m.m
	o.details = map[string]any{
		"ops":              ops,
		"failed_frac":      float64(failed) / float64(ops),
		"elapsed_s":        elapsed.Seconds(),
		"window_ops_s":     ws.tput,
		"window_steal_pct": ws.steal,
		"windows_kept":     ws.keptCount(),
		"host_steal_pct":   median(ws.steal),
		"read_samples":     ws.n[0],
		"write_samples":    ws.n[1],
		// p99 is kept for reference only: on a shared 2-core host it
		// swings by 50–90% between runs, too much to gate on.
		"read_p99_us":           ws.median(ws.q[0][2]),
		"write_p99_us":          ws.median(ws.q[1][2]),
		"ops_s_overall":         float64(ops) / elapsed.Seconds(),
		"cpu_us_per_op_all":     float64(after.cpu-before.cpu) / 1e3 / float64(ops),
		"setup_samples_s":       setups,
		"stack_heap_samples_mb": heaps,
		// The live heap at the end of the load, stack and callers, is
		// kept for reference only: on dpram-wal it carries the varying
		// set-up retention README.md describes.
		"heap_live_mb":      endHeap,
		"blocks_per_access": s.blocksPerAccess,
		"roundtrips_per_op": float64(rt1-rt0) / float64(ops),
		"allocs_per_op":     float64(after.mallocs-before.mallocs) / float64(ops),
		"gc_cycles":         after.numGC - before.numGC,
		"slots":             s.slots,
		"slot_bytes":        s.slotSize,
		"records":           s.records,
		"record_bytes":      s.recordSize,
		"callers":           numCallers,
		"write_pct":         w.writePct,
		"scheme_seed":       schemeSeed,
		"warmup_s":          warmup.Seconds(),
	}
	return o, nil
}

// runTraced measures where the time of one access goes. It first runs
// the untraced stack for half the time as the reference for the tracing
// overhead, then the traced stack for the other half (or until the span
// buffer is nearly full), and derives the per-layer metrics from the
// spans and from the program's instruments over the traced phase.
func runTraced(w workload, seed int64, dur time.Duration, tmpDir, spansPath string) (*outcome, error) {
	cfg := config{records: records, recordSize: recordSize, tmpDir: tmpDir}
	refOps, refElapsed, err := referencePhase(w, cfg, seed, dur/2)
	if err != nil {
		return nil, err
	}

	tr := newTracer(spanCapacity, numCallers)
	cfg.tracer = tr
	runtime.GC()
	s, err := buildStack(w, cfg)
	if err != nil {
		return nil, err
	}
	defer s.Close() //nolint:errcheck // the load's results are already taken
	cs, err := newCallers(s, w, seed, numCallers, tr)
	if err != nil {
		return nil, err
	}
	defer closeCallers(cs) //nolint:errcheck // runs first; see above

	runPhase(cs, warmup, false, nil)
	if err := s.quiesce(); err != nil {
		return nil, err
	}
	ops0, failed0, rt0, _ := totals(cs)
	before := takeSnap()
	tr.start()
	elapsed := runPhase(cs, dur/2, false, tr.nearlyFull)
	err = s.quiesce() // the pipeline's last flushes are background spans too
	tr.stop()
	if err != nil {
		return nil, err
	}
	after := takeSnap()
	ops1, failed1, rt1, _ := totals(cs)
	ops, failed := ops1-ops0, failed1-failed0
	if ops == 0 {
		return nil, errors.New("no access completed in the traced phase")
	}

	o := &outcome{}
	blocks := tr.blocksRead.Load() + tr.blocksWritten.Load()
	checkRun(o, s, cs, ops, blocks)
	if n := tr.dropped.Load(); n > 0 {
		o.fail("the span buffer overflowed by %d spans", n)
	}

	spans, allEnded := tr.recorded()
	if !allEnded {
		o.fail("spans were still open when the traced phase ended")
	}
	b := analyze(spans, ops)
	d := deltaOf(before, after)
	perOp := func(v float64) float64 { return v / float64(ops) }
	m := newMetricSet(perLayerMetrics)
	m.set("trace.caller_mean_us", b.callerUs)
	m.set("trace.budget_pct", b.budgetPct())
	refTput := float64(refOps) / refElapsed.Seconds()
	tput := float64(ops) / elapsed.Seconds()
	m.set("trace.overhead_pct", 100*(refTput-tput)/refTput)
	m.set("trace.spans", float64(len(spans)))
	m.set("serve.self_us", b.selfUs[layerCaller])
	m.set("serve.request_us", meanUs(d.hist("dpstore_serve_request_seconds")))
	m.set("proxy.queue_wait_us", b.selfUs[layerAccessor])
	m.set("scheme.self_us", b.selfUs[layerScheme])
	stash := 0.0
	if n := tr.stashN.Load(); n > 0 {
		stash = float64(tr.stashSum.Load()) / float64(n)
	}
	m.set("scheme.stash_mean", stash)
	_, sealed := d.hist("dpstore_crypto_seal_batch_records")
	_, opened := d.hist("dpstore_crypto_open_batch_records")
	m.set("crypto.sealed_per_op", perOp(float64(sealed)))
	m.set("crypto.opened_per_op", perOp(float64(opened)))
	m.set("pipeline.self_us", b.selfUs[layerPipeRead]+b.selfUs[layerPipeWrite])
	m.set("pipeline.read_us", b.meanUs[layerPipeRead])
	m.set("pipeline.write_us", b.meanUs[layerPipeWrite])
	flushes, flushed := d.hist("dpstore_pipeline_flush_ops")
	m.set("pipeline.flush_ops", ratio(float64(flushed), float64(flushes)))
	m.set("store.blocking_us", b.selfUs[layerStoreRead]+b.selfUs[layerStoreWrite])
	m.set("store.background_us", b.backgroundUs)
	m.set("store.read_us", b.meanUs[layerStoreRead])
	m.set("store.write_us", b.meanUs[layerStoreWrite])
	m.set("store.blocks_read_per_op", perOp(float64(tr.blocksRead.Load())))
	m.set("store.blocks_written_per_op", perOp(float64(tr.blocksWritten.Load())))
	fsyncs, fsyncNs := d.hist("dpstore_wal_fsync_seconds")
	appends, appendNs := d.hist("dpstore_wal_append_seconds")
	applies, applyNs := d.hist("dpstore_wal_apply_seconds")
	groups, grouped := d.hist("dpstore_wal_commit_group_requests")
	m.set("wal.fsyncs_per_op", perOp(float64(fsyncs)))
	m.set("wal.fsync_us", meanUs(fsyncs, fsyncNs))
	m.set("wal.commit_group", ratio(float64(grouped), float64(groups)))
	m.set("wal.append_us", meanUs(appends, appendNs))
	m.set("wal.apply_us", meanUs(applies, applyNs))
	m.set("wal.background_us", perOp(float64(fsyncNs+appendNs+applyNs)/1e3))
	m.set("client.roundtrips_per_op", perOp(float64(rt1-rt0)))
	m.set("runtime.allocs_per_op", perOp(float64(after.mallocs-before.mallocs)))
	m.set("runtime.gc_cycles", float64(after.numGC-before.numGC))
	if err := m.complete(); err != nil {
		return nil, err
	}
	if pct := b.budgetPct(); pct < 90 || pct > 110 {
		o.fail("the blocking-path self times sum to %.1f%% of the mean caller latency, outside 90–110%%", pct)
	}
	o.metrics = m.m

	if err := tr.writeSpans(spansPath); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	o.details = map[string]any{
		"ops":                    ops,
		"failed_frac":            float64(failed) / float64(ops),
		"traced_s":               elapsed.Seconds(),
		"traced_ops_s":           tput,
		"reference_ops_s":        refTput,
		"reference_s":            refElapsed.Seconds(),
		"spans_file":             filepath.ToSlash(spansPath),
		"span_layers":            layerNames[:],
		"blocks_per_access":      s.blocksPerAccess,
		"blocking_self_us":       b.selfByName(),
		"callers":                numCallers,
		"write_pct":              w.writePct,
		"scheme_seed":            schemeSeed,
		"phys_blocks_per_op":     perOp(float64(blocks)),
		"storage_bytes_per_user": s.storageRatio(),
	}
	return o, nil
}

// referencePhase runs the untraced stack for d after warming it up and
// returns the accesses it completed and the time they took.
func referencePhase(w workload, cfg config, seed int64, d time.Duration) (int64, time.Duration, error) {
	runtime.GC()
	s, err := buildStack(w, cfg)
	if err != nil {
		return 0, 0, err
	}
	cs, err := newCallers(s, w, seed, numCallers, nil)
	if err != nil {
		return 0, 0, errors.Join(err, s.Close())
	}
	runPhase(cs, warmup, false, nil)
	ops0, _, _, _ := totals(cs)
	elapsed := runPhase(cs, d, false, nil)
	ops1, failed, _, firstErr := totals(cs)
	if err := errors.Join(closeCallers(cs), s.Close()); err != nil {
		return 0, 0, err
	}
	if failed > 0 {
		return 0, 0, fmt.Errorf("reference phase: %d accesses failed; first: %w", failed, firstErr)
	}
	return ops1 - ops0, elapsed, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// median is the middle of v, or 0 for no values.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
