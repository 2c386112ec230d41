package main

// budget is the per-layer account of a traced phase, in microseconds per
// access unless named otherwise.
type budget struct {
	callerUs     float64            // mean caller latency
	selfUs       [numLayers]float64 // self time on the blocking path, per access
	meanUs       [numLayers]float64 // mean span duration, per call
	backgroundUs float64            // backing busy time off the blocking path, per access
}

// analyze computes self times from spans. A span's self time is its
// duration minus the part of it its children cover. A span is on the
// blocking path when its parent chain reaches a caller span; every other
// span is background work. A parent opens before its children, so it
// always has the smaller index.
func analyze(spans []span, ops int64) budget {
	covered := make([]int64, len(spans))
	blocking := make([]bool, len(spans))
	for i, sp := range spans {
		p := sp.parent
		blocking[i] = sp.layer == layerCaller || (p >= 0 && blocking[p])
		if p >= 0 {
			covered[p] += overlap(sp, spans[p])
		}
	}
	var b budget
	var total [numLayers]int64
	var calls [numLayers]int64
	var callerNs, backgroundNs int64
	var self [numLayers]int64
	for i, sp := range spans {
		d := sp.end - sp.start
		total[sp.layer] += d
		calls[sp.layer]++
		if sp.layer == layerCaller {
			callerNs += d
		}
		if blocking[i] {
			self[sp.layer] += d - covered[i]
		} else {
			backgroundNs += d
		}
	}
	n := float64(ops)
	b.callerUs = float64(callerNs) / 1e3 / n
	b.backgroundUs = float64(backgroundNs) / 1e3 / n
	for l := range numLayers {
		b.selfUs[l] = float64(self[l]) / 1e3 / n
		if calls[l] > 0 {
			b.meanUs[l] = float64(total[l]) / 1e3 / float64(calls[l])
		}
	}
	return b
}

// overlap is the part of parent's interval that child covers.
func overlap(child, parent span) int64 {
	lo, hi := max(child.start, parent.start), min(child.end, parent.end)
	return max(hi-lo, 0)
}

// budgetPct is the blocking-path self times' sum as a share of the mean
// caller latency. The layers partition each caller's time, so anything
// far from 100 means spans were lost or attached to the wrong parent.
func (b budget) budgetPct() float64 {
	var sum float64
	for _, v := range b.selfUs {
		sum += v
	}
	if b.callerUs == 0 {
		return 0
	}
	return 100 * sum / b.callerUs
}

// selfByName is the blocking-path budget keyed by layer name.
func (b budget) selfByName() map[string]float64 {
	m := make(map[string]float64, numLayers)
	for l := range numLayers {
		m[layerNames[l]] = b.selfUs[l]
	}
	return m
}
