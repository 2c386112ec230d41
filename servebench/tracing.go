package main

import (
	"encoding/binary"
	"os"
	"sync/atomic"
	"time"

	"dpstore/internal/block"
	"dpstore/internal/proxy"
	"dpstore/internal/store"
	dpworkload "dpstore/internal/workload"
)

// layer names the seam a span was recorded at.
type layer uint8

const (
	layerCaller     layer = iota // client call, send → reply, on the caller's goroutine
	layerAccessor                // store.Accessor.AccessRecord, on the serve goroutine
	layerScheme                  // proxy.Scheme.Access, on the proxy scheduler
	layerPipeRead                // Pipeline.ReadBatch as the scheme calls it
	layerPipeWrite               // Pipeline.WriteBatch as the scheme calls it
	layerStoreRead               // a read at the backing
	layerStoreWrite              // a write at the backing
	numLayers
)

var layerNames = [numLayers]string{"caller", "accessor", "scheme", "pipeline.read", "pipeline.write", "store.read", "store.write"}

// span is one timed call at a seam. Times are nanoseconds since the
// tracer's base; parent is the index of the span that caused it, or -1
// for background work (the pipeline's asynchronous flush).
type span struct {
	start, end int64
	parent     int32
	layer      layer
}

// spanBytes is the size of one span record in the spans file.
const spanBytes = 24

// tracer records spans into a buffer allocated up front, so tracing
// allocates nothing while the load runs. Recording is off until start.
//
// Parents are found without goroutine identity. The load gives each
// caller the records ≡ id (mod callers) and one request in flight, so a
// record index names its caller's open span; the proxy scheduler runs
// one scheme access at a time, so the scheme's pipeline calls belong to
// the open scheme span; and the pipeline reads the backing only from
// inside its own ReadBatch, while every backing write under a pipeline
// comes from its writer goroutine and is background work.
type tracer struct {
	base    time.Time
	callers int
	on      atomic.Bool
	spans   []span
	n       atomic.Int64
	dropped atomic.Int64
	ended   atomic.Int64 // spans closed; see recorded

	curOp       []atomic.Int32 // per caller: its open caller span
	curAcc      []atomic.Int32 // per caller: its open accessor span
	curScheme   atomic.Int32
	curPipeRead atomic.Int32

	blocksRead, blocksWritten atomic.Int64
	stashSum, stashN          atomic.Int64
}

func newTracer(capacity, callers int) *tracer {
	t := &tracer{
		base:    time.Now(),
		callers: callers,
		spans:   make([]span, capacity),
		curOp:   make([]atomic.Int32, callers),
		curAcc:  make([]atomic.Int32, callers),
	}
	for c := range callers {
		t.curOp[c].Store(-1)
		t.curAcc[c].Store(-1)
	}
	t.curScheme.Store(-1)
	t.curPipeRead.Store(-1)
	return t
}

func (t *tracer) start() { t.on.Store(true) }
func (t *tracer) stop()  { t.on.Store(false) }

// nearlyFull reports whether the buffer is close enough to its end that
// the load must stop before spans are lost.
func (t *tracer) nearlyFull() bool {
	return t.n.Load() > int64(len(t.spans))-4096
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// begin opens a span and returns its index, or -1 when not recording.
func (t *tracer) begin(l layer, parent int32) int32 {
	if t == nil || !t.on.Load() {
		return -1
	}
	i := t.n.Add(1) - 1
	if i >= int64(len(t.spans)) {
		t.dropped.Add(1)
		return -1
	}
	t.spans[i] = span{start: t.now(), parent: parent, layer: l}
	return int32(i)
}

func (t *tracer) end(id int32) {
	if id >= 0 {
		t.spans[id].end = t.now()
		t.ended.Add(1)
	}
}

// recorded returns the spans recorded so far and whether all of them have
// ended. Spans are written on the goroutines that record them; loading
// the count of ended spans orders those writes before the caller's reads.
func (t *tracer) recorded() (spans []span, allEnded bool) {
	ended := t.ended.Load()
	n := min(t.n.Load(), int64(len(t.spans)))
	return t.spans[:n], ended == n
}

// setOp marks id as caller c's open span.
func (t *tracer) setOp(c int, id int32) {
	if t != nil {
		t.curOp[c].Store(id)
	}
}

func (t *tracer) owner(index int) int { return index % t.callers }

// writeSpans writes the recorded spans as little-endian records of
// spanBytes: start and end (int64 ns since the tracer's base), parent
// (int32, -1 for none), layer (uint8, an index into the result file's
// span_layers), and three bytes of padding.
func (t *tracer) writeSpans(path string) error {
	spans, _ := t.recorded()
	buf := make([]byte, len(spans)*spanBytes)
	for i, sp := range spans {
		b := buf[i*spanBytes:]
		binary.LittleEndian.PutUint64(b[0:], uint64(sp.start))
		binary.LittleEndian.PutUint64(b[8:], uint64(sp.end))
		binary.LittleEndian.PutUint32(b[16:], uint32(sp.parent))
		b[20] = byte(sp.layer)
	}
	return os.WriteFile(path, buf, 0o644)
}

// --- Wrappers --------------------------------------------------------------
//
// Each wrap method returns its argument unchanged on a nil tracer, so the
// untraced stack is exactly the daemon's.

// tracedAccessor sits between the serve loop and the proxy.
type tracedAccessor struct {
	frontAccessor
	t *tracer
}

// frontAccessor is what the serve loop and the daemon use of a proxy:
// the accessor, its stash depth gauge, its partition count and its
// recovery epoch.
type frontAccessor interface {
	store.Accessor
	LoadDepth() uint64
	Partitions() int
	Epoch() uint64
}

func (t *tracer) wrapAccessor(a frontAccessor) store.Accessor {
	if t == nil {
		return a
	}
	return &tracedAccessor{frontAccessor: a, t: t}
}

func (a *tracedAccessor) AccessRecord(index int, write bool, data block.Block) (block.Block, error) {
	c := a.t.owner(index)
	id := a.t.begin(layerAccessor, a.t.curOp[c].Load())
	a.t.curAcc[c].Store(id)
	b, err := a.frontAccessor.AccessRecord(index, write, data)
	a.t.end(id)
	return b, err
}

// stashScheme is a scheme that reports its stash occupancy, which the
// proxy reads after every access for its stash gauge. dpram.Client and
// pathoram.ORAM both are.
type stashScheme interface {
	proxy.Scheme
	StashSize() int
}

// tracedScheme sits between the proxy scheduler and the scheme.
type tracedScheme struct {
	stashScheme
	t *tracer
}

func (t *tracer) wrapScheme(s stashScheme) stashScheme {
	if t == nil {
		return s
	}
	return &tracedScheme{stashScheme: s, t: t}
}

func (s *tracedScheme) Access(q dpworkload.Query) (block.Block, error) {
	id := s.t.begin(layerScheme, s.t.curAcc[s.t.owner(q.Index)].Load())
	s.t.curScheme.Store(id)
	b, err := s.stashScheme.Access(q)
	s.t.end(id)
	if id >= 0 {
		s.t.stashSum.Add(int64(s.stashScheme.StashSize()))
		s.t.stashN.Add(1)
	}
	return b, err
}

// tracedPipeline sits between the scheme and the write-behind pipeline.
// Both schemes reach the pipeline only through ReadBatch and WriteBatch.
type tracedPipeline struct {
	*proxy.Pipeline
	t *tracer
}

func (t *tracer) wrapPipeline(p *proxy.Pipeline) store.BatchServer {
	if t == nil {
		return p
	}
	return &tracedPipeline{Pipeline: p, t: t}
}

func (p *tracedPipeline) ReadBatch(addrs []int) ([]block.Block, error) {
	id := p.t.begin(layerPipeRead, p.t.curScheme.Load())
	p.t.curPipeRead.Store(id)
	b, err := p.Pipeline.ReadBatch(addrs)
	p.t.end(id)
	return b, err
}

func (p *tracedPipeline) WriteBatch(ops []store.WriteOp) error {
	id := p.t.begin(layerPipeWrite, p.t.curScheme.Load())
	err := p.Pipeline.WriteBatch(ops)
	p.t.end(id)
	return err
}

// tracedStore sits on the backing: under the pipeline in a proxy stack,
// or under the serve loop in a plaintext one.
type tracedStore struct {
	store.BatchServer
	t             *tracer
	underPipeline bool
}

func (t *tracer) wrapStore(s store.BatchServer, underPipeline bool) store.BatchServer {
	if t == nil {
		return s
	}
	return &tracedStore{BatchServer: s, t: t, underPipeline: underPipeline}
}

// parent returns the span a backing call at addr belongs to.
func (s *tracedStore) parent(addr int, write bool) int32 {
	switch {
	case !s.underPipeline:
		return s.t.curOp[s.t.owner(addr)].Load()
	case write:
		return -1
	default:
		return s.t.curPipeRead.Load()
	}
}

// beginRead and beginWrite open a backing span for a call whose first
// address is addr; endRead and endWrite close it and count its blocks.
func (s *tracedStore) beginRead(addr int) int32 {
	return s.t.begin(layerStoreRead, s.parent(addr, false))
}

func (s *tracedStore) beginWrite(addr int) int32 {
	return s.t.begin(layerStoreWrite, s.parent(addr, true))
}

func (s *tracedStore) endRead(id int32, blocks int) {
	s.t.end(id)
	if id >= 0 {
		s.t.blocksRead.Add(int64(blocks))
	}
}

func (s *tracedStore) endWrite(id int32, blocks int) {
	s.t.end(id)
	if id >= 0 {
		s.t.blocksWritten.Add(int64(blocks))
	}
}

func (s *tracedStore) ReadBatch(addrs []int) ([]block.Block, error) {
	if len(addrs) == 0 {
		return s.BatchServer.ReadBatch(addrs)
	}
	id := s.beginRead(addrs[0])
	b, err := s.BatchServer.ReadBatch(addrs)
	s.endRead(id, len(addrs))
	return b, err
}

func (s *tracedStore) WriteBatch(ops []store.WriteOp) error {
	if len(ops) == 0 {
		return s.BatchServer.WriteBatch(ops)
	}
	id := s.beginWrite(ops[0].Addr)
	err := s.BatchServer.WriteBatch(ops)
	s.endWrite(id, len(ops))
	return err
}

func (s *tracedStore) Download(addr int) (block.Block, error) {
	id := s.beginRead(addr)
	b, err := s.BatchServer.Download(addr)
	s.endRead(id, 1)
	return b, err
}

func (s *tracedStore) Upload(addr int, b block.Block) error {
	id := s.beginWrite(addr)
	err := s.BatchServer.Upload(addr, b)
	s.endWrite(id, 1)
	return err
}
