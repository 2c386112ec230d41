package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"slices"

	"dpstore/internal/baseline/pathoram"
	"dpstore/internal/block"
	"dpstore/internal/core/dpram"
	"dpstore/internal/proxy"
	"dpstore/internal/rng"
	"dpstore/internal/store"
)

// schemeSeed is the scheme coin seed, fixed at the daemon's default
// (-seed 1) so that only the workload seed varies between runs.
const schemeSeed = 1

// workload is one served stack plus the traffic mix driven through it.
type workload struct {
	name     string
	scheme   string // "dpram", "pathoram", or "" for a plaintext block namespace
	durable  bool   // store.Durable (group commit) instead of store.Mem
	writePct int    // share of writes in the mix, in percent
}

// workloads are the benchmark's stacks, in the order BENCHMARK.json
// lists them; README.md says why each exists. All use n = 2^16 records
// of 64 B.
var workloads = []workload{
	{name: "dpram-mem", scheme: "dpram", writePct: 10},
	{name: "pathoram-mem", scheme: "pathoram", writePct: 10},
	{name: "dpram-wal", scheme: "dpram", durable: true, writePct: 50},
}

// referenceWorkloads run on request but are not in BENCHMARK.json:
// plain-mem, the paper's no-privacy reference, is left out of the gated
// set so that the gated runs can be long enough to be steady.
var referenceWorkloads = []workload{
	{name: "plain-mem", writePct: 10},
}

func lookupWorkload(name string) (workload, error) {
	all := slices.Concat(workloads, referenceWorkloads)
	for _, w := range all {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(all))
	for i, w := range all {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// config sizes a stack and says where and how to build it.
type config struct {
	records    int
	recordSize int
	tmpDir     string  // parent of each durable stack's fresh data directory
	tracer     *tracer // nil builds the stack exactly as the daemon wires it
	// backing, when set, replaces the workload's Mem or Durable backing.
	// Tests use it to record or corrupt what the stack stores.
	backing func(slots, blockSize int) (store.BatchServer, error)
}

// stack is one served deployment: backing, optional scheme behind the
// proxy scheduler, and the serve loop on a loopback listener.
type stack struct {
	w          workload
	addr       string
	records    int
	recordSize int
	slots      int
	slotSize   int
	// blocksPerAccess is the paper's cost measure for this stack: 1 for
	// plaintext, 3 for DP-RAM, 2Z(L+1) for Path ORAM from the tree the
	// scheme built.
	blocksPerAccess int

	proxy     *proxy.Proxy   // nil for plaintext
	scheme    proxy.Scheme   // the scheme as the proxy sees it (wrapped when traced)
	accessor  store.Accessor // the proxy as the serve loop sees it (wrapped when traced)
	ln        net.Listener
	serveDone chan error
	closers   []func() error // run in reverse order by Close
}

// buildStack assembles w from the public constructors the daemon's
// -proxy and -data paths use, in the daemon's order: backing, pipeline,
// scheme Setup, proxy, first Flush, namespace attach, serve on loopback.
// With cfg.tracer set, the tracer's wrappers sit at each seam.
func buildStack(w workload, cfg config) (_ *stack, err error) {
	s := &stack{w: w, records: cfg.records, recordSize: cfg.recordSize}
	defer func() {
		if err != nil {
			err = errors.Join(err, s.Close())
		}
	}()

	s.slots, s.slotSize = cfg.records, cfg.recordSize
	switch w.scheme {
	case "dpram":
		s.slotSize = dpram.ServerBlockSize(cfg.recordSize, dpram.Options{})
	case "pathoram":
		s.slots, s.slotSize = pathoram.TreeShape(cfg.records, cfg.recordSize, pathoram.Options{})
	}

	var backing store.BatchServer
	switch {
	case cfg.backing != nil:
		backing, err = cfg.backing(s.slots, s.slotSize)
	case w.durable:
		backing, err = s.createDurable(cfg.tmpDir)
	default:
		backing, err = store.NewMem(s.slots, s.slotSize)
	}
	if err != nil {
		return nil, err
	}
	backing = cfg.tracer.wrapStore(backing, w.scheme != "")

	ns := store.NewNamespaces()
	if w.scheme == "" {
		s.blocksPerAccess = 1
		ns.Attach(store.DefaultNamespace, backing)
	} else {
		if err := s.buildProxy(w, cfg, backing); err != nil {
			return nil, err
		}
		ns.AttachAccessor(store.DefaultNamespace, s.accessor)
		ns.SetEpoch(s.proxy.Epoch())
	}

	s.ln, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s.addr = s.ln.Addr().String()
	s.serveDone = make(chan error, 1)
	go func() { s.serveDone <- store.ServeNamespaces(s.ln, ns) }()
	return s, nil
}

func (s *stack) createDurable(tmpDir string) (store.BatchServer, error) {
	if err := os.MkdirAll(tmpDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(tmpDir, s.w.name+"-")
	if err != nil {
		return nil, err
	}
	s.closers = append(s.closers, func() error { return os.RemoveAll(dir) })
	d, err := store.CreateDurable(filepath.Join(dir, "blocks"), s.slots, s.slotSize, store.DurableOptions{})
	if err != nil {
		return nil, err
	}
	s.closers = append(s.closers, d.Close)
	return d, nil
}

func (s *stack) buildProxy(w workload, cfg config, backing store.BatchServer) error {
	pipe := proxy.NewPipeline(backing)
	server := cfg.tracer.wrapPipeline(pipe)
	db, err := block.NewDatabase(cfg.records, cfg.recordSize)
	if err != nil {
		return err
	}
	var scheme stashScheme
	switch w.scheme {
	case "dpram":
		c, err := dpram.Setup(db, server, dpram.Options{Rand: rng.New(schemeSeed)})
		if err != nil {
			pipe.Close() //nolint:errcheck // already failing
			return fmt.Errorf("dpram setup: %w", err)
		}
		scheme, s.blocksPerAccess = c, 3
	case "pathoram":
		o, err := pathoram.Setup(db, server, pathoram.Options{Rand: rng.New(schemeSeed)})
		if err != nil {
			pipe.Close() //nolint:errcheck // already failing
			return fmt.Errorf("pathoram setup: %w", err)
		}
		scheme, s.blocksPerAccess = o, 2*o.Z()*(o.Height()+1)
	default:
		pipe.Close() //nolint:errcheck // nothing was written
		return fmt.Errorf("unknown scheme %q", w.scheme)
	}
	s.scheme = cfg.tracer.wrapScheme(scheme)
	s.proxy = proxy.New(s.scheme, proxy.Options{Pipeline: pipe})
	s.closers = append(s.closers, s.proxy.Close)
	if err := s.proxy.Flush(); err != nil {
		return fmt.Errorf("%s setup flush: %w", w.scheme, err)
	}
	s.accessor = cfg.tracer.wrapAccessor(s.proxy)
	return nil
}

// quiesce waits until every write the stack accepted has reached the
// backing. Callers must be idle.
func (s *stack) quiesce() error {
	if s.proxy == nil {
		return nil
	}
	return s.proxy.Flush()
}

// storageRatio is slots × slot size over records × record size.
func (s *stack) storageRatio() float64 {
	return float64(s.slots) * float64(s.slotSize) / (float64(s.records) * float64(s.recordSize))
}

// Close stops serving and releases the stack. Clients must be closed
// first, so no connection is inside the accessor or backing.
func (s *stack) Close() error {
	var errs []error
	if s.ln != nil {
		s.ln.Close() //nolint:errcheck // ServeNamespaces reports the close below
		if err := <-s.serveDone; err != nil && !errors.Is(err, net.ErrClosed) {
			errs = append(errs, err)
		}
		s.ln = nil
	}
	for i := len(s.closers) - 1; i >= 0; i-- {
		if err := s.closers[i](); err != nil {
			errs = append(errs, err)
		}
	}
	s.closers = nil
	return errors.Join(errs...)
}
