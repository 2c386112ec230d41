package store

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
)

// DefaultNamespace is the namespace a connection speaks to before (or
// without ever) sending an open request — the implicit tenant of every
// pre-namespace client.
const DefaultNamespace = ""

// ErrNamespace reports a namespace open that the registry refused.
var ErrNamespace = errors.New("store: namespace rejected")

// Namespaces is a concurrent registry of named block stores hosted by one
// daemon. Each namespace is an independent Server — its own address space,
// its own locks — so tenants sharing a daemon contend only on the registry
// map (one mutex acquisition per open, none per block operation).
//
// Namespaces are either attached up front (Attach, AttachAccessor) or
// created on demand at the first open naming them, when a factory is
// installed (SetFactory). The zero value is unusable; construct with
// NewNamespaces.
//
// A namespace is backed either by a block store (Attach) — clients speak
// download/upload/batch frames against raw addresses — or by an Accessor
// (AttachAccessor) — clients speak only logical record accesses and the
// physical store stays hidden behind the proxy. The two are mutually
// exclusive per name.
type Namespaces struct {
	mu      sync.Mutex
	m       map[string]tenant
	factory func(name string, slots, blockSize int) (Server, error)
	created int
	max     int
	epoch   uint64

	// Admission control (see admission.go): one limiter per namespace,
	// created lazily with the registry-wide options.
	admit    AdmitOptions
	limiters map[string]*limiter
}

// tenant is one hosted namespace: exactly one of the two backends is set.
// name is the key it is registered under (the serve loop uses it to find
// the namespace's admission limiter after an open).
type tenant struct {
	name  string
	batch BatchServer // block-backed namespace
	acc   Accessor    // proxy-backed namespace
}

// none reports an unregistered (zero) tenant.
func (t tenant) none() bool { return t.batch == nil && t.acc == nil }

// NewNamespaces returns an empty registry.
func NewNamespaces() *Namespaces {
	return &Namespaces{m: make(map[string]tenant), limiters: make(map[string]*limiter)}
}

// SetEpoch sets the recovery epoch the serve loop reports in every info
// and open handshake. A durable daemon passes the value BumpEpoch returned
// at startup; the zero default means "no durability claim", which is what
// in-memory daemons report.
func (ns *Namespaces) SetEpoch(e uint64) {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	ns.epoch = e
}

// Epoch returns the registry's recovery epoch.
func (ns *Namespaces) Epoch() uint64 {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	return ns.epoch
}

// Attach registers s under name, replacing any previous registration.
// Attached namespaces do not count against the factory's creation cap.
func (ns *Namespaces) Attach(name string, s Server) {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	ns.m[name] = tenant{name: name, batch: AsBatch(s)}
}

// AttachAccessor registers a proxy-backed namespace under name, replacing
// any previous registration. Connections that open it can issue only
// logical access frames; block frames are rejected, keeping the physical
// store invisible to clients.
func (ns *Namespaces) AttachAccessor(name string, a Accessor) {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	ns.m[name] = tenant{name: name, acc: a}
}

// SetFactory installs the on-demand creation path: an open naming an
// unregistered namespace calls factory with the client's requested shape
// (zeros mean "factory's choice"). At most max namespaces are created this
// way; further misses are rejected, bounding how many stores a hostile
// client can make the daemon build. The requested shape itself is
// client-controlled input: the factory must bound it (see the -maxbytes
// budget in cmd/blockstored) before allocating.
func (ns *Namespaces) SetFactory(max int, factory func(name string, slots, blockSize int) (Server, error)) {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	ns.factory = factory
	ns.max = max
}

// Get returns the block store registered under name, if any. Proxy-backed
// namespaces report false: they have no client-visible block store.
func (ns *Namespaces) Get(name string) (BatchServer, bool) {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	t := ns.m[name]
	return t.batch, t.batch != nil
}

// GetAccessor returns the accessor registered under name, if any.
func (ns *Namespaces) GetAccessor(name string) (Accessor, bool) {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	t := ns.m[name]
	return t.acc, t.acc != nil
}

// lookup returns the tenant registered under name (zero tenant if none).
func (ns *Namespaces) lookup(name string) tenant {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	return ns.m[name]
}

// Names returns the registered namespace names, in no particular order.
func (ns *Namespaces) Names() []string {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	names := make([]string, 0, len(ns.m))
	for name := range ns.m {
		names = append(names, name)
	}
	return names
}

// Open resolves name for a client that requested the given shape (zeros
// mean "no preference"), returning the namespace's block store. Opening a
// proxy-backed namespace through this method is an error — use openTenant
// (the serve loop's path), which hands back the accessor. See openTenant
// for the creation semantics.
func (ns *Namespaces) Open(name string, slots, blockSize int) (BatchServer, error) {
	t, err := ns.openTenant(name, slots, blockSize)
	if err != nil {
		return nil, err
	}
	if t.batch == nil {
		return nil, fmt.Errorf("%w: namespace %q is proxy-backed, not a block store", ErrNamespace, name)
	}
	return t.batch, nil
}

// openTenant resolves name for a client that requested the given shape
// (zeros mean "no preference"). An existing namespace is returned as long
// as the requested shape does not contradict its actual one — for a
// proxy-backed namespace the shape compared against is the logical one. A
// missing namespace is created through the factory when one is installed
// and the creation cap has room. The factory runs outside the registry
// lock — it may allocate gigabytes or create files — and concurrent
// first-opens of the same name are collapsed to one winner.
func (ns *Namespaces) openTenant(name string, slots, blockSize int) (tenant, error) {
	ns.mu.Lock()
	if t, ok := ns.m[name]; ok {
		ns.mu.Unlock()
		if err := t.checkShape(name, slots, blockSize); err != nil {
			return tenant{}, err
		}
		return t, nil
	}
	factory := ns.factory
	if factory == nil {
		ns.mu.Unlock()
		return tenant{}, fmt.Errorf("%w: unknown namespace %q", ErrNamespace, name)
	}
	if ns.created >= ns.max {
		ns.mu.Unlock()
		return tenant{}, fmt.Errorf("%w: namespace cap %d reached, cannot create %q", ErrNamespace, ns.max, name)
	}
	// Reserve the slot before building the backend so a burst of opens
	// cannot overshoot the cap, then release the lock for the (possibly
	// slow) factory call.
	ns.created++
	ns.mu.Unlock()

	backend, err := factory(name, slots, blockSize)
	if err != nil {
		ns.mu.Lock()
		ns.created--
		ns.mu.Unlock()
		return tenant{}, fmt.Errorf("%w: creating %q: %v", ErrNamespace, name, err)
	}

	ns.mu.Lock()
	if t, ok := ns.m[name]; ok {
		// A concurrent open of the same name won the race; keep its
		// backend, refund our reservation, and discard ours (closing it
		// if the factory built something closable, e.g. file shards).
		// The winner's shape still has to satisfy *this* caller's
		// request, exactly as the existing-namespace path checks.
		ns.created--
		ns.mu.Unlock()
		if c, ok := backend.(io.Closer); ok {
			c.Close() //nolint:errcheck
		}
		if err := t.checkShape(name, slots, blockSize); err != nil {
			return tenant{}, err
		}
		return t, nil
	}
	defer ns.mu.Unlock()
	t := tenant{name: name, batch: AsBatch(backend)}
	ns.m[name] = t
	return t, nil
}

// shape returns the tenant's client-visible shape: the store's physical
// one for block namespaces, the scheme's logical one for proxy-backed
// namespaces.
func (t tenant) shape() (slots, blockSize int) {
	if t.acc != nil {
		return t.acc.Records(), t.acc.RecordSize()
	}
	return t.batch.Size(), t.batch.BlockSize()
}

// checkShape verifies a client's requested shape (zeros = no preference)
// against the tenant's actual one. A nil error means the tenant satisfies
// the request.
func (t tenant) checkShape(name string, slots, blockSize int) error {
	haveSlots, haveBS := t.shape()
	if slots != 0 && slots != haveSlots {
		return fmt.Errorf("%w: %q holds %d slots, client wants %d", ErrNamespace, name, haveSlots, slots)
	}
	if blockSize != 0 && blockSize != haveBS {
		return fmt.Errorf("%w: %q has %d B blocks, client wants %d", ErrNamespace, name, haveBS, blockSize)
	}
	return nil
}

// ServeNamespaces accepts connections on ln and serves the wire protocol
// against the registry until ln is closed. A connection starts in
// DefaultNamespace (requests fail until an open succeeds if no default is
// registered) and may switch namespaces with open requests at any point.
// Returns the listener's accept error, net.ErrClosed after a clean
// shutdown.
func ServeNamespaces(ln net.Listener, ns *Namespaces) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		go serveConn(conn, ns)
	}
}
