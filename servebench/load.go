package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"time"

	"dpstore/internal/block"
	"dpstore/internal/proxy"
	"dpstore/internal/store"
)

// numCallers is the closed-loop concurrency: one caller per core of the
// 2-core host the benchmark was designed on. README.md explains why the
// load is closed-loop.
const numCallers = 2

// client is the caller's view of a served stack: the real wire clients,
// proxy.Client for proxy-backed stacks and store.Pool for block stacks.
type client interface {
	read(i int) (block.Block, error)
	// write stores b at i. hasPrev reports whether the protocol returns
	// the previous value, which is then checked too.
	write(i int, b block.Block) (prev block.Block, hasPrev bool, err error)
	roundTrips() int64
	Close() error
}

type proxyClient struct{ *proxy.Client }

func (c proxyClient) read(i int) (block.Block, error) { return c.Read(i) }
func (c proxyClient) write(i int, b block.Block) (block.Block, bool, error) {
	prev, err := c.Write(i, b)
	return prev, true, err
}
func (c proxyClient) roundTrips() int64 { return c.RoundTrips() }

type poolClient struct{ *store.Pool }

func (c poolClient) read(i int) (block.Block, error) { return c.Download(i) }
func (c poolClient) write(i int, b block.Block) (block.Block, bool, error) {
	return nil, false, c.Upload(i, b)
}
func (c poolClient) roundTrips() int64 { return c.RoundTrips() }

// dial opens one connection to s for a caller.
func (s *stack) dial() (client, error) {
	if s.proxy != nil {
		c, err := proxy.Dial(s.addr)
		if err != nil {
			return nil, err
		}
		return proxyClient{c}, nil
	}
	p, err := store.DialPool(s.addr, 1)
	if err != nil {
		return nil, err
	}
	return poolClient{p}, nil
}

// caller is one closed-loop client. It owns the records ≡ id (mod
// callers), so a shadow of its own writes predicts every value it reads.
type caller struct {
	id, callers int
	cl          client
	rng         *rand.Rand
	writePct    int
	tr          *tracer

	shadow []uint64 // per owned record: seq of the last write, 0 = setup's zeros
	seq    uint64
	rec    block.Block // scratch for the record being written
	want   block.Block // scratch for the expected value

	record bool       // keep latencies
	lat    [2][]int64 // ns per access, [0] reads, [1] writes

	ops    int64
	failed int64
	err    error // first failure
}

// newCallers dials one caller per connection. Each caller draws its
// record indices and read/write mix from its own stream of seed.
func newCallers(s *stack, w workload, seed int64, n int, tr *tracer) ([]*caller, error) {
	cs := make([]*caller, 0, n)
	for id := range n {
		cl, err := s.dial()
		if err != nil {
			closeCallers(cs)
			return nil, err
		}
		cs = append(cs, &caller{
			id: id, callers: n, cl: cl,
			rng:      rand.New(rand.NewPCG(uint64(seed), uint64(id))),
			writePct: w.writePct,
			tr:       tr,
			shadow:   make([]uint64, (s.records-id+n-1)/n),
			rec:      block.New(s.recordSize),
			want:     block.New(s.recordSize),
		})
	}
	return cs, nil
}

func closeCallers(cs []*caller) error {
	var errs []error
	for _, c := range cs {
		if err := c.cl.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// fillRecord writes the value of caller id's write number seq into b:
// an 8-byte (caller, seq) stamp followed by bytes derived from it. Write
// number 0 is the all-zero record every stack starts with.
func fillRecord(b block.Block, id int, seq uint64) {
	if seq == 0 {
		clear(b)
		return
	}
	stamp := uint64(id)<<56 | seq
	binary.BigEndian.PutUint64(b, stamp)
	x := stamp*0x9e3779b97f4a7c15 + 1
	for i := 8; i < len(b); i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		b[i] = byte(x)
	}
}

// step issues one access and checks its output against the shadow.
func (c *caller) step() {
	k := c.rng.IntN(len(c.shadow))
	index := k*c.callers + c.id
	write := c.rng.IntN(100) < c.writePct
	fillRecord(c.want, c.id, c.shadow[k])

	sp := c.tr.begin(layerCaller, -1)
	c.tr.setOp(c.id, sp)
	var err error
	t0 := time.Now()
	if write {
		c.seq++
		fillRecord(c.rec, c.id, c.seq)
		var prev block.Block
		var hasPrev bool
		prev, hasPrev, err = c.cl.write(index, c.rec)
		if err == nil && hasPrev && !bytes.Equal(prev, c.want) {
			err = fmt.Errorf("write of record %d returned a previous value that is not this caller's last write (seq %d)", index, c.shadow[k])
		}
		c.shadow[k] = c.seq
	} else {
		var got block.Block
		got, err = c.cl.read(index)
		if err == nil && !bytes.Equal(got, c.want) {
			err = fmt.Errorf("read of record %d does not match this caller's last write (seq %d)", index, c.shadow[k])
		}
	}
	d := time.Since(t0)
	c.tr.end(sp)

	c.ops++
	if err != nil {
		c.failed++
		if c.err == nil {
			c.err = err
		}
	}
	if c.record {
		op := 0
		if write {
			op = 1
		}
		c.lat[op] = append(c.lat[op], int64(d))
	}
}

// runPhase runs every caller in a closed loop for d, or until stop
// reports true, and returns the elapsed time until the last reply. With
// record set the callers keep the phase's latencies.
func runPhase(cs []*caller, d time.Duration, record bool, stop func() bool) time.Duration {
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for _, c := range cs {
		c.record = record
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) && (stop == nil || !stop()) {
				c.step()
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// totals sums the callers' op and failure counts and round trips.
func totals(cs []*caller) (ops, failed, roundTrips int64, err error) {
	for _, c := range cs {
		ops += c.ops
		failed += c.failed
		roundTrips += c.cl.roundTrips()
		if err == nil {
			err = c.err
		}
	}
	return ops, failed, roundTrips, err
}
