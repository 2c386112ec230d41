package proxy

import (
	"bufio"
	"fmt"
	"net"
	"sync"

	"dpstore/internal/block"
	"dpstore/internal/wire"
)

// Client is the wire-protocol client for a proxy-backed namespace: logical
// record reads and writes, one round trip each, with the physical access
// pattern handled entirely server-side. Requests on one Client are
// serialized; open one Client per concurrent session (each is one
// connection, and the daemon serves connections concurrently).
type Client struct {
	mu         sync.Mutex
	conn       net.Conn
	r          *bufio.Reader
	w          *bufio.Writer
	records    int
	recordSize int
	epoch      uint64
	partitions int
	roundTrips int64
}

// Dial connects to a proxy daemon at addr and performs the info handshake
// against its default namespace.
func Dial(addr string) (*Client, error) {
	return dial(addr, "")
}

// DialNamespace connects and opens the named proxy-backed namespace on a
// multi-tenant daemon. The name must identify an attached proxy (the
// daemon's open-to-create factory only builds block namespaces, which
// this client cannot use): against a factory-equipped daemon a missing
// or mistyped name is created as a block store and every access then
// fails with "namespace is block-backed" — the handshake alone cannot
// tell the two tenant kinds apart.
func DialNamespace(addr, name string) (*Client, error) {
	return dial(addr, name)
}

func dial(addr, name string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("proxy: dialing %s: %w", addr, err)
	}
	c := &Client{conn: conn, r: bufio.NewReader(conn), w: bufio.NewWriter(conn)}
	req := wire.Frame{Type: wire.MsgInfoReq}
	want := wire.MsgInfoResp
	if name != "" {
		req, err = wire.EncodeOpenReq(wire.OpenReq{Name: name})
		if err != nil {
			conn.Close()
			return nil, err
		}
		want = wire.MsgOpenResp
	}
	resp, err := c.roundTrip(req, want)
	if err != nil {
		conn.Close()
		return nil, err
	}
	info, err := wire.DecodeInfo(resp.Payload)
	if err != nil {
		conn.Close()
		return nil, err
	}
	// A hostile daemon must not hand us a shape that breaks the response
	// validation below (or a later caller's indexing).
	if info.Size == 0 || info.BlockSize == 0 || info.Size > uint64(int(^uint(0)>>1)) {
		conn.Close()
		return nil, fmt.Errorf("proxy: server reported invalid shape (%d records × %d B)", info.Size, info.BlockSize)
	}
	c.records, c.recordSize, c.epoch = int(info.Size), int(info.BlockSize), info.Epoch
	c.partitions = int(info.Partitions)
	return c, nil
}

// Epoch returns the recovery epoch the daemon reported in the handshake
// (0 for a non-durable daemon). A client comparing epochs across
// connections detects daemon restarts — and therefore recoveries.
func (c *Client) Epoch() uint64 { return c.epoch }

// Partitions returns the scheme-partition count the daemon reported in
// the handshake (1 for an unpartitioned proxy, 0 for a namespace making
// no claim). Purely informational for clients — routing is
// entirely server-side.
func (c *Client) Partitions() int { return c.partitions }

func (c *Client) roundTrip(req wire.Frame, want byte) (wire.Frame, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := wire.WriteFrame(c.w, req); err != nil {
		return wire.Frame{}, err
	}
	if err := c.w.Flush(); err != nil {
		return wire.Frame{}, fmt.Errorf("proxy: flushing request: %w", err)
	}
	c.roundTrips++
	resp, err := wire.ReadFrame(c.r)
	if err != nil {
		return wire.Frame{}, fmt.Errorf("proxy: reading response: %w", err)
	}
	if err := wire.AsError(resp, want); err != nil {
		return wire.Frame{}, err
	}
	return resp, nil
}

// access runs one logical access round trip and validates the returned
// record.
func (c *Client) access(req wire.AccessReq) (block.Block, error) {
	resp, err := c.roundTrip(wire.EncodeAccessReq(req), wire.MsgAccessResp)
	if err != nil {
		return nil, err
	}
	if len(resp.Payload) != c.recordSize {
		return nil, fmt.Errorf("proxy: server returned a %d B record, want %d", len(resp.Payload), c.recordSize)
	}
	return block.Block(resp.Payload).Copy(), nil
}

// Read retrieves record i: one round trip.
func (c *Client) Read(i int) (block.Block, error) {
	if i < 0 || i >= c.records {
		return nil, fmt.Errorf("proxy: index %d out of range [0,%d)", i, c.records)
	}
	return c.access(wire.AccessReq{Index: uint64(i)})
}

// Write overwrites record i and returns the previous value: one round
// trip.
func (c *Client) Write(i int, b block.Block) (block.Block, error) {
	if i < 0 || i >= c.records {
		return nil, fmt.Errorf("proxy: index %d out of range [0,%d)", i, c.records)
	}
	if len(b) != c.recordSize {
		return nil, fmt.Errorf("%w: got %d want %d", block.ErrSize, len(b), c.recordSize)
	}
	return c.access(wire.AccessReq{Write: true, Index: uint64(i), Data: b})
}

// Records returns the logical record count.
func (c *Client) Records() int { return c.records }

// RecordSize returns the logical record size in bytes.
func (c *Client) RecordSize() int { return c.recordSize }

// RoundTrips returns the request/response exchanges performed (including
// the handshake).
func (c *Client) RoundTrips() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.roundTrips
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }
