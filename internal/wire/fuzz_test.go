package wire

// Native fuzz targets for the hostile-input surface: every decoder that
// consumes bytes straight off a socket. The invariants under fuzz are the
// ones §6 of docs/WIRE.md declares normative: never panic, never allocate
// unboundedly from forged counts, and round-trip every accepted input
// bit-exactly (decode ∘ encode = id on the valid set).
//
// Seed corpora live in testdata/fuzz/<Target>/ (checked in), plus the
// f.Add seeds below; CI runs each target for a short -fuzztime smoke.

import (
	"bytes"
	"testing"
)

// FuzzReadFrame throws raw bytes at the frame reader. Accepted frames
// must re-encode to exactly the bytes consumed.
func FuzzReadFrame(f *testing.F) {
	f.Add([]byte{byte(MsgInfoReq), 0, 0, 0, 0})
	f.Add([]byte{byte(MsgDownloadReq), 0, 0, 0, 8, 0, 0, 0, 0, 0, 0, 0, 7})
	f.Add([]byte{byte(MsgError), 0, 0, 0, 3, 'b', 'a', 'd'})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff}) // oversized declared length
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, fr); err != nil {
			t.Fatalf("accepted frame failed to re-encode: %v", err)
		}
		if want := data[:5+len(fr.Payload)]; !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("round trip mismatch: read %x, wrote %x", want, buf.Bytes())
		}
	})
}

// FuzzOpenReq fuzzes the namespace-open payload decoder (forged name
// lengths must neither truncate nor alias the shape fields).
func FuzzOpenReq(f *testing.F) {
	for _, req := range []OpenReq{
		{Name: "", Slots: 0, BlockSize: 0},
		{Name: "tenant-42", Slots: 1 << 16, BlockSize: 112},
	} {
		fr, err := EncodeOpenReq(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(fr.Payload)
	}
	f.Add([]byte{0xff, 0xff, 'x', 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}) // forged nameLen
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeOpenReq(data)
		if err != nil {
			return
		}
		if len(req.Name) > MaxNamespaceName {
			t.Fatalf("decoder accepted a %d-byte name past the cap", len(req.Name))
		}
		fr, err := EncodeOpenReq(req)
		if err != nil {
			t.Fatalf("accepted open request failed to re-encode: %v", err)
		}
		if !bytes.Equal(fr.Payload, data) {
			t.Fatalf("round trip mismatch: %x → %+v → %x", data, req, fr.Payload)
		}
	})
}

// FuzzBatchReq fuzzes all three batch payload decoders with one input —
// they share the forged-count threat model, and none may panic or
// over-allocate on any byte string.
func FuzzBatchReq(f *testing.F) {
	f.Add(EncodeReadBatchReq([]int{0, 5, 9}).Payload)
	f.Add(EncodeWriteBatchReq([]int{1, 2}, [][]byte{{0xaa}, {0xbb}}).Payload)
	f.Add(EncodeReadBatchResp([][]byte{{1, 2}, {3, 4}}).Payload)
	f.Add([]byte{0xff, 0xff, 0xff, 0xf8}) // count ≈ 2³², empty body
	f.Fuzz(func(t *testing.T, data []byte) {
		if addrs, err := DecodeReadBatchReq(data); err == nil {
			fr := EncodeReadBatchReq(addrs)
			if !bytes.Equal(fr.Payload, data) {
				t.Fatalf("read batch req round trip mismatch on %x", data)
			}
		}
		if addrs, blocks, err := DecodeWriteBatchReq(data); err == nil {
			if len(addrs) != len(blocks) {
				t.Fatalf("write batch decode returned ragged slices on %x", data)
			}
			fr := EncodeWriteBatchReq(addrs, blocks)
			if !bytes.Equal(fr.Payload, data) {
				t.Fatalf("write batch req round trip mismatch on %x", data)
			}
		}
		if blocks, err := DecodeReadBatchResp(data); err == nil {
			fr := EncodeReadBatchResp(blocks)
			if !bytes.Equal(fr.Payload, data) {
				t.Fatalf("read batch resp round trip mismatch on %x", data)
			}
		}
	})
}

// FuzzReplStatus fuzzes the replica-status decoder: forged counts and
// name lengths must neither over-allocate nor alias entry fields into
// names, and every accepted payload must round-trip bit-exactly.
func FuzzReplStatus(f *testing.F) {
	for _, reps := range [][]ReplicaStatus{
		{},
		{{Name: "r0", State: ReplicaStateUp, Epoch: 3, Dirty: 0}},
		{{Name: "a", State: ReplicaStateDown, Epoch: 0, Dirty: 42}, {Name: "b", State: ReplicaStateSyncing, Epoch: 9, Dirty: 7}},
	} {
		fr, err := EncodeReplStatusResp(reps)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(fr.Payload)
	}
	f.Add([]byte{0xff, 0xff})            // forged huge count, empty body
	f.Add([]byte{0, 1, 0xff, 0xff, 'x'}) // forged name length
	f.Add([]byte{0, 0, 0})               // trailing byte after zero entries
	f.Fuzz(func(t *testing.T, data []byte) {
		reps, err := DecodeReplStatusResp(data)
		if err != nil {
			return
		}
		if len(reps) > MaxReplicas {
			t.Fatalf("decoder accepted %d replicas past the cap", len(reps))
		}
		for _, r := range reps {
			if len(r.Name) > MaxNamespaceName {
				t.Fatalf("decoder accepted a %d-byte replica name past the cap", len(r.Name))
			}
		}
		fr, err := EncodeReplStatusResp(reps)
		if err != nil {
			t.Fatalf("accepted status failed to re-encode: %v", err)
		}
		if !bytes.Equal(fr.Payload, data) {
			t.Fatalf("status round trip mismatch: %x → %+v → %x", data, reps, fr.Payload)
		}
	})
}

// FuzzResync fuzzes both resync payload decoders (fixed-size frames with
// a strict ok-byte discipline).
func FuzzResync(f *testing.F) {
	f.Add(EncodeResyncReq(0).Payload)
	f.Add(EncodeResyncReq(1 << 40).Payload)
	f.Add(EncodeResyncResp(true, 7).Payload)
	f.Add(EncodeResyncResp(false, 0).Payload)
	f.Add([]byte{2, 0, 0, 0, 0, 0, 0, 0, 9}) // invalid ok byte
	f.Fuzz(func(t *testing.T, data []byte) {
		if epoch, err := DecodeResyncReq(data); err == nil {
			fr := EncodeResyncReq(epoch)
			if !bytes.Equal(fr.Payload, data) {
				t.Fatalf("resync req round trip mismatch on %x", data)
			}
		}
		if ok, epoch, err := DecodeResyncResp(data); err == nil {
			fr := EncodeResyncResp(ok, epoch)
			if !bytes.Equal(fr.Payload, data) {
				t.Fatalf("resync resp round trip mismatch on %x", data)
			}
		}
	})
}

// FuzzBusyFrame fuzzes the backpressure payload decoder: strictly eight
// bytes, every accepted payload round-trips bit-exactly through the
// re-encoded hint.
func FuzzBusyFrame(f *testing.F) {
	f.Add(EncodeBusy(0, 0).Payload)
	f.Add(EncodeBusy(1500*1000, 42).Payload) // 1.5ms in ns
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{0, 0, 0, 1}) // short
	f.Add(make([]byte, 9))    // long
	f.Fuzz(func(t *testing.T, data []byte) {
		busy, err := DecodeBusy(data)
		if err != nil {
			return
		}
		fr := EncodeBusy(busy.RetryAfter, busy.Queued)
		if !bytes.Equal(fr.Payload, data) {
			t.Fatalf("busy round trip mismatch: %x → %+v → %x", data, busy, fr.Payload)
		}
	})
}

// FuzzStatsResp fuzzes the stats-snapshot decoder: forged counts and name
// lengths must neither over-allocate nor alias numeric fields into names,
// and every accepted payload must round-trip bit-exactly.
func FuzzStatsResp(f *testing.F) {
	for _, entries := range [][]StatsEntry{
		{},
		{{Name: "ns", Kind: StatsKindBlock, Accepted: 100, Shed: 3, Inflight: 2, Queued: 1, Limit: 16, QueueCap: 64, SyncMicros: 850}},
		{{Name: "a", Kind: StatsKindProxy, Depth: 17}, {Name: "b", Kind: StatsKindReplicated, Shed: 9}},
	} {
		f.Add(mustStatsPayload(f, entries...))
	}
	f.Add([]byte{0xff, 0xff})            // forged huge count, empty body
	f.Add([]byte{0, 1, 0xff, 0xff, 'x'}) // forged name length
	f.Add([]byte{0, 0, 0})               // trailing byte after zero entries
	f.Fuzz(fuzzStatsRoundTrip)
}

// FuzzStatsRespExt fuzzes the same decoder from payloads whose entries
// carry the quantile summary, entries whose quantile tail is short or
// long, and payloads in the retired marker-prefixed layout: none may be
// accepted unless it re-encodes bit-exactly.
func FuzzStatsRespExt(f *testing.F) {
	for _, entries := range [][]StatsEntry{
		{},
		{{Name: "ns", Kind: StatsKindBlock, Accepted: 100, Shed: 3, Inflight: 2, Queued: 1, Limit: 16, QueueCap: 64, SyncMicros: 850,
			Requests: 97, P50Micros: 120, P90Micros: 400, P99Micros: 1500, P999Micros: 9000, MaxMicros: 22000, QueueP99Micros: 310}},
		{{Name: "a", Kind: StatsKindProxy, Depth: 17, Requests: 1, MaxMicros: 5}, {Name: "b", Kind: StatsKindReplicated, Shed: 9}},
	} {
		f.Add(mustStatsPayload(f, entries...))
	}
	one := mustStatsPayload(f, StatsEntry{Name: "fwd", Kind: StatsKindBlock, Requests: 4})
	f.Add(append(one[:len(one):len(one)], make([]byte, 8)...)) // entry grown by 8 bytes
	f.Add(one[:len(one)-8])                                    // entry missing its last quantile
	f.Add([]byte{0xff, 0xff, 1, 0, 0})                         // retired marker, v1 version byte
	f.Add([]byte{0xff, 0xff, 2, 0, 1})                         // retired marker, declared entry, empty body
	f.Add([]byte{0xff, 0xff, 2, 0xff, 0xff})                   // retired marker, forged huge count
	f.Add([]byte{0xff, 0xff, 2, 0, 0, 0})                      // retired marker, trailing byte
	f.Fuzz(fuzzStatsRoundTrip)
}

// fuzzStatsRoundTrip is the shared stats fuzz body: an accepted payload
// must respect the decoder caps and re-encode to the same bytes.
func fuzzStatsRoundTrip(t *testing.T, data []byte) {
	entries, err := DecodeStatsResp(data)
	if err != nil {
		return
	}
	checkStatsInvariants(t, entries)
	fr, err := EncodeStatsResp(entries)
	if err != nil {
		t.Fatalf("accepted stats failed to re-encode: %v", err)
	}
	if !bytes.Equal(fr.Payload, data) {
		t.Fatalf("stats round trip mismatch: %x → %+v → %x", data, entries, fr.Payload)
	}
}

func mustStatsPayload(tb testing.TB, entries ...StatsEntry) []byte {
	tb.Helper()
	fr, err := EncodeStatsResp(entries)
	if err != nil {
		tb.Fatal(err)
	}
	return fr.Payload
}

func checkStatsInvariants(t *testing.T, entries []StatsEntry) {
	t.Helper()
	if len(entries) > MaxStatsEntries {
		t.Fatalf("decoder accepted %d entries past the cap", len(entries))
	}
	for _, e := range entries {
		if len(e.Name) > MaxNamespaceName {
			t.Fatalf("decoder accepted a %d-byte name past the cap", len(e.Name))
		}
		if e.Kind > StatsKindReplicated {
			t.Fatalf("decoder accepted unknown kind %d", e.Kind)
		}
	}
}

// FuzzAccessReq fuzzes the proxy access decoder: op byte, index, record
// payload discipline (reads carry none, writes at least one byte).
func FuzzAccessReq(f *testing.F) {
	f.Add(EncodeAccessReq(AccessReq{Index: 7}).Payload)
	f.Add(EncodeAccessReq(AccessReq{Write: true, Index: 3, Data: []byte("record!")}).Payload)
	f.Add([]byte{2, 0, 0, 0, 0, 0, 0, 0, 0})      // unknown op
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 'x'}) // read smuggling payload
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeAccessReq(data)
		if err != nil {
			return
		}
		if req.Write == (len(req.Data) == 0) {
			t.Fatalf("decoder accepted inconsistent op/payload: %+v", req)
		}
		fr := EncodeAccessReq(req)
		if !bytes.Equal(fr.Payload, data) {
			t.Fatalf("access req round trip mismatch: %x → %+v → %x", data, req, fr.Payload)
		}
	})
}

// FuzzInfoResp fuzzes the handshake shape decoder. The payload has one
// 24-byte layout, so every accepted input round-trips bit-exactly.
func FuzzInfoResp(f *testing.F) {
	f.Add(EncodeInfo(Info{Size: 1 << 16, BlockSize: 112}).Payload)
	f.Add(EncodeInfo(Info{Size: 4096, BlockSize: 64, Epoch: 7}).Payload)
	f.Add(EncodeInfo(Info{Size: 4096, BlockSize: 64, Epoch: 7, Partitions: 4}).Payload)
	f.Add(make([]byte, 12)) // any length but 24 must reject
	f.Add(make([]byte, 23))
	f.Fuzz(func(t *testing.T, data []byte) {
		info, err := DecodeInfo(data)
		if err != nil {
			return
		}
		if fr := EncodeInfo(info); !bytes.Equal(fr.Payload, data) {
			t.Fatalf("info round trip mismatch: %x → %+v → %x", data, info, fr.Payload)
		}
	})
}
