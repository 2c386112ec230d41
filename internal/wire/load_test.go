package wire

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestBusyRoundTrip(t *testing.T) {
	f := EncodeBusy(1500*time.Microsecond, 42)
	if f.Type != MsgBusyResp {
		t.Fatalf("type %d, want MsgBusyResp", f.Type)
	}
	busy, err := DecodeBusy(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if busy.RetryAfter != 1500*time.Microsecond || busy.Queued != 42 {
		t.Fatalf("decoded %+v", busy)
	}
	if !strings.Contains(busy.Error(), "retry after") {
		t.Fatalf("error string %q", busy.Error())
	}
}

func TestBusySaturation(t *testing.T) {
	// A retry hint beyond uint32 microseconds and a negative input must
	// clamp, not wrap.
	f := EncodeBusy(48*time.Hour, -3)
	busy, err := DecodeBusy(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if busy.RetryAfter != time.Duration(^uint32(0))*time.Microsecond {
		t.Errorf("saturated retry = %v", busy.RetryAfter)
	}
	if busy.Queued != 0 {
		t.Errorf("negative queue decoded as %d", busy.Queued)
	}
	f = EncodeBusy(-5*time.Second, 1)
	if busy, _ = DecodeBusy(f.Payload); busy.RetryAfter != 0 {
		t.Errorf("negative retry decoded as %v", busy.RetryAfter)
	}
}

func TestBusyHostileSizes(t *testing.T) {
	for _, n := range []int{0, 1, 7, 9, 100} {
		if _, err := DecodeBusy(make([]byte, n)); err == nil {
			t.Errorf("accepted %d-byte busy payload", n)
		}
	}
}

func TestAsErrorBusy(t *testing.T) {
	err := AsError(EncodeBusy(2*time.Millisecond, 7), MsgReadBatchResp)
	retry, ok := IsBusy(err)
	if !ok || retry != 2*time.Millisecond {
		t.Fatalf("AsError busy: err=%v ok=%v retry=%v", err, ok, retry)
	}
	var busy *BusyError
	if !errors.As(err, &busy) || busy.Queued != 7 {
		t.Fatalf("errors.As failed on %v", err)
	}
	// A malformed busy frame must still surface as an error, never nil.
	if err := AsError(Frame{Type: MsgBusyResp, Payload: []byte{1}}, MsgReadBatchResp); err == nil {
		t.Fatal("malformed busy frame produced nil error")
	}
	if _, ok := IsBusy(errors.New("plain")); ok {
		t.Fatal("IsBusy matched a plain error")
	}
}

func TestStatsRoundTrip(t *testing.T) {
	entries := []StatsEntry{
		{Name: "", Kind: StatsKindBlock, Accepted: 100, Shed: 3, Inflight: 2, Queued: 1, Limit: 16, QueueCap: 64, SyncMicros: 850},
		{Name: "tenant-42", Kind: StatsKindProxy, Accepted: 1 << 40, Depth: 17},
		{Name: "cluster", Kind: StatsKindReplicated, Shed: ^uint64(0), Depth: 12345},
	}
	f, err := EncodeStatsResp(entries)
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != MsgStatsResp {
		t.Fatalf("type %d", f.Type)
	}
	got, err := DecodeStatsResp(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(entries) {
		t.Fatalf("decoded %d entries, want %d", len(got), len(entries))
	}
	for i := range entries {
		if got[i] != entries[i] {
			t.Errorf("entry %d: %+v != %+v", i, got[i], entries[i])
		}
	}
}

func TestStatsEmpty(t *testing.T) {
	f, err := EncodeStatsResp(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeStatsResp(f.Payload)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty stats: %v %v", got, err)
	}
}

func TestStatsHostileInputs(t *testing.T) {
	valid, err := EncodeStatsResp([]StatsEntry{{Name: "x", Kind: StatsKindProxy, Accepted: 9}})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":             {},
		"short header":      {0},
		"forged count":      {0xff, 0xff},
		"truncated entry":   valid.Payload[:len(valid.Payload)-1],
		"trailing bytes":    append(append([]byte(nil), valid.Payload...), 0),
		"forged nameLen":    {0, 1, 0xff, 0xff, 'x'},
		"name past the cap": {0, 1, 1, 0},
		"unknown kind":      nil, // built below
		"entry overruns":    {0, 2, 0, 0},
	}
	// Unknown kind: flip the kind byte of a valid single-entry payload.
	bad := append([]byte(nil), valid.Payload...)
	bad[2+2+1] = 99 // count(2) + nameLen(2) + name(1) → kind byte
	cases["unknown kind"] = bad
	// Name past the cap: nameLen 300 with enough bytes behind it.
	over := make([]byte, 2+2+300+statsEntryFixed)
	over[1] = 1
	over[2], over[3] = 0x01, 0x2c // nameLen 300
	cases["name past the cap"] = over
	for name, p := range cases {
		if _, err := DecodeStatsResp(p); err == nil {
			t.Errorf("%s: accepted %x", name, p)
		}
	}
	// Encoder-side caps.
	if _, err := EncodeStatsResp(make([]StatsEntry, MaxStatsEntries+1)); err == nil {
		t.Error("encoder accepted too many entries")
	}
	if _, err := EncodeStatsResp([]StatsEntry{{Name: strings.Repeat("n", MaxNamespaceName+1)}}); err == nil {
		t.Error("encoder accepted an oversized name")
	}
	if _, err := EncodeStatsResp([]StatsEntry{{Kind: 99}}); err == nil {
		t.Error("encoder accepted an unknown kind")
	}
}

// TestStatsExtRoundTrip checks the quantile summary fields (Requests
// through QueueP99Micros) survive a round trip alongside the admission
// counters, and that an entry without observations keeps them zero.
func TestStatsExtRoundTrip(t *testing.T) {
	want := []StatsEntry{
		{
			Name: "alpha", Kind: StatsKindProxy,
			Accepted: 1000, Shed: 12, Inflight: 3, Queued: 2, Limit: 16, QueueCap: 64,
			Depth: 40, SyncMicros: 900,
			Requests: 988, P50Micros: 110, P90Micros: 340, P99Micros: 2100,
			P999Micros: 8800, MaxMicros: 15000, QueueP99Micros: 77,
		},
		{Name: "beta", Kind: StatsKindBlock, Accepted: 5},
	}
	fr, err := EncodeStatsResp(want)
	if err != nil {
		t.Fatal(err)
	}
	if fr.Type != MsgStatsResp {
		t.Fatalf("frame type %d", fr.Type)
	}
	if n := len(fr.Payload); n != 2+2*statsEntryFixed+len("alpha")+len("beta") {
		t.Fatalf("payload %d bytes, want a fixed-size entry per namespace", n)
	}
	got, err := DecodeStatsResp(fr.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("round trip mismatch:\nwant %+v\ngot  %+v", want, got)
	}
}

// TestStatsExtHostileInputs feeds the decoder entries whose quantile tail
// is short or long, and payloads in the retired marker-prefixed layout
// (0xFFFF ‖ version ‖ count ‖ entries with an extension length): all must
// be rejected, since the quantile fields are part of every fixed entry.
func TestStatsExtHostileInputs(t *testing.T) {
	one, err := EncodeStatsResp([]StatsEntry{{Name: "x", Kind: StatsKindBlock, Requests: 7, MaxMicros: 9}})
	if err != nil {
		t.Fatal(err)
	}
	p := one.Payload
	for name, b := range map[string][]byte{
		"missing quantile":    p[:len(p)-8],
		"missing all tail":    p[:len(p)-7*8],
		"grown entry":         append(append([]byte(nil), p...), make([]byte, 8)...),
		"marker only":         {0xff, 0xff},
		"marker v1 version":   {0xff, 0xff, 1, 0, 0},
		"marker missing body": {0xff, 0xff, 2, 0, 1},
		"marker huge count":   {0xff, 0xff, 2, 0xff, 0xff},
		"marker trailing":     {0xff, 0xff, 2, 0, 0, 0},
		"truncated entries":   p[:10],
	} {
		if _, err := DecodeStatsResp(b); err == nil {
			t.Errorf("%s: accepted %x", name, b)
		}
	}
}
