package wire

import "testing"

// TestInfoEpochRoundTrip: the epoch rides the one 24-byte layout and
// round-trips; block namespaces send partitions 0.
func TestInfoEpochRoundTrip(t *testing.T) {
	want := Info{Size: 4096, BlockSize: 112, Epoch: 7}
	f := EncodeInfo(want)
	if len(f.Payload) != 24 {
		t.Fatalf("payload %d bytes, want 24", len(f.Payload))
	}
	got, err := DecodeInfo(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("round trip: got %+v want %+v", got, want)
	}
}

// TestInfoPartitionsRoundTrip: a partition count round-trips in the same
// layout, and the open handshake carries it identically.
func TestInfoPartitionsRoundTrip(t *testing.T) {
	want := Info{Size: 4096, BlockSize: 64, Epoch: 7, Partitions: 4}
	f := EncodeInfo(want)
	if len(f.Payload) != 24 {
		t.Fatalf("payload %d bytes, want 24", len(f.Payload))
	}
	got, err := DecodeInfo(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("round trip: got %+v want %+v", got, want)
	}
	of := EncodeOpenResp(want)
	if of.Type != MsgOpenResp || len(of.Payload) != 24 {
		t.Fatalf("open resp type %d, %d bytes", of.Type, len(of.Payload))
	}
	if got, err := DecodeOpenResp(of.Payload); err != nil || got != want {
		t.Fatalf("open resp decode: %+v, %v", got, err)
	}
}

// TestOpenRespEpoch: the open handshake carries the epoch identically.
func TestOpenRespEpoch(t *testing.T) {
	f := EncodeOpenResp(Info{Size: 16, BlockSize: 8, Epoch: 3})
	if f.Type != MsgOpenResp {
		t.Fatalf("type %d", f.Type)
	}
	got, err := DecodeOpenResp(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != 3 {
		t.Fatalf("open-resp epoch %d", got.Epoch)
	}
}
