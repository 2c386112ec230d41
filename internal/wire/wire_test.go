package wire

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/quick"
)

func TestFrameRoundTrip(t *testing.T) {
	f := func(typ byte, payload []byte) bool {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, Frame{Type: typ, Payload: payload}); err != nil {
			return false
		}
		got, err := ReadFrame(&buf)
		if err != nil {
			return false
		}
		return got.Type == typ && bytes.Equal(got.Payload, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFrameTooLarge(t *testing.T) {
	var buf bytes.Buffer
	err := WriteFrame(&buf, Frame{Type: MsgError, Payload: make([]byte, MaxFrame+1)})
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}

func TestReadFrameRejectsHugeHeader(t *testing.T) {
	raw := []byte{MsgError, 0xff, 0xff, 0xff, 0xff}
	_, err := ReadFrame(bytes.NewReader(raw))
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}

func TestReadFrameEOF(t *testing.T) {
	_, err := ReadFrame(bytes.NewReader(nil))
	if err != io.EOF {
		t.Fatalf("err = %v, want io.EOF", err)
	}
}

func TestReadFrameTruncatedPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, Frame{Type: MsgUploadResp, Payload: []byte("abcdef")}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()[:buf.Len()-2]
	if _, err := ReadFrame(bytes.NewReader(raw)); err == nil {
		t.Fatal("truncated payload accepted")
	}
}

func TestInfoRoundTrip(t *testing.T) {
	f := func(size uint64, bs uint32) bool {
		fr := EncodeInfo(Info{Size: size, BlockSize: bs})
		got, err := DecodeInfo(fr.Payload)
		return err == nil && got.Size == size && got.BlockSize == bs
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestInfoBadLength(t *testing.T) {
	// Any length but 24 rejects.
	for _, n := range []int{0, 11, 12, 13, 20, 23, 25} {
		if _, err := DecodeInfo(make([]byte, n)); err == nil {
			t.Fatalf("%d-byte info payload accepted", n)
		}
	}
}

func TestDownloadReqRoundTrip(t *testing.T) {
	f := func(addr uint64) bool {
		fr := EncodeDownloadReq(addr)
		got, err := DecodeDownloadReq(fr.Payload)
		return err == nil && got == addr && fr.Type == MsgDownloadReq
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUploadReqRoundTrip(t *testing.T) {
	f := func(addr uint64, data []byte) bool {
		fr := EncodeUploadReq(addr, data)
		gotAddr, gotData, err := DecodeUploadReq(fr.Payload)
		return err == nil && gotAddr == addr && bytes.Equal(gotData, data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUploadReqTooShort(t *testing.T) {
	if _, _, err := DecodeUploadReq(make([]byte, 7)); err == nil {
		t.Fatal("short upload request accepted")
	}
}

func TestAsError(t *testing.T) {
	if err := AsError(Frame{Type: MsgUploadResp}, MsgUploadResp); err != nil {
		t.Fatalf("matching type errored: %v", err)
	}
	err := AsError(EncodeError("boom"), MsgUploadResp)
	var re *RemoteError
	if !errors.As(err, &re) || re.Msg != "boom" {
		t.Fatalf("err = %v, want RemoteError(boom)", err)
	}
	if err := AsError(Frame{Type: MsgInfoResp}, MsgUploadResp); !errors.Is(err, ErrUnexpected) {
		t.Fatalf("err = %v, want ErrUnexpected", err)
	}
}
