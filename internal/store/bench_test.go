package store

import (
	"net"
	"testing"

	"dpstore/internal/block"
)

func BenchmarkMemDownload(b *testing.B) {
	b.ReportAllocs()
	m, err := NewMem(1024, 64)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Download(i % 1024); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMemUpload(b *testing.B) {
	b.ReportAllocs()
	m, err := NewMem(1024, 64)
	if err != nil {
		b.Fatal(err)
	}
	blk := block.Pattern(1, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Upload(i%1024, blk); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCountingOverhead(b *testing.B) {
	b.ReportAllocs()
	m, err := NewMem(1024, 64)
	if err != nil {
		b.Fatal(err)
	}
	c := NewCounting(m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Download(i % 1024); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRemoteRoundTrip(b *testing.B) {
	b.ReportAllocs()
	backing, err := NewMem(1024, 64)
	if err != nil {
		b.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	go Serve(ln, backing) //nolint:errcheck
	r, err := Dial(ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Download(i % 1024); err != nil {
			b.Fatal(err)
		}
	}
}
