//go:build !linux || !(amd64 || arm64)

package store

// Portable fallback for the vectored run I/O: semantically identical to
// vectored_linux.go but implemented as ONE ReadAt/WriteAt per run through a
// reusable staging buffer — which is exactly the pre-vectored behavior of
// the Durable batch paths, so platforms without preadv/pwritev
// keep their previous performance characteristics to the syscall.

import (
	"fmt"
	"os"
)

// vectoredIO reports which path this build uses.
const vectoredIO = false

// vectorizer holds the reusable staging buffer for one store's run I/O,
// guarded by the owning store's I/O mutex.
type vectorizer struct {
	scratch []byte
}

// stage returns the staging buffer grown to n bytes.
func (v *vectorizer) stage(n int) []byte {
	if cap(v.scratch) < n {
		v.scratch = make([]byte, n)
	}
	return v.scratch[:n]
}

// readv fills bufs, in order, from the contiguous file range starting at
// off: one ReadAt into the staging buffer, then a scatter copy.
func (v *vectorizer) readv(f *os.File, bufs [][]byte, off int64) error {
	need := 0
	for _, b := range bufs {
		need += len(b)
	}
	if need == 0 {
		return nil
	}
	buf := v.stage(need)
	if _, err := f.ReadAt(buf, off); err != nil {
		return err
	}
	pos := 0
	for _, b := range bufs {
		pos += copy(b, buf[pos:])
	}
	return nil
}

// writev writes bufs, in order, to the contiguous file range starting at
// off: a gather copy into the staging buffer, then one WriteAt.
func (v *vectorizer) writev(f *os.File, bufs [][]byte, off int64) error {
	need := 0
	for _, b := range bufs {
		need += len(b)
	}
	if need == 0 {
		return nil
	}
	buf := v.stage(need)
	pos := 0
	for _, b := range bufs {
		pos += copy(buf[pos:], b)
	}
	if n, err := f.WriteAt(buf, off); err != nil {
		return err
	} else if n != need {
		return fmt.Errorf("store: short run write: %d of %d bytes", n, need)
	}
	return nil
}
