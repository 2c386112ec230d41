//go:build linux && (amd64 || arm64)

package store

// Vectored page I/O — the real preadv(2)/pwritev(2) implementation. A
// coalesced run of N blocks becomes ONE syscall that scatters straight into
// the N caller buffers (or gathers straight out of them), with no staging
// copy in between: the Durable batch paths go from one large
// memcpy'd transfer per run to zero-copy.
//
// The build tag mirrors the sync_linux.go/sync_other.go split but is
// narrower: the raw syscall splits the file offset into pos_l/pos_h
// longs, and this file hard-codes the 64-bit-long convention (the whole
// offset rides in pos_l; pos_from_hilo shifts pos_h out of range). 32-bit
// Linux would need a genuine hi/lo split, so it takes the portable
// fallback instead — see the fallback matrix in DESIGN.md §HotPath.
//
// Error semantics match os.File.ReadAt/WriteAt: EINTR restarts, partial
// transfers resume where they stopped, and a zero-byte read inside the
// requested range reports io.ErrUnexpectedEOF.

import (
	"io"
	"os"
	"runtime"
	"syscall"
	"unsafe"
)

// vectoredIO reports which path this build uses (surfaced by daemons and
// recorded in benchmark environments, so numbers are attributable).
const vectoredIO = true

// iovMax is the kernel's UIO_MAXIOV: the most iovecs one vectored call
// accepts. Longer runs are issued in windows of this size.
const iovMax = 1024

// vectorizer holds the reusable iovec scratch for one store's run I/O. It
// is guarded by the owning store's I/O mutex, like the run buffers it
// replaces.
type vectorizer struct {
	iovs []syscall.Iovec
}

// readv fills bufs, in order, from the contiguous file range starting at
// off: one preadv per iovMax window, scattering directly into bufs.
func (v *vectorizer) readv(f *os.File, bufs [][]byte, off int64) error {
	return v.transfer(f, bufs, off, syscall.SYS_PREADV)
}

// writev writes bufs, in order, to the contiguous file range starting at
// off: one pwritev per iovMax window, gathering directly from bufs.
func (v *vectorizer) writev(f *os.File, bufs [][]byte, off int64) error {
	return v.transfer(f, bufs, off, syscall.SYS_PWRITEV)
}

// transfer is the shared scatter/gather loop. idx/inner track resume
// position across partial transfers and EINTR restarts.
func (v *vectorizer) transfer(f *os.File, bufs [][]byte, off int64, trap uintptr) error {
	fd := f.Fd()
	idx, inner := 0, 0
	for idx < len(bufs) {
		v.iovs = v.iovs[:0]
		for i := idx; i < len(bufs) && len(v.iovs) < iovMax; i++ {
			b := bufs[i]
			if i == idx {
				b = b[inner:]
			}
			if len(b) == 0 {
				continue
			}
			iov := syscall.Iovec{Base: &b[0]}
			iov.SetLen(len(b))
			v.iovs = append(v.iovs, iov)
		}
		if len(v.iovs) == 0 {
			break // nothing left but empty buffers
		}
		// On 64-bit the kernel takes the position entirely from pos_l;
		// pos_from_hilo shifts pos_h out of the loff_t (the build tag pins
		// us to 64-bit longs).
		n, _, errno := syscall.Syscall6(trap, fd,
			uintptr(unsafe.Pointer(&v.iovs[0])), uintptr(len(v.iovs)),
			uintptr(off), 0, 0)
		if errno == syscall.EINTR {
			continue
		}
		if errno != 0 {
			return errno
		}
		if n == 0 {
			if trap == syscall.SYS_PWRITEV {
				return io.ErrShortWrite
			}
			return io.ErrUnexpectedEOF
		}
		off += int64(n)
		adv := int(n)
		for adv > 0 {
			rem := len(bufs[idx]) - inner
			if adv < rem {
				inner += adv
				adv = 0
			} else {
				adv -= rem
				idx++
				inner = 0
			}
		}
	}
	runtime.KeepAlive(f)
	return nil
}
