package crypto

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"io"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestEncryptDecryptRoundTrip(t *testing.T) {
	c := NewCipher(KeyFromSeed(1))
	f := func(pt []byte) bool {
		got, err := c.Decrypt(c.Encrypt(pt))
		if err != nil {
			return false
		}
		return bytes.Equal(got, pt)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCiphertextSize(t *testing.T) {
	c := NewCipher(KeyFromSeed(2))
	for _, n := range []int{0, 1, 16, 64, 1000} {
		ct := c.Encrypt(make([]byte, n))
		if len(ct) != CiphertextSize(n) {
			t.Fatalf("ciphertext of %d-byte plaintext is %d bytes, want %d", n, len(ct), CiphertextSize(n))
		}
	}
}

func TestFreshRandomnessPerEncryption(t *testing.T) {
	// Re-encryptions of the same plaintext must differ — the property
	// DP-RAM's overwrite phase depends on.
	c := NewCipher(KeyFromSeed(3))
	pt := []byte("same plaintext every time......")
	if bytes.Equal(c.Encrypt(pt), c.Encrypt(pt)) {
		t.Fatal("two encryptions of the same plaintext are identical")
	}
}

func TestTamperDetection(t *testing.T) {
	c := NewCipher(KeyFromSeed(4))
	ct := c.Encrypt([]byte("hello world, this is a record"))
	for _, pos := range []int{0, ivSize, len(ct) - 1} {
		bad := append([]byte(nil), ct...)
		bad[pos] ^= 1
		if _, err := c.Decrypt(bad); err == nil {
			t.Fatalf("tampering at byte %d went undetected", pos)
		}
	}
}

func TestDecryptTooShort(t *testing.T) {
	c := NewCipher(KeyFromSeed(5))
	if _, err := c.Decrypt(make([]byte, Overhead-1)); err == nil {
		t.Fatal("short ciphertext accepted")
	}
}

func TestWrongKeyFails(t *testing.T) {
	a := NewCipher(KeyFromSeed(6))
	b := NewCipher(KeyFromSeed(7))
	if _, err := b.Decrypt(a.Encrypt([]byte("secret record"))); err == nil {
		t.Fatal("decryption under wrong key succeeded")
	}
}

func TestEncryptIntoAppendSemantics(t *testing.T) {
	c := NewCipher(KeyFromSeed(20))
	prefix := []byte("existing-prefix")
	pt := []byte("a record body of some length")
	dst := c.EncryptInto(append([]byte(nil), prefix...), pt)
	if !bytes.HasPrefix(dst, prefix) {
		t.Fatal("EncryptInto clobbered the existing dst prefix")
	}
	if len(dst) != len(prefix)+CiphertextSize(len(pt)) {
		t.Fatalf("EncryptInto appended %d bytes, want %d", len(dst)-len(prefix), CiphertextSize(len(pt)))
	}
	got, err := c.Decrypt(dst[len(prefix):])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pt) {
		t.Fatal("appended ciphertext does not round-trip")
	}

	// Steady-state reuse: the second call into recycled capacity must not
	// reallocate and must still round-trip.
	buf := dst[:0]
	buf = c.EncryptInto(buf, pt)
	if got, err := c.Decrypt(buf); err != nil || !bytes.Equal(got, pt) {
		t.Fatalf("reused-capacity EncryptInto broke the round trip: %v", err)
	}
}

func TestDecryptIntoAppendSemantics(t *testing.T) {
	c := NewCipher(KeyFromSeed(21))
	pt := []byte("payload payload payload")
	ct := c.Encrypt(pt)
	prefix := []byte("kept")
	dst, err := c.DecryptInto(append([]byte(nil), prefix...), ct)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(dst, prefix) || !bytes.Equal(dst[len(prefix):], pt) {
		t.Fatal("DecryptInto append semantics broken")
	}

	// Failure must leave dst at its original length.
	bad := append([]byte(nil), ct...)
	bad[len(bad)-1] ^= 1
	orig := append([]byte(nil), prefix...)
	dst, err = c.DecryptInto(orig, bad)
	if !errors.Is(err, ErrAuth) {
		t.Fatalf("tampered ciphertext: got err %v, want ErrAuth", err)
	}
	if len(dst) != len(prefix) {
		t.Fatalf("failed DecryptInto returned %d bytes, want original %d", len(dst), len(prefix))
	}
}

func TestEncryptZeroLengthPlaintext(t *testing.T) {
	c := NewCipher(KeyFromSeed(22))
	ct := c.Encrypt(nil)
	if len(ct) != Overhead {
		t.Fatalf("empty plaintext ciphertext is %d bytes, want %d", len(ct), Overhead)
	}
	got, err := c.Decrypt(ct)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("empty plaintext round-tripped to %d bytes", len(got))
	}
}

// ivCounting wraps a deterministic IV stream and counts bytes drawn.
type ivCounting struct {
	s uint64
	n int
}

func (r *ivCounting) Read(p []byte) (int, error) {
	for i := range p {
		r.s = r.s*6364136223846793005 + 1442695040888963407
		p[i] = byte(r.s >> 56)
	}
	r.n += len(p)
	return len(p), nil
}

func TestSetIVReaderHonored(t *testing.T) {
	// Two ciphers under the same key and the same seeded IV stream must
	// produce bit-identical ciphertexts — the property the seeded transcript
	// freezes build on — and each sealed record must draw exactly ivSize
	// bytes, in record order, batch or not.
	mk := func() (*Cipher, *ivCounting) {
		c := NewCipher(KeyFromSeed(23))
		r := &ivCounting{s: 42}
		c.SetIVReader(r)
		return c, r
	}
	c1, r1 := mk()
	c2, _ := mk()
	pt := []byte("0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef") // 4 records of 16
	var seq []byte
	for k := 0; k < 4; k++ {
		seq = c1.EncryptInto(seq, pt[k*16:(k+1)*16])
	}
	if r1.n != 4*ivSize {
		t.Fatalf("4 sealed records drew %d IV bytes, want %d", r1.n, 4*ivSize)
	}
	batch := c2.SealBatch(nil, pt, 4, 16)
	if !bytes.Equal(seq, batch) {
		t.Fatal("SealBatch under an IV override is not byte-identical to sequential EncryptInto")
	}
}

func TestCounterIVUniqueness(t *testing.T) {
	// Structural uniqueness over 2^20 encrypts: the IV is prefix ‖ counter
	// and the counter must advance by exactly the keystream blocks each
	// message consumes, so no two messages ever share a keystream block.
	c := NewCipher(KeyFromSeed(24))
	pt := make([]byte, 16) // one keystream block per message
	var prefix uint64
	next := uint64(0)
	buf := make([]byte, 0, CiphertextSize(len(pt)))
	for i := 0; i < 1<<20; i++ {
		buf = c.EncryptInto(buf[:0], pt)
		p := binary.BigEndian.Uint64(buf[:8])
		ctr := binary.BigEndian.Uint64(buf[8:16])
		if i == 0 {
			prefix = p
		} else if p != prefix {
			t.Fatalf("IV prefix changed mid-stream at encrypt %d", i)
		}
		if ctr != next {
			t.Fatalf("encrypt %d: counter %d, want %d (stride must equal blocks consumed)", i, ctr, next)
		}
		next++
	}

	// Varied sizes: the counter must stride by ⌈n/16⌉ (min 1) so longer
	// messages claim their whole keystream range.
	for _, n := range []int{0, 1, 15, 16, 17, 64, 200, 1000} {
		buf = c.EncryptInto(buf[:0], make([]byte, n))
		ctr := binary.BigEndian.Uint64(buf[8:16])
		if ctr != next {
			t.Fatalf("size %d: counter %d, want %d", n, ctr, next)
		}
		nb := uint64((n + 15) / 16)
		if nb == 0 {
			nb = 1
		}
		next += nb
	}

	// Concurrent mix: SealBatch claims its whole batch's range with one
	// add, EncryptInto one message's; interleaved from several goroutines,
	// no two ranges may overlap.
	type span struct{ lo, hi uint64 } // counter values [lo, hi)
	const workers, rounds = 4, 300
	spans := make([][]span, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var buf []byte
			for r := 0; r < rounds; r++ {
				if (w+r)%2 == 0 {
					const count, rec = 7, 40 // 3 counter values a record
					ctSize := CiphertextSize(rec)
					buf = c.SealBatch(buf[:0], make([]byte, count*rec), count, rec)
					for k := 0; k < count; k++ {
						lo := binary.BigEndian.Uint64(buf[k*ctSize+8:])
						spans[w] = append(spans[w], span{lo, lo + 3})
					}
				} else {
					buf = c.EncryptInto(buf[:0], make([]byte, 20)) // 2 counter values
					lo := binary.BigEndian.Uint64(buf[8:16])
					spans[w] = append(spans[w], span{lo, lo + 2})
				}
			}
		}(w)
	}
	wg.Wait()
	all := slices.Concat(spans...)
	slices.SortFunc(all, func(a, b span) int { return cmp.Compare(a.lo, b.lo) })
	for i := 1; i < len(all); i++ {
		if all[i].lo < all[i-1].hi {
			t.Fatalf("counter ranges overlap: [%d,%d) and [%d,%d)", all[i-1].lo, all[i-1].hi, all[i].lo, all[i].hi)
		}
	}
}

func TestSealBatchCounterLayout(t *testing.T) {
	// Under counter IVs a batch claims one contiguous range: record k's IV
	// is prefix ‖ start+k·nb, nb = ⌈recSize/16⌉, and each record opens on
	// its own through DecryptInto — the batch keystream is the one the
	// per-record IV derives.
	c := NewCipher(KeyFromSeed(30))
	for _, rec := range []int{0, 1, 16, 76, 200} {
		const count = 9
		nb := uint64(max(1, (rec+15)/16))
		src := make([]byte, count*rec)
		for i := range src {
			src[i] = byte(i*7 + rec)
		}
		sealed := c.SealBatch(nil, src, count, rec)
		ctSize := CiphertextSize(rec)
		prefix := binary.BigEndian.Uint64(sealed[:8])
		start := binary.BigEndian.Uint64(sealed[8:16])
		for k := 0; k < count; k++ {
			ct := sealed[k*ctSize : (k+1)*ctSize]
			if p, ctr := binary.BigEndian.Uint64(ct[:8]), binary.BigEndian.Uint64(ct[8:16]); p != prefix || ctr != start+uint64(k)*nb {
				t.Fatalf("rec %d, record %d: IV %x‖%d, want %x‖%d", rec, k, p, ctr, prefix, start+uint64(k)*nb)
			}
			got, err := c.DecryptInto(nil, ct)
			if err != nil {
				t.Fatalf("rec %d, record %d: %v", rec, k, err)
			}
			if !bytes.Equal(got, src[k*rec:(k+1)*rec]) {
				t.Fatalf("rec %d, record %d: DecryptInto does not recover the sealed plaintext", rec, k)
			}
		}
		// The next message starts right after the batch's range.
		if ctr := binary.BigEndian.Uint64(c.Encrypt(nil)[8:16]); ctr != start+count*nb {
			t.Fatalf("rec %d: counter after the batch %d, want %d", rec, ctr, start+count*nb)
		}
	}
}

func TestIVPrefixRedrawnAcrossInstances(t *testing.T) {
	// Resume and key rotation rebuild the Cipher via NewCipher; the prefix
	// must be redrawn so restarted counter streams don't collide.
	ivOf := func(c *Cipher) uint64 {
		return binary.BigEndian.Uint64(c.Encrypt(nil)[:8])
	}
	a := NewCipher(KeyFromSeed(25))
	b := NewCipher(KeyFromSeed(25))
	if ivOf(a) == ivOf(b) {
		t.Fatal("two Cipher instances under one key share an IV prefix")
	}
}

func TestSealBatchOpenBatchRoundTrip(t *testing.T) {
	c := NewCipher(KeyFromSeed(26))
	const count, rec = 52, 76
	src := make([]byte, count*rec)
	for i := range src {
		src[i] = byte(i * 31)
	}
	sealed := c.SealBatch(nil, src, count, rec)
	ctSize := CiphertextSize(rec)
	if len(sealed) != count*ctSize {
		t.Fatalf("SealBatch output %d bytes, want %d", len(sealed), count*ctSize)
	}
	cts := make([][]byte, count)
	for k := range cts {
		cts[k] = sealed[k*ctSize : (k+1)*ctSize]
		// Each record must also open individually — batch sealing is just
		// N independent encryptions.
		got, err := c.Decrypt(cts[k])
		if err != nil {
			t.Fatalf("record %d: %v", k, err)
		}
		if !bytes.Equal(got, src[k*rec:(k+1)*rec]) {
			t.Fatalf("record %d corrupted", k)
		}
	}
	opened, err := c.OpenBatch(nil, cts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(opened, src) {
		t.Fatal("OpenBatch output differs from the sealed plaintexts")
	}
}

func TestOpenBatchErrors(t *testing.T) {
	c := NewCipher(KeyFromSeed(27))
	const count, rec = 8, 32
	src := make([]byte, count*rec)
	sealed := c.SealBatch(nil, src, count, rec)
	ctSize := CiphertextSize(rec)
	cts := func() [][]byte {
		out := make([][]byte, count)
		for k := range out {
			out[k] = append([]byte(nil), sealed[k*ctSize:(k+1)*ctSize]...)
		}
		return out
	}

	if _, err := c.OpenBatch(nil, nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}

	ragged := cts()
	ragged[3] = ragged[3][:ctSize-1]
	if _, err := c.OpenBatch(nil, ragged); err == nil || !strings.Contains(err.Error(), "record 3") {
		t.Fatalf("ragged batch: got %v, want record-3 error", err)
	}

	short := [][]byte{make([]byte, Overhead-1), make([]byte, Overhead-1)}
	if _, err := c.OpenBatch(nil, short); err == nil {
		t.Fatal("short batch accepted")
	}

	tampered := cts()
	tampered[5][ivSize] ^= 1
	dst := []byte("keep")
	out, err := c.OpenBatch(dst, tampered)
	if !errors.Is(err, ErrAuth) || !strings.Contains(err.Error(), "record 5") {
		t.Fatalf("tampered batch: got %v, want ErrAuth at record 5", err)
	}
	if len(out) != len(dst) {
		t.Fatalf("failed OpenBatch returned %d bytes, want original %d", len(out), len(dst))
	}
}

func TestBatchKernelsLargeBatch(t *testing.T) {
	// A batch several times a Path ORAM path: round trip, and the
	// lowest-index error contract with more than one bad record.
	c := NewCipher(KeyFromSeed(28))
	const count, rec = 256, 48
	src := make([]byte, count*rec)
	for i := range src {
		src[i] = byte(i)
	}
	sealed := c.SealBatch(nil, src, count, rec)
	ctSize := CiphertextSize(rec)
	cts := make([][]byte, count)
	for k := range cts {
		cts[k] = sealed[k*ctSize : (k+1)*ctSize]
	}
	opened, err := c.OpenBatch(nil, cts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(opened, src) {
		t.Fatal("large SealBatch/OpenBatch round trip corrupted data")
	}

	// Tamper with two records; the reported error must name the lower.
	bad := make([][]byte, count)
	for k := range bad {
		bad[k] = append([]byte(nil), cts[k]...)
	}
	bad[40][ivSize] ^= 1
	bad[200][ivSize] ^= 1
	if _, err := c.OpenBatch(nil, bad); err == nil || !strings.Contains(err.Error(), "record 40") {
		t.Fatalf("large OpenBatch error: got %v, want lowest-index record 40", err)
	}
}

func TestSealBatchPanicsOnShapeMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewCipher(KeyFromSeed(29)).SealBatch(nil, make([]byte, 33), 2, 16)
}

func TestKeyFromSeedDeterministic(t *testing.T) {
	if KeyFromSeed(9) != KeyFromSeed(9) {
		t.Fatal("KeyFromSeed not deterministic")
	}
	if KeyFromSeed(9) == KeyFromSeed(10) {
		t.Fatal("different seeds gave equal keys")
	}
}

func TestNewKeyIsRandom(t *testing.T) {
	k1, err := NewKey()
	if err != nil {
		t.Fatal(err)
	}
	k2, err := NewKey()
	if err != nil {
		t.Fatal(err)
	}
	if k1 == k2 {
		t.Fatal("two fresh keys are identical")
	}
}

func TestPRFDeterministicAndKeyed(t *testing.T) {
	p1 := NewPRF(KeyFromSeed(11), "lbl")
	p1b := NewPRF(KeyFromSeed(11), "lbl")
	p2 := NewPRF(KeyFromSeed(11), "other")
	p3 := NewPRF(KeyFromSeed(12), "lbl")
	in := []byte("input")
	if p1.Eval(in) != p1b.Eval(in) {
		t.Fatal("PRF not deterministic")
	}
	if p1.Eval(in) == p2.Eval(in) {
		t.Fatal("different labels collide")
	}
	if p1.Eval(in) == p3.Eval(in) {
		t.Fatal("different keys collide")
	}
}

func TestPRFEvalStringMatchesEval(t *testing.T) {
	p := NewPRF(KeyFromSeed(13), "s")
	f := func(s string) bool {
		return p.EvalString(s) == p.Eval([]byte(s))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if p.EvalString("") != p.Eval(nil) {
		t.Fatal("EvalString(\"\") != Eval(nil)")
	}
}

func TestPRFEvalVariantsAgree(t *testing.T) {
	p := NewPRF(KeyFromSeed(17), "v")
	var buf [8]byte
	for _, u := range []uint64{0, 1, 255, 1 << 20, ^uint64(0)} {
		binary.BigEndian.PutUint64(buf[:], u)
		if p.EvalUint64(u) != p.Eval(buf[:]) {
			t.Fatalf("EvalUint64(%d) != Eval of its big-endian bytes", u)
		}
		if p.EvalUint64Mod(u, 17) != p.EvalMod(buf[:], 17) {
			t.Fatalf("EvalUint64Mod(%d) != EvalMod", u)
		}
	}
	if p.EvalStringMod("abc", 17) != p.EvalMod([]byte("abc"), 17) {
		t.Fatal("EvalStringMod != EvalMod")
	}
	// EvalInto returns the untruncated PRF; Eval is its first 8 bytes.
	full := p.EvalInto(nil, []byte("abc"))
	if len(full) != 32 {
		t.Fatalf("EvalInto appended %d bytes, want 32", len(full))
	}
	if binary.BigEndian.Uint64(full[:8]) != p.Eval([]byte("abc")) {
		t.Fatal("Eval is not the 64-bit truncation of EvalInto")
	}
}

func TestPRFEvalModRange(t *testing.T) {
	p := NewPRF(KeyFromSeed(14), "m")
	for i := 0; i < 1000; i++ {
		v := p.EvalMod([]byte{byte(i), byte(i >> 8)}, 17)
		if v >= 17 {
			t.Fatalf("EvalMod returned %d ≥ 17", v)
		}
	}
}

func TestPRFEvalModSpreads(t *testing.T) {
	p := NewPRF(KeyFromSeed(15), "spread")
	counts := make([]int, 8)
	for i := 0; i < 8000; i++ {
		counts[p.EvalMod([]byte{byte(i), byte(i >> 8)}, 8)]++
	}
	for b, c := range counts {
		if c < 800 || c > 1200 {
			t.Fatalf("bucket %d got %d/8000 draws; PRF output looks biased", b, c)
		}
	}
}

func TestPRFEvalModPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewPRF(KeyFromSeed(16), "z").EvalMod([]byte("x"), 0)
}

func TestConcurrentCipherUse(t *testing.T) {
	// The pooled MAC states must make one Cipher safe for concurrent
	// sealing and opening (the proxy shares scheme ciphers across its
	// pipeline; run under -race in CI).
	c := NewCipher(KeyFromSeed(30))
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			pt := bytes.Repeat([]byte{byte(g)}, 64)
			var buf []byte
			for i := 0; i < 200; i++ {
				buf = c.EncryptInto(buf[:0], pt)
				got, err := c.Decrypt(buf)
				if err != nil {
					done <- err
					return
				}
				if !bytes.Equal(got, pt) {
					done <- errors.New("concurrent round trip corrupted")
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

var _ io.Reader = (*ivCounting)(nil)
