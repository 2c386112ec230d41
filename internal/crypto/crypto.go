// Package crypto provides the two cryptographic tools the paper's
// constructions assume: an IND-CPA symmetric encryption scheme (Enc, Dec)
// for DP-RAM's block array (Section 6), and a pseudorandom function F for
// the mapping function Π(u) = {F(key1, u), F(key2, u)} of the oblivious
// two-choice hashing scheme (Section 7.2).
//
// The concrete instantiations are stdlib-only:
//
//   - Enc/Dec: AES-256-CTR with a fresh IV per encryption, followed by
//     HMAC-SHA256 over iv‖ciphertext (encrypt-then-MAC). CTR mode with
//     non-repeating IVs is IND-CPA; the MAC additionally gives ciphertext
//     integrity, which the paper does not need but any deployment would.
//   - PRF: HMAC-SHA256 truncated to 64 bits.
//
// The privacy proofs only use that re-encryptions of the same plaintext are
// indistinguishable from encryptions of zeros; both hold here.
//
// # Kernel layer
//
// The schemes are crypto-bound (a Path ORAM access seals and opens
// Z·(height+1) blocks), so this package is built as a batched,
// allocation-free kernel layer:
//
//   - The AES-256 key schedule is expanded once in NewCipher and the HMAC
//     inner/outer pads are keyed once per pooled MAC state; Encrypt/Decrypt
//     no longer pay aes.NewCipher + hmac.New per call, and the impossible
//     "invalid key size on a derived 32-byte key" error path is gone.
//   - EncryptInto/DecryptInto/SealBatch/OpenBatch append into
//     caller-provided slabs. Ownership follows the store-layer slab rule:
//     the returned slice (re)uses the caller's backing array, and the
//     caller must not hand out sub-slices it plans to overwrite while
//     consumers hold them.
//   - IVs come from a per-Cipher 64-bit random prefix plus a keystream
//     block counter instead of a crypto/rand read per block (see nextIV for
//     the uniqueness argument). SetIVReader still overrides the source for
//     seeded tests.
//   - SealBatch/OpenBatch run inline on the caller's goroutine. A sealed
//     batch claims one counter range for all its records and draws their
//     keystream from a single CTR stream, which takes the stdlib's
//     pipelined multi-block AES path instead of one block call at a time.
//     Parallelism belongs a layer up (one scheme instance per partition),
//     where it needs no per-batch goroutine handoff.
package crypto

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"io"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"
)

const (
	// KeySize is the master key length in bytes. The master key is split
	// into an AES-256 encryption key and a MAC key via domain-separated
	// HMAC, so 32 bytes of entropy suffice.
	KeySize = 32
	ivSize  = aes.BlockSize
	macSize = sha256.Size
	// Overhead is the ciphertext expansion in bytes: IV plus MAC tag.
	Overhead = ivSize + macSize

	// ctrInline is the payload size up to which CTR runs as a manual
	// block-at-a-time loop over the pre-expanded cipher (zero allocations;
	// faster than the stream object below ~2 AES blocks of setup cost).
	// Larger payloads use cipher.NewCTR: one small stream allocation buys
	// the vectorized multi-block keystream path, a 4–7× throughput win at
	// 1 KiB and above. Scheme blocks (64–128 B) stay on the inline path.
	ctrInline = 128
)

// ErrAuth reports a ciphertext whose MAC did not verify.
var ErrAuth = errors.New("crypto: message authentication failed")

// Key is a client-held master secret.
type Key [KeySize]byte

// NewKey samples a fresh key from crypto/rand.
func NewKey() (Key, error) {
	var k Key
	if _, err := io.ReadFull(rand.Reader, k[:]); err != nil {
		return Key{}, fmt.Errorf("crypto: sampling key: %w", err)
	}
	return k, nil
}

// KeyFromSeed derives a key deterministically from a seed. Experiments use
// it for reproducibility; production callers should use NewKey.
func KeyFromSeed(seed uint64) Key {
	var k Key
	var s [8]byte
	binary.BigEndian.PutUint64(s[:], seed)
	mac := hmac.New(sha256.New, []byte("dpstore/key-from-seed"))
	mac.Write(s[:])
	copy(k[:], mac.Sum(nil))
	return k
}

// derive produces a 32-byte subkey of k for the given domain label.
func derive(k Key, label string) []byte {
	mac := hmac.New(sha256.New, k[:])
	mac.Write([]byte(label))
	return mac.Sum(nil)
}

// macState is the pooled per-goroutine working set of one seal/open: a
// pre-keyed HMAC (Reset restores the cached pads without re-deriving them)
// plus fixed scratch for the tag, the CTR counter block, the inline
// keystream and integer PRF inputs. The scratch lives here rather than on
// the stack because it is passed through hash.Hash/cipher.Block interface
// calls, which would otherwise force a heap escape per call.
type macState struct {
	mac   hash.Hash
	sum   [macSize]byte
	ctr   [aes.BlockSize]byte
	ks    [ctrInline]byte
	num   [8]byte
	runKS []byte // a sealed batch's keystream (sealRun), grown on demand
}

// Cipher is the (Enc, Dec) pair of Section 6. The key schedule and MAC pads
// are expanded once at construction; per-call state comes from an internal
// pool, so a Cipher is safe for concurrent use and allocation-free on the
// *Into paths.
type Cipher struct {
	block  cipher.Block
	macKey []byte
	states sync.Pool

	// IV state: iv = ivPrefix ‖ counter, where the counter advances by the
	// number of keystream blocks each message consumes (see nextIV).
	ivPrefix uint64
	ivCtr    atomic.Uint64
	// ivOverride, when set, supplies raw 16-byte IVs instead; tests use it
	// to pin seeded transcripts.
	ivOverride io.Reader
}

// NewCipher builds a Cipher from a master key, expanding the AES key
// schedule once and drawing a fresh random IV prefix. Every NewCipher call
// — including Resume paths and key rotation, which always reconstruct the
// Cipher — gets an independent prefix, so counter IVs never collide across
// instances except with probability ≤ q²/2⁶⁴ for q instances.
func NewCipher(k Key) *Cipher {
	blk, err := aes.NewCipher(derive(k, "dpstore/enc"))
	if err != nil {
		// aes.NewCipher fails only on an invalid key length, and derive
		// always returns 32 bytes.
		panic("crypto: aes.NewCipher rejected a derived 32-byte key: " + err.Error())
	}
	c := &Cipher{block: blk, macKey: derive(k, "dpstore/mac")}
	var p [8]byte
	rand.Read(p[:]) // never fails (crypto/rand aborts the process instead)
	c.ivPrefix = binary.BigEndian.Uint64(p[:])
	c.states.New = func() any { return &macState{mac: hmac.New(sha256.New, c.macKey)} }
	return c
}

// SetIVReader replaces the IV source with raw 16-byte reads from r. Only
// tests should call it: it trades the counter's uniqueness guarantee for
// reproducibility. While set, SealBatch draws one IV per record in record
// order, exactly as sequential EncryptInto calls would, and a read failure
// panics (a misconfigured test, not a runtime condition).
func (c *Cipher) SetIVReader(r io.Reader) { c.ivOverride = r }

// CiphertextSize returns the ciphertext length for a plaintext of the given
// length.
func CiphertextSize(plaintextLen int) int { return plaintextLen + Overhead }

// nextIV writes the IV for a message of n plaintext bytes into iv[:ivSize].
//
// The IV is prefix ‖ counter with both halves big-endian, and the counter
// is advanced by ⌈n/16⌉ (min 1) — the number of keystream blocks CTR will
// derive from this IV by incrementing it. Claiming the whole range is what
// makes the argument exact: two messages from one Cipher occupy disjoint
// counter ranges, so no keystream block is ever reused within an instance
// (the CTR analogue of nonce uniqueness), and messages from different
// instances collide only if their random prefixes do. A counter wrap would
// need 2⁶⁴ keystream blocks (2⁶⁸ bytes) through one instance.
func (c *Cipher) nextIV(iv []byte, n int) {
	if r := c.ivOverride; r != nil {
		if _, err := io.ReadFull(r, iv[:ivSize]); err != nil {
			panic("crypto: test IV reader failed: " + err.Error())
		}
		return
	}
	nb := ctrBlocks(n)
	c.putIV(iv, c.ivCtr.Add(nb)-nb)
}

// ctrBlocks is the number of counter values a message of n plaintext bytes
// claims: ⌈n/16⌉, min 1.
func ctrBlocks(n int) uint64 {
	return max(1, uint64(n+aes.BlockSize-1)/aes.BlockSize)
}

// putIV writes the counter IV prefix ‖ ctr into iv[:ivSize].
func (c *Cipher) putIV(iv []byte, ctr uint64) {
	binary.BigEndian.PutUint64(iv[:8], c.ivPrefix)
	binary.BigEndian.PutUint64(iv[8:ivSize], ctr)
}

// ctrXOR applies the CTR keystream for iv to src, writing into dst
// (len(dst) == len(src)). Payloads at or below ctrInline run block-by-block
// over the pre-expanded cipher with scratch from st; larger ones use the
// stdlib stream for its vectorized keystream.
func (c *Cipher) ctrXOR(st *macState, iv, dst, src []byte) {
	n := len(src)
	if n == 0 {
		return
	}
	if n > ctrInline {
		cipher.NewCTR(c.block, iv).XORKeyStream(dst, src)
		return
	}
	copy(st.ctr[:], iv)
	for off := 0; off < n; off += aes.BlockSize {
		c.block.Encrypt(st.ks[off:off+aes.BlockSize], st.ctr[:])
		// 128-bit big-endian increment, matching cipher.NewCTR.
		for i := aes.BlockSize - 1; i >= 0; i-- {
			st.ctr[i]++
			if st.ctr[i] != 0 {
				break
			}
		}
	}
	subtle.XORBytes(dst, src, st.ks[:n])
}

// sealTo writes iv ‖ CTR(pt) ‖ HMAC(iv‖ct) into out, which must be exactly
// CiphertextSize(len(pt)) bytes with that much capacity.
func (c *Cipher) sealTo(st *macState, out, pt []byte) {
	n := len(pt)
	c.nextIV(out[:ivSize], n)
	c.ctrXOR(st, out[:ivSize], out[ivSize:ivSize+n], pt)
	tagTo(st, out, n)
}

// tagTo appends HMAC(iv‖ct) in place after the n-byte payload of out,
// which must have the capacity for it.
func tagTo(st *macState, out []byte, n int) {
	st.mac.Reset()
	st.mac.Write(out[:ivSize+n])
	st.mac.Sum(out[:ivSize+n])
}

// openTo verifies ct and decrypts its payload into dst, which must be
// exactly len(ct)-Overhead bytes. Nothing is written before the MAC checks.
func (c *Cipher) openTo(st *macState, dst, ct []byte) error {
	if len(ct) < Overhead {
		return fmt.Errorf("crypto: ciphertext too short (%d bytes)", len(ct))
	}
	body := ct[:len(ct)-macSize]
	tag := ct[len(ct)-macSize:]
	st.mac.Reset()
	st.mac.Write(body)
	if !hmac.Equal(st.mac.Sum(st.sum[:0]), tag) {
		return ErrAuth
	}
	c.ctrXOR(st, body[:ivSize], dst, body[ivSize:])
	return nil
}

// EncryptInto appends the encryption of plaintext to dst and returns the
// extended slice, allocating only if dst lacks capacity. Each call draws a
// fresh IV, so re-encrypting the same block yields an independent-looking
// ciphertext — the property DP-RAM's overwrite phase relies on.
func (c *Cipher) EncryptInto(dst, plaintext []byte) []byte {
	n := len(dst)
	ctSize := CiphertextSize(len(plaintext))
	dst = slices.Grow(dst, ctSize)[:n+ctSize]
	st := c.states.Get().(*macState)
	c.sealTo(st, dst[n:], plaintext)
	c.states.Put(st)
	return dst
}

// Encrypt returns iv ‖ CTR(plaintext) ‖ HMAC(iv‖ct) in a fresh buffer.
func (c *Cipher) Encrypt(plaintext []byte) []byte {
	return c.EncryptInto(make([]byte, 0, CiphertextSize(len(plaintext))), plaintext)
}

// DecryptInto verifies ct and appends its plaintext to dst, returning the
// extended slice. On failure dst is returned at its original length with
// nothing appended.
func (c *Cipher) DecryptInto(dst, ct []byte) ([]byte, error) {
	if len(ct) < Overhead {
		return dst, fmt.Errorf("crypto: ciphertext too short (%d bytes)", len(ct))
	}
	n := len(dst)
	pn := len(ct) - Overhead
	grown := slices.Grow(dst, pn)[:n+pn]
	st := c.states.Get().(*macState)
	err := c.openTo(st, grown[n:], ct)
	c.states.Put(st)
	if err != nil {
		return dst, err
	}
	return grown, nil
}

// Decrypt verifies and opens a ciphertext produced by Encrypt.
func (c *Cipher) Decrypt(ct []byte) ([]byte, error) {
	if len(ct) < Overhead {
		return nil, fmt.Errorf("crypto: ciphertext too short (%d bytes)", len(ct))
	}
	out, err := c.DecryptInto(make([]byte, 0, len(ct)-Overhead), ct)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// SealBatch encrypts count records of recSize bytes laid out contiguously
// in src (len(src) == count·recSize) and appends their ciphertexts to dst,
// contiguous in record order. Each record is an independent ciphertext
// that opens on its own through DecryptInto; under counter IVs the batch
// claims the same counter range count sequential EncryptInto calls would
// (see sealRun), and under an IV override it is byte-identical to them.
func (c *Cipher) SealBatch(dst, src []byte, count, recSize int) []byte {
	if count < 0 || recSize < 0 || count*recSize != len(src) {
		panic(fmt.Sprintf("crypto: SealBatch of %d×%d over %d bytes", count, recSize, len(src)))
	}
	if count == 0 {
		return dst
	}
	obsSealBatch.Record(int64(count))
	ctSize := CiphertextSize(recSize)
	n := len(dst)
	dst = slices.Grow(dst, count*ctSize)[:n+count*ctSize]
	out := dst[n:]
	st := c.states.Get().(*macState)
	if c.ivOverride != nil {
		for k := 0; k < count; k++ {
			c.sealTo(st, out[k*ctSize:(k+1)*ctSize], src[k*recSize:(k+1)*recSize])
		}
	} else {
		c.sealRun(st, out, src, count, recSize)
	}
	c.states.Put(st)
	return dst
}

// sealRun seals a batch under counter IVs with one atomic claim of count·nb
// counter values, nb = ctrBlocks(recSize): record k gets IV
// prefix ‖ start+k·nb. The records' keystream ranges are therefore
// contiguous, so one CTR stream from prefix ‖ start produces all of them
// (record k's are the nb·16 bytes at offset k·nb·16) — exactly what
// DecryptInto re-derives from each record's IV. As in nextIV, a 64-bit
// counter wrap inside a batch would need 2⁶⁴ keystream blocks through one
// instance.
func (c *Cipher) sealRun(st *macState, out, src []byte, count, recSize int) {
	nb := ctrBlocks(recSize)
	stride := int(nb) * aes.BlockSize
	total := uint64(count) * nb
	start := c.ivCtr.Add(total) - total
	if cap(st.runKS) < count*stride {
		st.runKS = make([]byte, count*stride)
	}
	ks := st.runKS[:count*stride]
	clear(ks)
	c.putIV(st.ctr[:], start)
	cipher.NewCTR(c.block, st.ctr[:]).XORKeyStream(ks, ks)
	ctSize := CiphertextSize(recSize)
	for k := 0; k < count; k++ {
		rec := out[k*ctSize : (k+1)*ctSize]
		c.putIV(rec, start+uint64(k)*nb)
		subtle.XORBytes(rec[ivSize:ivSize+recSize], src[k*recSize:(k+1)*recSize], ks[k*stride:])
		tagTo(st, rec, recSize)
	}
}

// OpenBatch verifies and decrypts a batch of equal-length ciphertexts,
// appending the plaintexts to dst contiguous in record order. Records are
// opened in order, each MAC checked before its payload is decrypted. On
// failure dst is returned at its original length — no plaintext is handed
// back unless every record verified — and the error names the first (so
// lowest-index) bad record.
func (c *Cipher) OpenBatch(dst []byte, cts [][]byte) ([]byte, error) {
	count := len(cts)
	if count == 0 {
		return dst, nil
	}
	obsOpenBatch.Record(int64(count))
	ctSize := len(cts[0])
	if ctSize < Overhead {
		return dst, fmt.Errorf("crypto: batch record 0: ciphertext too short (%d bytes)", ctSize)
	}
	for k, ct := range cts {
		if len(ct) != ctSize {
			return dst, fmt.Errorf("crypto: ragged batch: record %d has %d bytes, want %d", k, len(ct), ctSize)
		}
	}
	pn := ctSize - Overhead
	n := len(dst)
	grown := slices.Grow(dst, count*pn)[:n+count*pn]
	out := grown[n:]
	st := c.states.Get().(*macState)
	defer c.states.Put(st)
	for k := 0; k < count; k++ {
		if err := c.openTo(st, out[k*pn:(k+1)*pn], cts[k]); err != nil {
			return dst, fmt.Errorf("crypto: batch record %d: %w", k, err)
		}
	}
	return grown, nil
}

// PRF is the keyed function F of Section 7.2. Two independently keyed PRFs
// define the two bucket choices of the mapping function Π. Like Cipher, the
// HMAC pads are keyed once and per-call state is pooled, so evaluation is
// allocation-free and safe for concurrent use.
type PRF struct {
	key    []byte
	states sync.Pool
}

// NewPRF derives a PRF from the master key under a caller-chosen label, so
// one master key can back many independent PRFs (Π uses labels "pi-1" and
// "pi-2").
func NewPRF(k Key, label string) *PRF {
	p := &PRF{key: derive(k, "dpstore/prf/"+label)}
	p.states.New = func() any { return &macState{mac: hmac.New(sha256.New, p.key)} }
	return p
}

// eval is the shared core of every Eval variant.
func (p *PRF) eval(input []byte) uint64 {
	st := p.states.Get().(*macState)
	st.mac.Reset()
	st.mac.Write(input)
	v := binary.BigEndian.Uint64(st.mac.Sum(st.sum[:0])[:8])
	p.states.Put(st)
	return v
}

// Eval returns the 64-bit PRF output on input.
func (p *PRF) Eval(input []byte) uint64 { return p.eval(input) }

// EvalString is Eval on a string key. The string's bytes are viewed in
// place (never written, never retained past the call), so call sites skip
// the []byte(s) copy.
func (p *PRF) EvalString(s string) uint64 {
	if len(s) == 0 {
		return p.eval(nil)
	}
	return p.eval(unsafe.Slice(unsafe.StringData(s), len(s)))
}

// EvalUint64 is Eval on the big-endian encoding of u — the fast path for
// integer-indexed callers, with the 8-byte staging in pooled scratch.
func (p *PRF) EvalUint64(u uint64) uint64 {
	st := p.states.Get().(*macState)
	binary.BigEndian.PutUint64(st.num[:], u)
	st.mac.Reset()
	st.mac.Write(st.num[:])
	v := binary.BigEndian.Uint64(st.mac.Sum(st.sum[:0])[:8])
	p.states.Put(st)
	return v
}

// EvalInto appends the full 32-byte PRF output on input to dst — for
// callers that need more than the 64-bit truncation Eval applies.
func (p *PRF) EvalInto(dst, input []byte) []byte {
	st := p.states.Get().(*macState)
	st.mac.Reset()
	st.mac.Write(input)
	dst = st.mac.Sum(dst)
	p.states.Put(st)
	return dst
}

// EvalMod returns Eval(input) reduced modulo m (m > 0). The modulo bias for
// m ≪ 2^64 is cryptographically negligible.
func (p *PRF) EvalMod(input []byte, m uint64) uint64 {
	if m == 0 {
		panic("crypto: EvalMod modulus zero")
	}
	return p.eval(input) % m
}

// EvalStringMod is EvalMod on a string key, copy-free like EvalString.
func (p *PRF) EvalStringMod(s string, m uint64) uint64 {
	if m == 0 {
		panic("crypto: EvalMod modulus zero")
	}
	return p.EvalString(s) % m
}

// EvalUint64Mod is EvalMod on an integer key, allocation-free like
// EvalUint64.
func (p *PRF) EvalUint64Mod(u, m uint64) uint64 {
	if m == 0 {
		panic("crypto: EvalMod modulus zero")
	}
	return p.EvalUint64(u) % m
}
