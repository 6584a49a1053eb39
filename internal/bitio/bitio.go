// Package bitio provides bit-granular writing and reading over in-memory
// buffers. It is the substrate for all entropy coders in this repository
// (PaSTRI's prefix trees, the SZ Huffman stage, and the ZFP bit-plane
// coder). Bits are packed MSB-first within each byte, which makes the
// encoded streams byte-order independent and easy to inspect in tests.
//
// The hot paths are word-at-a-time: the Writer batches bits into a
// 64-bit accumulator flushed whole, the Reader serves from a 64-bit
// refill register loaded eight bytes at once, and the unary codec runs
// on bits.LeadingZeros64 instead of per-bit loops. Prefix-code decoders
// that want the bits in a register of their own take them through
// Reader.Window. All fast paths are exercised against the bit-exact
// reference semantics by the fuzzers.
package bitio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// ErrUnexpectedEOF is returned by Reader methods when the stream ends in
// the middle of a requested read.
var ErrUnexpectedEOF = errors.New("bitio: unexpected end of bitstream")

// Writer accumulates bits into an internal byte buffer. The zero value is
// ready to use.
type Writer struct {
	buf  []byte
	cur  uint64 // bits not yet flushed to buf, left-aligned in the low `n` bits
	n    uint   // number of valid bits in cur (0..63)
	bits uint64 // total number of bits written
}

// NewWriter returns a Writer with capacity preallocated for sizeHint bytes.
func NewWriter(sizeHint int) *Writer {
	return &Writer{buf: make([]byte, 0, sizeHint)} //lint:hotalloc2-ok one sized buffer per writer; Reset reuses it across payloads
}

// Reset discards all written data, retaining the allocated buffer.
func (w *Writer) Reset() {
	w.buf = w.buf[:0]
	w.cur = 0
	w.n = 0
	w.bits = 0
}

// WriteBit appends a single bit (0 or 1).
func (w *Writer) WriteBit(b uint) {
	w.cur = w.cur<<1 | uint64(b&1)
	w.n++
	w.bits++
	if w.n == 64 {
		w.flushWord()
	}
}

// WriteBits appends the low `width` bits of v, most significant first.
// width must be in [0, 64].
func (w *Writer) WriteBits(v uint64, width uint) {
	if width == 0 {
		return
	}
	if width > 64 {
		panic(fmt.Sprintf("bitio: WriteBits width %d > 64", width)) //lint:nopanic-ok programmer error: widths come from BitsFor* which cap at 64
	}
	if width < 64 {
		v &= (1 << width) - 1
	}
	w.bits += uint64(width)
	free := 64 - w.n
	if width < free {
		w.cur = w.cur<<width | v //lint:shiftwidth-ok width < free <= 64 by the branch condition
		w.n += width
		return
	}
	// Fill cur completely, flush, keep remainder.
	rem := width - free
	// free = 64 only when n = 0, and then cur = 0 so cur<<64 = 0 is the
	// correct "nothing buffered" value; rem <= 63 since width <= 64 and
	// free >= 1 whenever cur is nonempty.
	w.cur = w.cur<<free | v>>rem //lint:shiftwidth-ok see invariant above
	w.n = 64
	w.flushWord()
	if rem > 0 {
		w.cur = v & ((1 << rem) - 1) //lint:shiftwidth-ok rem = width-free <= 63 (width <= 64, free >= 1 here)
		w.n = rem
	}
}

// WriteSigned appends v as a two's-complement integer of `width` bits.
// v must fit, i.e. -(1<<(width-1)) <= v < 1<<(width-1).
func (w *Writer) WriteSigned(v int64, width uint) {
	w.WriteBits(uint64(v), width)
}

// WriteUnary appends n as a unary code: n one-bits followed by a zero-bit.
// The whole code is emitted word-at-a-time: any unary value up to 63 is
// a single WriteBits call, longer runs flush full words of ones first.
func (w *Writer) WriteUnary(n uint) {
	for n >= 64 {
		w.WriteBits(^uint64(0), 64)
		n -= 64
	}
	// n <= 63 ones followed by the stop bit, as one (n+1)-bit pattern.
	// At n = 63 the 1<<64 wraps to 0 and 0-2 underflows to 63 ones + a
	// zero — exactly the intended 64-bit code.
	w.WriteBits((1<<(n+1))-2, n+1) //lint:shiftwidth-ok wrap at n=63 yields the correct all-ones-plus-stop pattern (see comment)
}

func (w *Writer) flushWord() {
	c := w.cur
	w.buf = append(w.buf,
		byte(c>>56), byte(c>>48), byte(c>>40), byte(c>>32),
		byte(c>>24), byte(c>>16), byte(c>>8), byte(c))
	w.cur = 0
	w.n = 0
}

// Len returns the number of whole bytes the stream occupies after padding.
func (w *Writer) Len() int {
	return int((w.bits + 7) / 8)
}

// BitLen returns the exact number of bits written so far.
func (w *Writer) BitLen() uint64 { return w.bits }

// Bytes returns the written stream padded with zero bits to a byte
// boundary. The returned slice is valid until the next Write/Reset.
// The tail (up to 63 buffered bits) is appended as one padded word in
// a single append, so a Writer whose buffer has spare capacity makes
// no allocation here.
func (w *Writer) Bytes() []byte {
	out := w.buf
	if n := w.n; n > 0 {
		// Left-align the n valid bits into a full word; the low bits are
		// the zero padding.
		var tail [8]byte
		binary.BigEndian.PutUint64(tail[:], w.cur<<(64-n)) //lint:shiftwidth-ok n in [1,63]: the n > 0 guard and flushWord's n == 64 reset bound it
		out = append(out, tail[:(n+7)/8]...)
	}
	// The append above may have grown a new array; only the flushed prefix
	// lives in w.buf, so re-slicing is safe for subsequent writes.
	return out
}

// Reader consumes bits from a byte slice produced by Writer.
type Reader struct {
	buf []byte
	pos int    // next byte index
	cur uint64 // bit reservoir: valid bits are the low `n` bits (higher bits are stale)
	n   uint   // valid bits in cur; bits consumed so far = 8·pos − n
}

// NewReader returns a Reader over buf. The Reader does not copy buf.
func NewReader(buf []byte) *Reader {
	return &Reader{buf: buf}
}

// Reset re-points the reader at buf and rewinds it.
func (r *Reader) Reset(buf []byte) {
	r.buf = buf
	r.pos = 0
	r.cur = 0
	r.n = 0
}

// fill tops up the reservoir. When eight bytes remain, one word load
// tops it up with as many whole bytes as fit (all eight when it is
// empty); otherwise bytes are added one at a time. Either way the
// reservoir ends holding more than 56 bits, or all remaining input.
func (r *Reader) fill() {
	if r.pos+8 <= len(r.buf) {
		w := binary.BigEndian.Uint64(r.buf[r.pos:])
		k := (64 - r.n) &^ 7         // bits of whole bytes that fit
		r.cur = r.cur<<k | w>>(64-k) //lint:shiftwidth-ok k in [0,64]; Go defines shifts by 64 as 0, which is the right value at both ends
		r.pos += int(k >> 3)
		r.n += k
		return
	}
	for r.n <= 56 && r.pos < len(r.buf) {
		r.cur = r.cur<<8 | uint64(r.buf[r.pos])
		r.pos++
		r.n += 8
	}
}

// ReadBit reads a single bit.
func (r *Reader) ReadBit() (uint, error) {
	if r.n == 0 {
		r.fill()
		if r.n == 0 {
			return 0, ErrUnexpectedEOF
		}
	}
	r.n--
	return uint(r.cur>>r.n) & 1, nil //lint:shiftwidth-ok r.n <= 63 after the decrement (fill caps it at 64)
}

// ReadBits reads `width` bits (MSB-first) into the low bits of the result.
// width must be in [0, 64]. Reads that fit in the buffered reservoir —
// the overwhelmingly common case after a word-sized refill — are served
// with one shift and one mask.
func (r *Reader) ReadBits(width uint) (uint64, error) {
	if width == 0 {
		return 0, nil
	}
	if width > 64 {
		panic(fmt.Sprintf("bitio: ReadBits width %d > 64", width)) //lint:nopanic-ok programmer error: decoders validate header widths before reading
	}
	if width < 64 && width <= r.n {
		// Fast path: serve from the reservoir.
		r.n -= width
		return (r.cur >> r.n) & ((1 << width) - 1), nil //lint:shiftwidth-ok width < 64 by the branch; r.n <= 63 after subtracting width >= 1
	}
	var v uint64
	remaining := width
	for remaining > 0 {
		if r.n == 0 {
			r.fill()
			if r.n == 0 {
				return 0, ErrUnexpectedEOF
			}
		}
		take := remaining
		if take > r.n {
			take = r.n
		}
		r.n -= take
		// take can be 64 only when the reservoir was full and all 64 bits
		// are requested at once; the wrapped-to-zero mask from 1<<64-1 is
		// repaired by the take == 64 patch below, and v<<64 on the first
		// iteration shifts the still-zero accumulator.
		v = v<<take | (r.cur>>r.n)&((1<<take)-1) //lint:shiftwidth-ok see invariant above
		if take == 64 {
			v = r.cur // take==64 implies r.n was 64 and remaining 64
		}
		remaining -= take
	}
	return v, nil
}

// ReadSigned reads a two's-complement integer of `width` bits.
func (r *Reader) ReadSigned(width uint) (int64, error) {
	u, err := r.ReadBits(width)
	if err != nil {
		return 0, err
	}
	if width >= 64 {
		// width > 64 is unreachable (ReadBits panicked); folding it into
		// the 64-bit case makes the sign-extension shifts below provably
		// in range for the shiftwidth analyzer.
		return int64(u), nil
	}
	// Sign-extend.
	if u&(1<<(width-1)) != 0 {
		u |= ^uint64(0) << width
	}
	return int64(u), nil
}

// ReadUnary reads a unary code (count of leading one-bits before a zero).
// The run of ones is counted word-at-a-time with bits.LeadingZeros64 on
// the left-aligned reservoir, so a typical short code costs one shift,
// one complement and one LZCNT instead of a per-bit loop.
func (r *Reader) ReadUnary() (uint, error) {
	var total uint
	for {
		if r.n == 0 {
			r.fill()
			if r.n == 0 {
				return 0, ErrUnexpectedEOF
			}
		}
		// Left-align the n valid bits at the top of a word (bits below
		// them become zero, bits above position n in cur are stale and
		// shifted out), then count the leading ones.
		word := r.cur << (64 - r.n) //lint:shiftwidth-ok r.n in [1,64] here: fill guarantees n >= 1 and caps at 64
		ones := uint(bits.LeadingZeros64(^word))
		if ones < r.n {
			// The stop bit is inside the reservoir: consume run + stop.
			r.n -= ones + 1
			return total + ones, nil
		}
		// Every valid bit is a one: consume them all and refill.
		total += r.n
		r.n = 0
	}
}

// ReadZeroRun consumes and counts consecutive zero bits, at most max.
// It stops before the first one-bit, which stays in the stream, and at
// end of input it returns the zeros consumed so far without error — the
// next ReadBit/ReadBits reports EOF exactly as per-bit reading would.
// Tree decoders use this to consume a run of zero-valued symbols (one
// zero bit each) with a single bits.LeadingZeros64 per reservoir word.
func (r *Reader) ReadZeroRun(max uint) uint {
	var total uint
	for total < max {
		if r.n == 0 {
			r.fill()
			if r.n == 0 {
				return total
			}
		}
		// Left-align the valid bits; bits below them are zero, so clamp
		// the count to the reservoir before trusting it.
		word := r.cur << (64 - r.n) //lint:shiftwidth-ok r.n in [1,64] here: fill guarantees n >= 1 and caps at 64
		zeros := uint(bits.LeadingZeros64(word))
		if zeros > r.n {
			zeros = r.n
		}
		if zeros > max-total {
			zeros = max - total
		}
		r.n -= zeros
		total += zeros
		if r.n > 0 {
			// Stopped on a one-bit (left unconsumed) or on quota.
			return total
		}
	}
	return total
}

// Window consumes k bits, then returns the next bits of the stream
// left-aligned in a word and how many of them are valid. Bits past the
// valid count read as zero. The count is at least 57 unless the stream
// ends sooner, in which case the window holds every remaining bit; it
// is never more than 64. k is the number of bits used from the window
// the previous call returned: 0 on the first call, and 0 again after
// any read through the Reader's other methods.
//
// This is the primitive for decoders that parse prefix codes from a
// register: peek at the window, decode codes from a local copy, and
// hand the number of bits used back at the next call. The Reader's
// other methods see the stream exactly as if those bits had been read
// one at a time.
func (r *Reader) Window(k uint) (uint64, uint) {
	r.n -= k
	if r.n <= 56 {
		r.fill()
	}
	return r.cur << (64 - r.n), r.n //lint:shiftwidth-ok r.n in [0,64]; n == 0 gives the empty window 0
}

// BitsRead reports the total number of bits consumed so far.
func (r *Reader) BitsRead() uint64 { return uint64(r.pos)*8 - uint64(r.n) }

// AlignByte discards bits up to the next byte boundary.
func (r *Reader) AlignByte() {
	drop := r.BitsRead() % 8
	if drop != 0 {
		skip := 8 - drop
		r.n -= uint(skip)
	}
}
