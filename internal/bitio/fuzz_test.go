package bitio

import (
	"math"
	"testing"
)

// FuzzBitio round-trips arbitrary (width, value) sequences through
// WriteBits/ReadBits and WriteSigned/ReadSigned for widths 1..64: every
// value written must come back exactly (masked to its width), and the
// reader must consume precisely the bits the writer produced. The fuzz
// input is consumed as records of 9 bytes: 1 width byte + 8 value bytes.
func FuzzBitio(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0xff, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{64, 0xde, 0xad, 0xbe, 0xef, 0xca, 0xfe, 0xba, 0xbe})
	// A mix crossing word boundaries: 7-, 13-, 64-, 1-bit records.
	f.Add([]byte{
		7, 0x55, 0, 0, 0, 0, 0, 0, 0,
		13, 0xff, 0xff, 0, 0, 0, 0, 0, 0,
		64, 1, 2, 3, 4, 5, 6, 7, 8,
		1, 1, 0, 0, 0, 0, 0, 0, 0,
	})
	// 63 buffered bits at Bytes() time: the widest possible unflushed
	// tail, exercising the single-append padded-word flush.
	f.Add([]byte{62, 0xff, 0xee, 0xdd, 0xcc, 0xbb, 0xaa, 0x99, 0x88})
	// 63 buffered bits followed by more writes, so the accumulator
	// straddles the word boundary mid-stream too.
	f.Add([]byte{
		62, 0x0f, 0x0e, 0x0d, 0x0c, 0x0b, 0x0a, 0x09, 0x08,
		0x81, 1, 0, 0, 0, 0, 0, 0, 0,
		62, 0xf0, 0xe0, 0xd0, 0xc0, 0xb0, 0xa0, 0x90, 0x80,
	})
	f.Fuzz(func(t *testing.T, b []byte) {
		type rec struct {
			width  uint
			value  uint64
			signed bool
		}
		var recs []rec
		for len(b) >= 9 {
			// Width byte: low 6 bits select 1..64, the top bit selects the
			// signed path so both codecs share the corpus.
			w := uint(b[0]&0x3f) + 1
			var v uint64
			for i := 1; i < 9; i++ {
				v = v<<8 | uint64(b[i])
			}
			recs = append(recs, rec{width: w, value: v, signed: b[0]&0x80 != 0})
			b = b[9:]
		}

		w := NewWriter(len(recs))
		var wantBits uint64
		for _, r := range recs {
			if r.signed {
				w.WriteSigned(truncSigned(r.value, r.width), r.width)
			} else {
				w.WriteBits(r.value, r.width)
			}
			wantBits += uint64(r.width)
		}
		if got := w.BitLen(); got != wantBits {
			t.Fatalf("writer holds %d bits, wrote %d", got, wantBits)
		}

		rd := NewReader(w.Bytes())
		for i, r := range recs {
			if r.signed {
				want := truncSigned(r.value, r.width)
				got, err := rd.ReadSigned(r.width)
				if err != nil {
					t.Fatalf("record %d: ReadSigned(%d): %v", i, r.width, err)
				}
				if got != want {
					t.Fatalf("record %d: ReadSigned(%d) = %d, want %d", i, r.width, got, want)
				}
			} else {
				want := maskBits(r.value, r.width)
				got, err := rd.ReadBits(r.width)
				if err != nil {
					t.Fatalf("record %d: ReadBits(%d): %v", i, r.width, err)
				}
				if got != want {
					t.Fatalf("record %d: ReadBits(%d) = %#x, want %#x", i, r.width, got, want)
				}
			}
		}
		if got := rd.BitsRead(); got != wantBits {
			t.Fatalf("reader consumed %d bits, stream holds %d", got, wantBits)
		}
	})
}

// maskBits keeps the low width bits of v.
func maskBits(v uint64, width uint) uint64 {
	if width >= 64 {
		return v
	}
	return v & ((1 << width) - 1)
}

// truncSigned interprets the low width bits of v as a two's-complement
// signed value, the round-trip domain of WriteSigned/ReadSigned.
func truncSigned(v uint64, width uint) int64 {
	if width >= 64 {
		return int64(v)
	}
	m := maskBits(v, width)
	if m&(1<<(width-1)) != 0 {
		m |= ^uint64(0) << width
	}
	return int64(m)
}

// FuzzBitioReader feeds arbitrary bytes to the reader side alone: reads
// beyond the buffer must return io.ErrUnexpectedEOF-style errors, never
// panic, and BitsRead must never exceed the available bits.
func FuzzBitioReader(f *testing.F) {
	f.Add([]byte{}, uint(1))
	f.Add([]byte{0xff, 0x00, 0xaa}, uint(13))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, uint(64))
	f.Fuzz(func(t *testing.T, b []byte, width uint) {
		width = width%64 + 1
		r := NewReader(b)
		avail := uint64(len(b)) * 8
		for {
			_, err := r.ReadBits(width)
			if err != nil {
				break
			}
			if r.BitsRead() > avail {
				t.Fatalf("BitsRead %d exceeds %d available bits", r.BitsRead(), avail)
			}
			if r.BitsRead() > math.MaxUint32 {
				break // arbitrary cap; corpus buffers are tiny
			}
		}
		// The batched signed reader must see the same bytes exactly as
		// per-call reads do, including where the stream runs out.
		if len(b) > 1<<16 {
			return
		}
		n := len(b)*8/int(width) + 1
		ref, got := NewReader(b), NewReader(b)
		want := make([]int64, n)
		var errRef error
		for i := range want {
			if want[i], errRef = ref.ReadSigned(width); errRef != nil {
				break
			}
		}
		dst := make([]int64, n)
		if err := got.ReadSignedN(dst, width); err != errRef {
			t.Fatalf("ReadSignedN error %v, per-call error %v", err, errRef)
		}
		if got.BitsRead() != ref.BitsRead() {
			t.Fatalf("ReadSignedN consumed %d bits, per-call %d", got.BitsRead(), ref.BitsRead())
		}
	})
}
