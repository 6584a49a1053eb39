package bitio

import (
	"bytes"
	"math/rand"
	"testing"
)

// The batch writers' only contract is byte-identity with their
// per-code counterparts at every register alignment. The tests below
// drive random value mixes through both paths with a random-length
// misaligning prefix, so every (width, alignment) spill case is hit.

func TestWriteBitsNMatchesWriteBits(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for width := uint(0); width <= 64; width++ {
		for trial := 0; trial < 20; trial++ {
			n := rng.Intn(200)
			vals := make([]uint64, n)
			for i := range vals {
				vals[i] = rng.Uint64()
			}
			prefix := uint(rng.Intn(64))

			ref, got := &Writer{}, &Writer{}
			pfx := rng.Uint64()
			ref.WriteBits(pfx, prefix)
			got.WriteBits(pfx, prefix)
			for _, v := range vals {
				ref.WriteBits(v, width)
			}
			got.WriteBitsN(vals, width)
			if ref.BitLen() != got.BitLen() || !bytes.Equal(ref.Bytes(), got.Bytes()) {
				t.Fatalf("width %d, %d vals, prefix %d: batch stream differs from per-call", width, n, prefix)
			}
		}
	}
}

func TestWriteSignedNMatchesWriteSigned(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for width := uint(1); width <= 64; width++ {
		for trial := 0; trial < 20; trial++ {
			n := rng.Intn(200)
			vals := make([]int64, n)
			for i := range vals {
				// Random value fitting the width: mask then sign-extend.
				u := rng.Uint64()
				if width < 64 {
					u &= 1<<width - 1
					if u&(1<<(width-1)) != 0 {
						u |= ^uint64(0) << width
					}
				}
				vals[i] = int64(u)
			}
			prefix := uint(rng.Intn(64))

			ref, got := &Writer{}, &Writer{}
			pfx := rng.Uint64()
			ref.WriteBits(pfx, prefix)
			got.WriteBits(pfx, prefix)
			for _, v := range vals {
				ref.WriteSigned(v, width)
			}
			got.WriteSignedN(vals, width)
			if ref.BitLen() != got.BitLen() || !bytes.Equal(ref.Bytes(), got.Bytes()) {
				t.Fatalf("width %d, %d vals, prefix %d: batch stream differs from per-call", width, n, prefix)
			}
		}
	}
}

func TestWriteSignedNRoundTrips(t *testing.T) {
	vals := []int64{0, 1, -1, 3, -4, 2, -3}
	w := &Writer{}
	w.WriteSignedN(vals, 3)
	r := NewReader(w.Bytes())
	for i, want := range vals {
		got, err := r.ReadSigned(3)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("value %d: got %d, want %d", i, got, want)
		}
	}
}

func TestWriteUnaryNMatchesWriteUnary(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(200)
		ns := make([]uint, n)
		for i := range ns {
			switch rng.Intn(10) {
			case 0:
				ns[i] = uint(rng.Intn(300)) // long runs incl. the >= 63 fallback
			case 1:
				ns[i] = 62 + uint(rng.Intn(4)) // straddle the fallback threshold
			default:
				ns[i] = uint(rng.Intn(8)) // typical ECQ bin prefixes
			}
		}
		prefix := uint(rng.Intn(64))

		ref, got := &Writer{}, &Writer{}
		pfx := rng.Uint64()
		ref.WriteBits(pfx, prefix)
		got.WriteBits(pfx, prefix)
		for _, v := range ns {
			ref.WriteUnary(v)
		}
		got.WriteUnaryN(ns)
		if ref.BitLen() != got.BitLen() || !bytes.Equal(ref.Bytes(), got.Bytes()) {
			t.Fatalf("trial %d (%d codes, prefix %d): batch stream differs from per-call", trial, n, prefix)
		}
	}
}

func TestWriteUnaryNRoundTrips(t *testing.T) {
	ns := []uint{0, 1, 5, 0, 63, 2, 130, 0, 7}
	w := &Writer{}
	w.WriteUnaryN(ns)
	r := NewReader(w.Bytes())
	for i, want := range ns {
		got, err := r.ReadUnary()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("code %d: got %d, want %d", i, got, want)
		}
	}
}

func BenchmarkWriteBitsN(b *testing.B) {
	vals := make([]uint64, 4096)
	for i := range vals {
		vals[i] = uint64(i) * 0x9E3779B97F4A7C15
	}
	w := NewWriter(1 << 16)
	b.SetBytes(int64(len(vals)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Reset()
		w.WriteBitsN(vals, 11)
	}
}

func BenchmarkWriteSignedN(b *testing.B) {
	vals := make([]int64, 4096)
	for i := range vals {
		vals[i] = int64(i%512) - 256
	}
	w := NewWriter(1 << 16)
	b.SetBytes(int64(len(vals)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Reset()
		w.WriteSignedN(vals, 10)
	}
}

func BenchmarkWriteUnaryN(b *testing.B) {
	lens := unaryLens()
	w := NewWriter(1 << 16)
	b.SetBytes(int64(len(lens)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Reset()
		w.WriteUnaryN(lens)
	}
}

// TestReadSignedNMatchesReadSigned: the batched reader must return the
// per-call values, leave the reader at the same bit position and, on a
// truncated stream, fail with the same error after the same partial
// read — at every width and reservoir alignment.
func TestReadSignedNMatchesReadSigned(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for width := uint(0); width <= 64; width++ {
		for trial := 0; trial < 20; trial++ {
			n := rng.Intn(120)
			w := &Writer{}
			prefix := uint(rng.Intn(64))
			w.WriteBits(rng.Uint64(), prefix)
			for i := 0; i < n; i++ {
				w.WriteBits(rng.Uint64(), width)
			}
			buf := w.Bytes()
			// Full stream, plus a truncation that cuts the run short.
			for _, cut := range []int{len(buf), rng.Intn(len(buf) + 1)} {
				ref, got := NewReader(buf[:cut]), NewReader(buf[:cut])
				if _, err := ref.ReadBits(prefix); err != nil {
					continue // cut inside the prefix
				}
				if _, err := got.ReadBits(prefix); err != nil {
					t.Fatal(err)
				}
				var errRef error
				want := make([]int64, n)
				for i := range want {
					v, err := ref.ReadSigned(width)
					if err != nil {
						errRef = err
						break
					}
					want[i] = v
				}
				dst := make([]int64, n)
				if err := got.ReadSignedN(dst, width); err != errRef {
					t.Fatalf("width %d, n %d, cut %d: error %v, want %v", width, n, cut, err, errRef)
				}
				if errRef == nil {
					for i := range want {
						if dst[i] != want[i] {
							t.Fatalf("width %d: value %d = %d, want %d", width, i, dst[i], want[i])
						}
					}
				}
				if got.BitsRead() != ref.BitsRead() {
					t.Fatalf("width %d, n %d, cut %d: consumed %d bits, per-call consumed %d",
						width, n, cut, got.BitsRead(), ref.BitsRead())
				}
			}
		}
	}
}

// TestWindow: decoding through Window must see the stream bit for bit,
// report at least 57 valid bits until the stream's last bytes, and
// leave the Reader positioned exactly where per-bit reading would.
func TestWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 200; trial++ {
		buf := make([]byte, rng.Intn(40))
		rng.Read(buf)
		r := NewReader(buf)
		// Misalign the reservoir with an ordinary read first.
		lead := uint(rng.Intn(9))
		if lead > uint(len(buf))*8 {
			lead = 0
		}
		if _, err := r.ReadBits(lead); err != nil {
			t.Fatal(err)
		}
		pos := lead
		win, avail := r.Window(0)
		for {
			left := uint(len(buf))*8 - pos
			if avail > left || (avail < 57 && avail != left) {
				t.Fatalf("trial %d at bit %d: window holds %d bits, %d remain", trial, pos, avail, left)
			}
			for j := uint(0); j < avail; j++ {
				want := uint64(buf[(pos+j)/8]>>(7-(pos+j)%8)) & 1
				if win>>(63-j)&1 != want {
					t.Fatalf("trial %d: window bit %d of stream bit %d wrong", trial, j, pos)
				}
			}
			if avail < 64 && win<<avail != 0 {
				t.Fatalf("trial %d: bits past the valid count are not zero", trial)
			}
			if avail == 0 {
				break
			}
			k := uint(rng.Intn(int(avail) + 1))
			pos += k
			win, avail = r.Window(k)
			if r.BitsRead() != uint64(pos) {
				t.Fatalf("trial %d: BitsRead %d, consumed %d", trial, r.BitsRead(), pos)
			}
		}
		if _, err := r.ReadBit(); err != ErrUnexpectedEOF {
			t.Fatalf("trial %d: read past the end: %v", trial, err)
		}
	}
}

func BenchmarkReadSignedN(b *testing.B) {
	vals := make([]int64, 4096)
	for i := range vals {
		vals[i] = int64(i%512) - 256
	}
	w := NewWriter(1 << 16)
	w.WriteSignedN(vals, 10)
	buf := w.Bytes()
	r := NewReader(nil)
	b.SetBytes(int64(len(vals)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Reset(buf)
		if err := r.ReadSignedN(vals, 10); err != nil {
			b.Fatal(err)
		}
	}
}
