package encoding

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bitio"
)

// decodeDense decodes one block through DecodeList and scatters the
// list into dst, the dense form the round-trip tests compare. It also
// checks the list's shape: ascending positions, no zero values.
func decodeDense(r *bitio.Reader, dst []int64, ecb uint, m Method) error {
	idxs, vals := make([]int32, len(dst)), make([]int64, len(dst))
	k, err := DecodeList(r, idxs, vals, len(dst), ecb, m)
	if err != nil {
		return err
	}
	return scatter(dst, idxs[:k], vals[:k])
}

// decodeSparseDense is decodeDense for the sparse representation.
func decodeSparseDense(r *bitio.Reader, dst []int64, ecb, idxBits, countBits uint) error {
	idxs, vals := make([]int32, len(dst)), make([]int64, len(dst))
	k, err := DecodeSparseList(r, idxs, vals, len(dst), ecb, idxBits, countBits)
	if err != nil {
		return err
	}
	return scatter(dst, idxs[:k], vals[:k])
}

func scatter(dst []int64, idxs []int32, vals []int64) error {
	for i := range dst {
		dst[i] = 0
	}
	for k, idx := range idxs {
		if k > 0 && idx <= idxs[k-1] {
			return fmt.Errorf("list entry %d: position %d does not follow %d", k, idx, idxs[k-1])
		}
		if vals[k] == 0 {
			return fmt.Errorf("list entry %d: zero value listed", k)
		}
		dst[idx] = vals[k]
	}
	return nil
}

// sparseECQ returns n quanta, each nonzero with probability density,
// drawn from {±1} or from ±[2, 2^(ecb-1)-1].
func sparseECQ(rng *rand.Rand, n int, density float64, ecb uint) []int64 {
	vals := make([]int64, n)
	for i := range vals {
		if rng.Float64() >= density {
			continue
		}
		v := int64(1)
		if ecb > 2 && rng.Intn(3) == 0 {
			v = 2 + rng.Int63n(int64(1)<<(ecb-1)-2)
		}
		if rng.Intn(2) == 0 {
			v = -v
		}
		vals[i] = v
	}
	return vals
}

// TestDecodeListTruncations: every method decodes its own stream back
// exactly, consuming exactly the bits written, and fails on every
// truncation, whichever decoder path (window, slow tail, slow) runs.
func TestDecodeListTruncations(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, m := range Methods {
		for _, ecb := range []uint{2, 3, 9, 40, 55, 56, 63} {
			for _, density := range []float64{0, 0.02, 0.3, 1} {
				vals := sparseECQ(rng, 1+rng.Intn(700), density, ecb)
				w := bitio.NewWriter(0)
				Encode(w, vals, ecb, m)
				buf := w.Bytes()
				name := fmt.Sprintf("%v ecb=%d n=%d density=%g", m, ecb, len(vals), density)
				dst := make([]int64, len(vals))
				r := bitio.NewReader(buf)
				if err := decodeDense(r, dst, ecb, m); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if r.BitsRead() != w.BitLen() {
					t.Fatalf("%s: consumed %d bits, stream holds %d", name, r.BitsRead(), w.BitLen())
				}
				for i := range vals {
					if dst[i] != vals[i] {
						t.Fatalf("%s: dst[%d] = %d, want %d", name, i, dst[i], vals[i])
					}
				}
				for cut := 0; cut < len(buf); cut++ {
					if err := decodeDense(bitio.NewReader(buf[:cut]), dst, ecb, m); err == nil {
						t.Fatalf("%s: stream cut to %d of %d bytes decoded", name, cut, len(buf))
					}
				}
			}
		}
	}
}

// TestWindowDecoderMatchesSlow drives arbitrary bit strings through the
// window decoder and the one-code-at-a-time decoder: they must agree on
// success or failure and, on success, on the list and the bits read.
func TestWindowDecoderMatchesSlow(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 3000; trial++ {
		m := Tree3
		if rng.Intn(2) == 0 {
			m = Tree5
		}
		ecb := uint(1 + rng.Intn(maxWindowECb))
		if rng.Intn(3) == 0 {
			ecb = uint(1 + rng.Intn(2)) // narrow Tree 5
		}
		// Bit strings biased toward zeros give long zero runs and codes
		// that straddle refills.
		buf := make([]byte, rng.Intn(48))
		ones := rng.Float64()
		for i := range buf {
			for b := 0; b < 8; b++ {
				if rng.Float64() < ones {
					buf[i] |= 1 << b
				}
			}
		}
		n := 1 + rng.Intn(400)
		ia, va := make([]int32, n), make([]int64, n)
		ib, vb := make([]int32, n), make([]int64, n)
		ra, rb := bitio.NewReader(buf), bitio.NewReader(buf)
		ka, errA := decodeTreeWindow(ra, ia, va, n, ecb, m)
		kb, errB := decodeSlow(rb, ib, vb, 0, 0, n, ecb, m)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("trial %d (%v ecb=%d n=%d): window err %v, slow err %v", trial, m, ecb, n, errA, errB)
		}
		if errA != nil {
			continue
		}
		if ka != kb || ra.BitsRead() != rb.BitsRead() {
			t.Fatalf("trial %d: window listed %d in %d bits, slow %d in %d", trial, ka, ra.BitsRead(), kb, rb.BitsRead())
		}
		for k := 0; k < ka; k++ {
			if ia[k] != ib[k] || va[k] != vb[k] {
				t.Fatalf("trial %d entry %d: window (%d,%d), slow (%d,%d)", trial, k, ia[k], va[k], ib[k], vb[k])
			}
		}
	}
}

// TestDecodeSparseListOrder: a sparse payload naming a position twice
// or out of order is rejected with ErrSparseOrder, where a dense
// scatter would silently keep the last write.
func TestDecodeSparseListOrder(t *testing.T) {
	const n, ecb, idxBits, countBits = 10, 8, 4, 4
	for _, idxs := range [][]uint64{{3, 3}, {5, 2}, {1, 4, 4}} {
		w := bitio.NewWriter(0)
		w.WriteBits(uint64(len(idxs)), countBits)
		for _, idx := range idxs {
			w.WriteBits(idx, idxBits)
			w.WriteSigned(7, ecb)
		}
		dst := make([]int64, n)
		err := decodeSparseDense(bitio.NewReader(w.Bytes()), dst, ecb, idxBits, countBits)
		if !errors.Is(err, ErrSparseOrder) {
			t.Errorf("positions %v: got %v, want ErrSparseOrder", idxs, err)
		}
	}
}

func TestDecodeListUnknownMethod(t *testing.T) {
	if _, err := DecodeList(bitio.NewReader([]byte{0}), make([]int32, 1), make([]int64, 1), 1, 3, Method(99)); err == nil {
		t.Fatal("unknown method decoded")
	}
}
