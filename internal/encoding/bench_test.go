package encoding

import (
	"math/rand"
	"testing"

	"repro/internal/bitio"
)

// benchECQ mimics a Type-2/3 ECQ distribution: mostly zeros, a few
// small values, rare large outliers.
func benchECQ() []int64 {
	rng := rand.New(rand.NewSource(1))
	vals := make([]int64, 1296)
	for i := range vals {
		switch rng.Intn(20) {
		case 0:
			vals[i] = rng.Int63n(7) - 3
		case 1:
			vals[i] = rng.Int63n(1<<16) - 1<<15
		}
	}
	return vals
}

func BenchmarkEncodeTrees(b *testing.B) {
	vals := benchECQ()
	ecb := uint(17)
	for _, m := range Methods {
		b.Run(m.String(), func(b *testing.B) {
			w := bitio.NewWriter(1 << 14)
			b.SetBytes(int64(len(vals) * 8))
			for i := 0; i < b.N; i++ {
				w.Reset()
				Encode(w, vals, ecb, m)
			}
		})
	}
}

func BenchmarkDecodeTree5(b *testing.B) {
	vals := benchECQ()
	ecb := uint(17)
	w := bitio.NewWriter(1 << 14)
	Encode(w, vals, ecb, Tree5)
	buf := w.Bytes()
	idxs, nz := make([]int32, len(vals)), make([]int64, len(vals))
	r := bitio.NewReader(nil)
	b.SetBytes(int64(len(vals) * 8))
	for i := 0; i < b.N; i++ {
		r.Reset(buf)
		if _, err := DecodeList(r, idxs, nz, len(vals), ecb, Tree5); err != nil {
			b.Fatal(err)
		}
	}
}
