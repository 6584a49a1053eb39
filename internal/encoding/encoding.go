// Package encoding implements the symbol-by-symbol encoders PaSTRI uses
// for quantized error-correction values (ECQ), reproducing every encoding
// tree evaluated in Fig. 7 of the paper plus the plain fixed-length
// coder, and the sparse (index, value) representation the paper mentions
// in Sec. IV-C.
//
// All coders share the same contract: they encode a block of int64
// quanta given the block's maximum bin number ECb_max (the number of
// bits of the widest value present, per Fig. 6's bin convention), and
// decode a block of n quanta back as its nonzero list: the ascending
// positions of the nonzero quanta and their values (DecodeList,
// DecodeSparseList). Per the paper, ECb_max is stored in the block
// header by the caller, so coders may rely on it.
//
// Tree shapes (leaf codes):
//
//	Fixed : every value in ECb_max two's-complement bits
//	Tree 1: 0 → "0";  v → "1" + v in ECb_max bits
//	Tree 2: 0 → "0";  1 → "10";  −1 → "110";  v → "111" + v in ECb_max bits
//	Tree 3: 0 → "0";  v → "10" + v in ECb_max bits;  1 → "110";  −1 → "111"
//	Tree 4: bin-indexed: bin 1 (0) → "0"; bin i → (i−1)·"1"+"0" + (i−1)
//	        payload bits selecting among the 2^(i−1) members of bin i
//	Tree 5: if ECb_max == 2: 0 → "0", 1 → "10", −1 → "11"; else Tree 3
//
// Tree 5 is PaSTRI's shipped encoder: the adaptive behaviour gives the
// best compression ratio in the paper (18.13 vs 17.60–17.99).
package encoding

import (
	"fmt"

	"repro/internal/bitio"
	"repro/internal/quant"
)

// Method identifies an ECQ encoding algorithm.
type Method int

// The encoders evaluated in Fig. 7, plus the fixed-length baseline.
const (
	Fixed Method = iota
	Tree1
	Tree2
	Tree3
	Tree4
	Tree5 // PaSTRI's default (adaptive)
)

// Methods lists all coders in presentation order.
var Methods = []Method{Fixed, Tree1, Tree2, Tree3, Tree4, Tree5}

// String returns a short name for the method.
func (m Method) String() string {
	switch m {
	case Fixed:
		return "Fixed"
	case Tree1:
		return "Tree1"
	case Tree2:
		return "Tree2"
	case Tree3:
		return "Tree3"
	case Tree4:
		return "Tree4"
	case Tree5:
		return "Tree5"
	}
	return fmt.Sprintf("Method(%d)", int(m))
}

// zeroRunLen returns the number of consecutive zeros in vals starting
// at i. The tree coders spend one bit per zero, so a run of k zeros is
// exactly k zero bits — emitted in word-sized chunks by writeZeroRun.
func zeroRunLen(vals []int64, i int) int {
	j := i
	for j < len(vals) && vals[j] == 0 {
		j++
	}
	return j - i
}

// writeZeroRun emits k zero bits in at most k/64+1 WriteBits calls.
func writeZeroRun(w *bitio.Writer, k int) {
	for ; k >= 64; k -= 64 {
		w.WriteBits(0, 64)
	}
	if k > 0 {
		w.WriteBits(0, uint(k))
	}
}

// Encode writes vals using method m. ecbMax must be ≥ the bin number
// (quant.BitsForValue) of every value; the same ecbMax must be passed to
// DecodeList. Every branch batches: runs of zero-valued symbols collapse to
// word-sized zero writes and each code+payload pair that fits 64 bits is
// a single WriteBits call, producing the same bitstream as the
// symbol-at-a-time reference coder.
//
//pastri:hotpath
func Encode(w *bitio.Writer, vals []int64, ecbMax uint, m Method) {
	switch m {
	case Fixed:
		for _, v := range vals {
			w.WriteSigned(v, ecbMax)
		}
	case Tree1:
		for i := 0; i < len(vals); {
			if k := zeroRunLen(vals, i); k > 0 {
				writeZeroRun(w, k)
				i += k
				continue
			}
			emitTree1Value(w, vals[i], ecbMax)
			i++
		}
	case Tree2:
		for i := 0; i < len(vals); {
			if k := zeroRunLen(vals, i); k > 0 {
				writeZeroRun(w, k)
				i += k
				continue
			}
			emitTree2Value(w, vals[i], ecbMax)
			i++
		}
	case Tree3:
		encodeTree3(w, vals, ecbMax)
	case Tree4:
		for i := 0; i < len(vals); {
			// A zero is bin 1 = a lone stop bit, so zero runs batch here
			// exactly as in the binary trees.
			if k := zeroRunLen(vals, i); k > 0 {
				writeZeroRun(w, k)
				i += k
				continue
			}
			encodeTree4Value(w, vals[i])
			i++
		}
	case Tree5:
		if ecbMax <= 2 {
			for i := 0; i < len(vals); {
				if k := zeroRunLen(vals, i); k > 0 {
					writeZeroRun(w, k)
					i += k
					continue
				}
				emitTree5NarrowValue(w, vals[i])
				i++
			}
		} else {
			encodeTree3(w, vals, ecbMax)
		}
	default:
		panic(fmt.Sprintf("encoding: unknown method %v", m)) //lint:nopanic-ok unreachable: the Method switch above is exhaustive
	}
}

//pastri:hotpath
func encodeTree3(w *bitio.Writer, vals []int64, ecbMax uint) {
	for i := 0; i < len(vals); {
		if k := zeroRunLen(vals, i); k > 0 {
			writeZeroRun(w, k)
			i += k
			continue
		}
		emitTree3Value(w, vals[i], ecbMax)
		i++
	}
}

// encodeTree4Value writes one value with the bin-unary Tree 4 code. Bin i
// holds 2^(i−1) values: bin 1 = {0}, bin 2 = {−1, 1}, bin i = ±[2^(i−2),
// 2^(i−1)−1]. The payload index is (|v| − 2^(i−2))·2 + sign for i ≥ 3.
// Codes up to bin 32 (unary prefix + payload ≤ 63 bits) are emitted as a
// single WriteBits pattern.
//
//pastri:hotpath
func encodeTree4Value(w *bitio.Writer, v int64) {
	bin := quant.BitsForValue(v)
	switch {
	case bin == 1:
		w.WriteBit(0)
	case bin == 2:
		// "10" + sign bit in one go.
		if v == 1 {
			w.WriteBits(0b100, 3)
		} else {
			w.WriteBits(0b101, 3)
		}
	default:
		abs := v
		sign := uint64(0)
		if v < 0 {
			abs = -v
			sign = 1
		}
		lo := int64(1) << (bin - 2) //lint:shiftwidth-ok bin = BitsForValue(v) <= 65 by construction, so bin-2 <= 63
		payload := uint64(abs-lo)<<1 | sign
		if bin <= 32 {
			// (bin-1 ones + stop bit) then bin-1 payload bits: 2·bin-1 <= 63
			// bits total, one call.
			prefix := (uint64(1)<<(bin-1) - 1) << 1
			w.WriteBits(prefix<<(bin-1)|payload, 2*bin-1)
		} else {
			w.WriteUnary(bin - 1)
			w.WriteBits(payload, bin-1)
		}
	}
}

// CostBits returns the exact number of bits Encode would produce, without
// encoding. Used for the per-block method selection and for the sparse
// vs. dense decision.
func CostBits(vals []int64, ecbMax uint, m Method) uint64 {
	var bits uint64
	switch m {
	case Fixed:
		return uint64(len(vals)) * uint64(ecbMax)
	case Tree1:
		for _, v := range vals {
			if v == 0 {
				bits++
			} else {
				bits += 1 + uint64(ecbMax)
			}
		}
	case Tree2:
		for _, v := range vals {
			switch v {
			case 0:
				bits++
			case 1:
				bits += 2
			case -1:
				bits += 3
			default:
				bits += 3 + uint64(ecbMax)
			}
		}
	case Tree3:
		for _, v := range vals {
			switch v {
			case 0:
				bits++
			case 1, -1:
				bits += 3
			default:
				bits += 2 + uint64(ecbMax)
			}
		}
	case Tree4:
		for _, v := range vals {
			bin := quant.BitsForValue(v)
			bits += uint64(bin) // unary bin-1 ones + stop bit
			if bin >= 2 {
				bits += uint64(bin - 1)
			}
		}
	case Tree5:
		if ecbMax <= 2 {
			for _, v := range vals {
				if v == 0 {
					bits++
				} else {
					bits += 2
				}
			}
		} else {
			return CostBits(vals, ecbMax, Tree3)
		}
	default:
		panic(fmt.Sprintf("encoding: unknown method %v", m)) //lint:nopanic-ok unreachable: the Method switch above is exhaustive
	}
	return bits
}

// SparseCostBits returns the bits a sparse (index, value) representation
// of vals would need: a count field plus, per nonzero, an index of
// idxBits bits and a value of ecbMax bits. countBits must be wide enough
// for len(vals).
func SparseCostBits(vals []int64, ecbMax, idxBits, countBits uint) uint64 {
	nnz := uint64(0)
	for _, v := range vals {
		if v != 0 {
			nnz++
		}
	}
	return uint64(countBits) + nnz*uint64(idxBits+ecbMax)
}

// EncodeSparse writes vals as (count, then per-nonzero index+value).
// When index and value fit one word together they go out as a single
// WriteBits pattern.
//
//pastri:hotpath
func EncodeSparse(w *bitio.Writer, vals []int64, ecbMax, idxBits, countBits uint) {
	nnz := uint64(0)
	for _, v := range vals {
		if v != 0 {
			nnz++
		}
	}
	w.WriteBits(nnz, countBits)
	if idxBits+ecbMax <= 64 && ecbMax < 64 {
		for i, v := range vals {
			if v != 0 {
				w.WriteBits(uint64(i)<<ecbMax|uint64(v)&((1<<ecbMax)-1), idxBits+ecbMax) //lint:shiftwidth-ok ecbMax < 64 by the branch condition
			}
		}
		return
	}
	for i, v := range vals {
		if v != 0 {
			w.WriteBits(uint64(i), idxBits)
			w.WriteSigned(v, ecbMax)
		}
	}
}

// IndexBits returns the number of bits needed to address n positions.
func IndexBits(n int) uint {
	if n <= 1 {
		return 1
	}
	b := uint(0)
	for m := n - 1; m > 0; m >>= 1 {
		b++
	}
	return b
}
