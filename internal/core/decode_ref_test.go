package core

import (
	"fmt"

	"repro/internal/bitio"
	"repro/internal/encoding"
	"repro/internal/quant"
)

// The staged dense block decoder, kept as the oracle for the fused
// DecodeBlock (FuzzDecodeBlock, TestDecodeBlockMatchesReference). It
// tree-decodes every quantum, zeros included, into a dense arena and
// reconstructs each value as sHat·pHat[i] + Dequantize(q). The code is
// the decoder as it stood before the fused one replaced it, with one
// deliberate change: refDecodeSparse rejects sparse positions that are
// not strictly increasing, the rule DecodeSparseList enforces.

// refDecodeBlock decodes one block like BlockDecoder.DecodeBlock,
// allocating its scratch per call.
func refDecodeBlock(cfg Config, r *bitio.Reader, dst []float64) error {
	pq, sq := make([]int64, cfg.SBSize), make([]int64, cfg.NumSB)
	ecq, pHat := make([]int64, cfg.BlockSize()), make([]float64, cfg.SBSize)
	if len(dst) != cfg.BlockSize() {
		return fmt.Errorf("core: dst has %d points, config wants %d", len(dst), cfg.BlockSize())
	}
	pbRaw, err := r.ReadBits(pbFieldBits)
	if err != nil {
		return err
	}
	pb := uint(pbRaw) + 1
	ecbRaw, err := r.ReadBits(ecbMaxFieldBits)
	if err != nil {
		return err
	}
	ecbMax := uint(ecbRaw)
	if ecbMax == 0 || ecbMax > 63 {
		return fmt.Errorf("core: corrupt block header: ECbMax=%d", ecbMax)
	}

	for i := range pq {
		q, err := r.ReadSigned(pb)
		if err != nil {
			return err
		}
		pq[i] = q
	}
	sb := pb
	for s := range sq {
		q, err := r.ReadSigned(sb)
		if err != nil {
			return err
		}
		sq[s] = q
	}
	if ecbMax > 1 {
		sparse, err := r.ReadBit()
		if err != nil {
			return err
		}
		idxBits := encoding.IndexBits(cfg.BlockSize())
		countBits := encoding.IndexBits(cfg.BlockSize() + 1)
		if sparse == 1 {
			if err := refDecodeSparse(r, ecq, ecbMax, idxBits, countBits); err != nil {
				return err
			}
		} else {
			if err := refDecode(r, ecq, ecbMax, cfg.Encoding); err != nil {
				return err
			}
		}
	} else {
		for i := range ecq {
			ecq[i] = 0
		}
	}

	eb := cfg.ErrorBound
	pBin := 2 * eb
	sBin := quant.ScaleBinSize(sb)
	ecBin := 2 * eb
	for i := range pHat {
		pHat[i] = quant.Dequantize(pq[i], pBin)
	}
	for s := 0; s < cfg.NumSB; s++ {
		sHat := quant.Dequantize(sq[s], sBin)
		base := s * cfg.SBSize
		for i := 0; i < cfg.SBSize; i++ {
			dst[base+i] = sHat*pHat[i] + quant.Dequantize(ecq[base+i], ecBin)
		}
	}
	return nil
}

// refReadZeros consumes a run of zero-valued symbols (one zero bit each)
// into dst[i:], returning the new index. The next bit in the stream, if
// any, is a one: the start of a nonzero symbol.
func refReadZeros(r *bitio.Reader, dst []int64, i int) int {
	k := int(r.ReadZeroRun(uint(len(dst) - i)))
	for j := 0; j < k; j++ {
		dst[i+j] = 0
	}
	return i + k
}

// refDecode reads len(dst) values previously written by encoding.Encode
// with the same method and ecbMax.
func refDecode(r *bitio.Reader, dst []int64, ecbMax uint, m encoding.Method) error {
	switch m {
	case encoding.Fixed:
		for i := range dst {
			v, err := r.ReadSigned(ecbMax)
			if err != nil {
				return err
			}
			dst[i] = v
		}
	case encoding.Tree1:
		for i := 0; i < len(dst); {
			if i = refReadZeros(r, dst, i); i == len(dst) {
				break
			}
			if _, err := r.ReadBit(); err != nil { // the "1" marker
				return err
			}
			v, err := r.ReadSigned(ecbMax)
			if err != nil {
				return err
			}
			dst[i] = v
			i++
		}
	case encoding.Tree2:
		for i := 0; i < len(dst); {
			if i = refReadZeros(r, dst, i); i == len(dst) {
				break
			}
			if _, err := r.ReadBit(); err != nil { // the leading "1"
				return err
			}
			b, err := r.ReadBit()
			if err != nil {
				return err
			}
			if b == 0 {
				dst[i] = 1
				i++
				continue
			}
			b, err = r.ReadBit()
			if err != nil {
				return err
			}
			if b == 0 {
				dst[i] = -1
				i++
				continue
			}
			v, err := r.ReadSigned(ecbMax)
			if err != nil {
				return err
			}
			dst[i] = v
			i++
		}
	case encoding.Tree3:
		return refDecodeTree3(r, dst, ecbMax)
	case encoding.Tree4:
		for i := 0; i < len(dst); {
			// Bin 1 is a lone zero bit, so zero runs batch here too.
			if i = refReadZeros(r, dst, i); i == len(dst) {
				break
			}
			v, err := refDecodeTree4Value(r)
			if err != nil {
				return err
			}
			dst[i] = v
			i++
		}
	case encoding.Tree5:
		if ecbMax <= 2 {
			for i := 0; i < len(dst); {
				if i = refReadZeros(r, dst, i); i == len(dst) {
					break
				}
				if _, err := r.ReadBit(); err != nil { // the leading "1"
					return err
				}
				b, err := r.ReadBit()
				if err != nil {
					return err
				}
				if b == 0 {
					dst[i] = 1
				} else {
					dst[i] = -1
				}
				i++
			}
			return nil
		}
		return refDecodeTree3(r, dst, ecbMax)
	default:
		return fmt.Errorf("encoding: unknown method %v", m)
	}
	return nil
}

func refDecodeTree3(r *bitio.Reader, dst []int64, ecbMax uint) error {
	for i := 0; i < len(dst); {
		if i = refReadZeros(r, dst, i); i == len(dst) {
			break
		}
		if _, err := r.ReadBit(); err != nil { // the leading "1"
			return err
		}
		b, err := r.ReadBit()
		if err != nil {
			return err
		}
		if b == 0 { // "10" + value
			v, err := r.ReadSigned(ecbMax)
			if err != nil {
				return err
			}
			dst[i] = v
			i++
			continue
		}
		b, err = r.ReadBit()
		if err != nil {
			return err
		}
		if b == 0 {
			dst[i] = 1
		} else {
			dst[i] = -1
		}
		i++
	}
	return nil
}

func refDecodeTree4Value(r *bitio.Reader) (int64, error) {
	n, err := r.ReadUnary()
	if err != nil {
		return 0, err
	}
	bin := n + 1
	switch {
	case bin == 1:
		return 0, nil
	case bin == 2:
		b, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		if b == 0 {
			return 1, nil
		}
		return -1, nil
	case bin > 64:
		return 0, fmt.Errorf("encoding: corrupt Tree4 bin %d", bin)
	default:
		payload, err := r.ReadBits(bin - 1)
		if err != nil {
			return 0, err
		}
		sign := payload & 1
		lo := int64(1) << (bin - 2)
		v := lo + int64(payload>>1)
		if sign == 1 {
			v = -v
		}
		return v, nil
	}
}

// refDecodeSparse reads a sparse representation into dst (which it
// zeroes first). It carries the format's ascending-position rule, which
// the dense scatter did not need but the list decoder enforces.
func refDecodeSparse(r *bitio.Reader, dst []int64, ecbMax, idxBits, countBits uint) error {
	for i := range dst {
		dst[i] = 0
	}
	nnz, err := r.ReadBits(countBits)
	if err != nil {
		return err
	}
	if nnz > uint64(len(dst)) {
		return fmt.Errorf("encoding: sparse count %d exceeds block size %d", nnz, len(dst))
	}
	var prev uint64
	for k := uint64(0); k < nnz; k++ {
		idx, err := r.ReadBits(idxBits)
		if err != nil {
			return err
		}
		if idx >= uint64(len(dst)) {
			return fmt.Errorf("encoding: sparse index %d out of range %d", idx, len(dst))
		}
		if k > 0 && idx <= prev {
			return fmt.Errorf("encoding: sparse index %d after index %d", idx, prev)
		}
		prev = idx
		v, err := r.ReadSigned(ecbMax)
		if err != nil {
			return err
		}
		dst[idx] = v
	}
	return nil
}
