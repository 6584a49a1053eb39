package encoding

import (
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/bitio"
)

// List decoding API, the mirror of EncodeList and EncodeSparseList. A
// block's quanta come back as the compact list of its nonzero entries
// (ascending block positions and their values), which is all a
// reconstruction needs: the zeros are the gaps between positions.
//
// The shipped Tree 5 / Tree 3 codes decode from a register window
// (bitio.Reader.Window): a run of zero symbols is one LeadingZeros64,
// a nonzero code is recognized from the window's top bits with one
// peek, and the end of the stream is only checked when the window is
// refilled. Every other method, codes too wide for the window, and the
// last bytes of a stream (where a refill cannot promise a whole
// codeword) go through decodeSlow, one code at a time. Both read
// exactly the bits the symbol-at-a-time decoder reads, so a short or
// corrupt stream fails wherever that decoder fails.

// ErrSparseOrder reports a sparse block whose positions are not
// strictly increasing. The encoders write them in ascending order
// only, so a repeated or out-of-order position is corrupt input.
var ErrSparseOrder = errors.New("encoding: sparse positions not strictly increasing")

// maxWindowECb is the widest ECb_max the window decoder handles: its
// longest codeword, "10" plus the value, must fit the 57 bits a
// refilled bitio window is guaranteed to hold.
const maxWindowECb = 55

// DecodeList reads one block of n quanta written by Encode or EncodeList
// with the same method and ecbMax. It stores the positions of the
// nonzero quanta in idxs and their values in vals, in ascending
// position order, and returns how many there are. idxs and vals must
// have room for n entries. A code that decodes to 0 (no encoder writes
// one) is a zero quantum and is not listed.
//
//pastri:hotpath
func DecodeList(r *bitio.Reader, idxs []int32, vals []int64, n int, ecbMax uint, m Method) (int, error) {
	idxs, vals = idxs[:n], vals[:n]
	switch {
	case m < Fixed || m > Tree5:
		return 0, fmt.Errorf("encoding: unknown method %v", m)
	case (m == Tree3 || m == Tree5) && ecbMax <= maxWindowECb:
		return decodeTreeWindow(r, idxs, vals, n, ecbMax, m)
	}
	return decodeSlow(r, idxs, vals, 0, 0, n, ecbMax, m)
}

// decodeTreeWindow decodes Tree 3 codes, or narrow Tree 5 codes when m
// is Tree5 and ecbMax <= 2, from a register window. Throughout, win
// holds avail valid stream bits left-aligned (zeros below them), and
// used bits have been decoded since the last refill. A symbol is
// classified from the window's top bits before the valid count is
// checked: a code never spans fewer bits than its prefix, so when it
// fits, every bit inspected was valid. The window is refilled only
// when the symbol at hand does not fit.
//
//pastri:hotpath
func decodeTreeWindow(r *bitio.Reader, idxs []int32, vals []int64, n int, ecbMax uint, m Method) (int, error) {
	narrow := m == Tree5 && ecbMax <= 2
	longest := 2 + ecbMax // "10" + value
	if narrow {
		longest = 2
	}
	vshift := (64 - ecbMax) & 63 // the mask lets the compiler drop the over-wide-shift guard
	win, avail := r.Window(0)
	used := uint(0)
	i, k := 0, 0
	for i < n {
		var v int64
		c := uint(2)
		switch z := uint(bits.LeadingZeros64(win)); {
		case z != 0:
			// A run of zero symbols, one zero bit each. Bits past
			// avail read as zero, so the count is clamped to it.
			if z = min(z, avail, uint(n-i)); z != 0 {
				win <<= z //lint:shiftwidth-ok z <= avail <= 64; a shift by 64 empties the window, as it should
				avail -= z
				used += z
				i += int(z)
				continue
			}
			c = 1 // the window is empty: refill
		case narrow: // "10" is +1, "11" is -1
			v = 1 - 2*int64(win>>62&1)
		case win>>62 == 0b10: // "10" + value
			v, c = int64(win<<2)>>vshift, longest //lint:shiftwidth-ok vshift is masked to [0,63] above
		default: // "110" is +1, "111" is -1
			v, c = 1-2*int64(win>>61&1), 3
		}
		if c > avail {
			win, avail = r.Window(used)
			used = 0
			if avail < longest {
				// The stream ends within one codeword's reach.
				return decodeSlow(r, idxs, vals, i, k, n, ecbMax, m)
			}
			continue
		}
		win <<= c //lint:shiftwidth-ok c <= avail <= 64 by the check above; c <= 57 in fact
		avail -= c
		used += c
		if v != 0 {
			idxs[k], vals[k] = int32(i), v
			k++
		}
		i++
	}
	r.Window(used)
	return k, nil
}

// decodeSlow decodes symbols i..n-1 one code at a time through the
// Reader's per-call methods, listing nonzeros from entry k on.
func decodeSlow(r *bitio.Reader, idxs []int32, vals []int64, i, k, n int, ecbMax uint, m Method) (int, error) {
	for i < n {
		if m != Fixed {
			// Under every tree code a zero symbol is one zero bit.
			if i += int(r.ReadZeroRun(uint(n - i))); i == n {
				break
			}
		}
		v, err := readSymbol(r, ecbMax, m)
		if err != nil {
			return 0, err
		}
		if v != 0 {
			idxs[k], vals[k] = int32(i), v
			k++
		}
		i++
	}
	return k, nil
}

// readSymbol reads one symbol's code. Under the tree codes the zero run
// before it has been consumed, so the code starts with a one bit.
func readSymbol(r *bitio.Reader, ecbMax uint, m Method) (int64, error) {
	switch m {
	case Fixed:
		return r.ReadSigned(ecbMax)
	case Tree4:
		return decodeTree4Value(r)
	}
	if _, err := r.ReadBit(); err != nil { // the leading "1"
		return 0, err
	}
	if m == Tree1 { // "1" + value
		return r.ReadSigned(ecbMax)
	}
	b, err := r.ReadBit()
	if err != nil {
		return 0, err
	}
	switch {
	case m == Tree5 && ecbMax <= 2: // "10" is +1, "11" is -1
		return 1 - 2*int64(b), nil
	case m == Tree2: // "10" is +1, "110" is -1, "111" + value
		if b == 0 {
			return 1, nil
		}
		if b, err = r.ReadBit(); err != nil {
			return 0, err
		}
		if b == 0 {
			return -1, nil
		}
		return r.ReadSigned(ecbMax)
	}
	// Tree 3 and wide Tree 5: "10" + value, "110" is +1, "111" is -1.
	if b == 0 {
		return r.ReadSigned(ecbMax)
	}
	if b, err = r.ReadBit(); err != nil {
		return 0, err
	}
	return 1 - 2*int64(b), nil
}

// decodeTree4Value reads one Tree 4 code: the bin in unary, then the
// bin's payload (see encodeTree4Value).
func decodeTree4Value(r *bitio.Reader) (int64, error) {
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

// DecodeSparseList reads the sparse representation of a block of n
// quanta (written by EncodeSparse or EncodeSparseList) into the same
// (position, value) list DecodeList returns. Positions must be
// strictly increasing, the only order the encoders write; anything
// else fails with ErrSparseOrder. idxs and vals must have room for n
// entries.
//
//pastri:hotpath
func DecodeSparseList(r *bitio.Reader, idxs []int32, vals []int64, n int, ecbMax, idxBits, countBits uint) (int, error) {
	idxs, vals = idxs[:n], vals[:n]
	cnt, err := r.ReadBits(countBits)
	if err != nil {
		return 0, err
	}
	if cnt > uint64(n) {
		return 0, fmt.Errorf("encoding: sparse count %d exceeds block size %d", cnt, n)
	}
	k := 0
	next := uint64(0) // the lowest position the next entry may name
	for j := uint64(0); j < cnt; j++ {
		idx, err := r.ReadBits(idxBits)
		if err != nil {
			return 0, err
		}
		if idx >= uint64(n) {
			return 0, fmt.Errorf("encoding: sparse index %d out of range %d", idx, n)
		}
		if idx < next {
			return 0, fmt.Errorf("%w: index %d after index %d", ErrSparseOrder, idx, next-1)
		}
		next = idx + 1
		v, err := r.ReadSigned(ecbMax)
		if err != nil {
			return 0, err
		}
		if v != 0 {
			idxs[k], vals[k] = int32(idx), v
			k++
		}
	}
	return k, nil
}
