package core

import (
	"context"
	"fmt"
	"log/slog"
	"math"

	"repro/internal/bitio"
	"repro/internal/encoding"
	"repro/internal/pattern"
	"repro/internal/quant"
	"repro/internal/telemetry"
	"repro/internal/telemetry/trace"
)

// Block bitstream layout (all fields bit-packed, MSB first):
//
//	Pb      6 bits   pattern/scale bit width − 1   (1..64)
//	ECbMax  6 bits   widest ECQ bin (1 ⇒ Type-0 block, no ECQ section)
//	PQ      SBSize × Pb bits (two's complement)
//	SQ      NumSB  × Pb bits (two's complement; S_b = P_b, Sec. IV-B)
//	[if ECbMax > 1]
//	  sparse 1 bit
//	  ECQ    dense: tree-coded; sparse: count + (index,value) pairs
//
// Everything else (EB, geometry, metric, encoding method) lives in the
// stream header; a block is decodable given the Config alone, which is
// what makes blocks independently (de)compressible in parallel.

const (
	pbFieldBits     = 6
	ecbMaxFieldBits = 6
)

// BlockEncoder compresses blocks one at a time, reusing scratch buffers.
// It is not safe for concurrent use; stream compression creates one per
// worker.
type BlockEncoder struct {
	cfg Config
	col *telemetry.Collector // from cfg; nil ⇒ no telemetry
	sp  *trace.Span          // from cfg; nil ⇒ no tracing
	// debugLog caches Logger.Enabled(Debug) at reset time so the
	// per-block gate is one boolean test, not an interface call.
	debugLog bool
	// scratch arenas, sized once in reset and reused for every block
	pq    []int64
	sq    []int64
	ecq   []int64
	nzIdx []int32 // fused path: block positions of nonzero ECQ, ascending
	nzQ   []int64 // fused path: the matching nonzero quanta
	pHat  []float64
	recon []float64 // flight-recorder capture arena; grown only when a recorder wants data
	pat   pattern.Scratch
	costs encoding.CostCounts // filled by analyze, priced in EncodeBlock
	stats *Stats              // optional, may be nil
}

// NewBlockEncoder returns an encoder for the given configuration.
func NewBlockEncoder(cfg Config) (*BlockEncoder, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e := &BlockEncoder{}
	e.reset(cfg)
	return e, nil
}

// reset re-points the encoder at cfg (which must already be validated)
// and sizes the scratch arenas, reusing their backing arrays when the
// geometry allows. The encoder pool uses this to recycle encoders
// across blocks and calls.
func (e *BlockEncoder) reset(cfg Config) {
	e.cfg = cfg
	e.col = cfg.Collector
	e.sp = cfg.Trace
	e.debugLog = logEnabled(cfg.Logger, slog.LevelDebug)
	e.stats = nil
	e.pq = growI64(e.pq, cfg.SBSize)
	e.sq = growI64(e.sq, cfg.NumSB)
	e.ecq = growI64(e.ecq, cfg.BlockSize())
	e.nzIdx = growI32(e.nzIdx, cfg.BlockSize())
	e.nzQ = growI64(e.nzQ, cfg.BlockSize())
	e.pHat = growFloat64(e.pHat, cfg.SBSize)
}

// growI64 returns s resized to n elements, reallocating only when the
// capacity is insufficient. Contents are unspecified.
func growI64(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n) //lint:hotalloc2-ok grow path: reallocates only until scratch reaches steady-state capacity
	}
	return s[:n]
}

func growI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n) //lint:hotalloc2-ok grow path: reallocates only until scratch reaches steady-state capacity
	}
	return s[:n]
}

func growFloat64(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n) //lint:hotalloc2-ok grow path: reallocates only until scratch reaches steady-state capacity
	}
	return s[:n]
}

// CollectStats attaches a Stats sink; pass nil to detach.
func (e *BlockEncoder) CollectStats(s *Stats) { e.stats = s }

// analyze runs the pattern-scaling and quantization stages
// (Sec. IV-A/IV-B) as one fused traversal: pattern fit into the
// encoder's scratch, pattern/scale quantization, and an error-correction
// pass that quantizes, tracks the widest bin and accumulates the cost
// counts for every encoding method (consumed by EncodeBlock) in a
// single scan. It fills the scratch buffers pq, sq and ecq, and returns
// the pattern/scale bit width P_b and the widest ECQ bin.
//
//pastri:hotpath
func (e *BlockEncoder) analyze(block []float64) (pb, ecbMax uint, err error) {
	cfg := e.cfg
	if len(block) != cfg.BlockSize() {
		return 0, 0, fmt.Errorf("core: block has %d points, config wants %d", len(block), cfg.BlockSize())
	}
	// 1. Pattern analysis (Sec. IV-A), writing into encoder-owned scratch.
	tFit := e.col.StageStart()
	spFit := e.sp.StartChild("pattern_fit")
	res, err := e.pat.Analyze(block, cfg.NumSB, cfg.SBSize, cfg.Metric)
	spFit.End()
	e.col.StageEnd(telemetry.StagePatternFit, tFit)
	if err != nil {
		return 0, 0, err
	}
	tQuant := e.col.StageStart()
	spQuant := e.sp.StartChild("quantize")
	pat := block[res.PatternIndex*cfg.SBSize : (res.PatternIndex+1)*cfg.SBSize]

	// 2. Quantize the pattern with Pbinsize = 2·EB (Sec. IV-B practical
	// method) and the scales with S_b = P_b.
	eb := cfg.ErrorBound
	pBin := 2 * eb
	pExt, _ := quant.MaxAbs(pat)
	pb = quant.PatternBits(pExt, eb)
	if pb > 64 {
		spQuant.End()
		return 0, 0, fmt.Errorf("core: pattern extremum %g needs %d bits at EB %g", pExt, pb, eb)
	}
	sb := pb
	sBin := quant.ScaleBinSize(sb)
	for i, p := range pat {
		e.pq[i] = quant.ClampSigned(quant.Quantize(p, pBin), pb)
	}
	for s, sc := range res.Scales {
		e.sq[s] = quant.ClampSigned(quant.Quantize(sc, sBin), sb)
	}

	// 3. Error correction against the *reconstructed* scaled pattern, so
	// the EC term absorbs the quantization error of P and S (eq. (11)).
	// The reconstructed pattern is hoisted out of the sub-block loop, and
	// the loop body feeds each quantum to the cost accumulator, whose
	// Observe returns the bin number — so quantization, ECb_max tracking
	// and method pricing all ride the same pass over the block.
	pHat := e.pHat[:cfg.SBSize]
	for i := range pHat {
		pHat[i] = quant.Dequantize(e.pq[i], pBin)
	}
	ecBin := 2 * eb
	// Most residuals quantize to zero (that is what makes ECQ compress),
	// and the divide in Quantize dominates this loop. A residual d with
	// |d| < 0.499·ecBin provably rounds to quantum 0: even after the two
	// roundings (the threshold multiply and Quantize's divide) the
	// quotient magnitude stays below 0.499·(1+2⁻⁵³)² < 0.5, so
	// math.Round yields ±0 and int64(±0) is 0 — byte-identical to the
	// slow path. Residuals in [0.499, 0.5)·ecBin just take the divide and
	// still produce 0. The margin argument assumes a normal-range
	// threshold, so absurdly tiny bins fall back to always dividing.
	zeroCut := 0.499 * ecBin
	if ecBin < 1e-300 {
		zeroCut = 0
	}
	ecbMax = 1
	e.costs.Reset()
	for s := 0; s < cfg.NumSB; s++ {
		sHat := quant.Dequantize(e.sq[s], sBin)
		base := s * cfg.SBSize
		sub := block[base : base+cfg.SBSize]
		out := e.ecq[base : base+cfg.SBSize]
		for i, x := range sub {
			d := x - sHat*pHat[i]
			var q int64
			if !(d < zeroCut && d > -zeroCut) {
				q = quant.Quantize(d, ecBin)
			}
			out[i] = q
			if b := e.costs.Observe(q); b > ecbMax {
				ecbMax = b
			}
		}
	}
	spQuant.End()
	e.col.StageEnd(telemetry.StageQuantize, tQuant)
	if ecbMax > 63 {
		return 0, 0, fmt.Errorf("core: ECQ needs %d bits; data range too wide for EB %g", ecbMax, eb)
	}
	return pb, ecbMax, nil
}

// ECQCodes exposes the quantized error-correction values and the widest
// bin a block would produce under this configuration — the raw material
// of the encoder-design analyses (Fig. 6 histograms, the Huffman
// comparison of Sec. IV-C). The returned slice is a copy.
func (e *BlockEncoder) ECQCodes(block []float64) ([]int64, uint, error) {
	_, ecbMax, err := e.analyze(block)
	if err != nil {
		return nil, 0, err
	}
	return append([]int64(nil), e.ecq...), ecbMax, nil
}

// EncodeBlock appends the compressed representation of block to w.
// len(block) must equal cfg.BlockSize().
//
// Two implementations produce the stream: the fused single-pass path
// (fused.go), which carries nonzero quanta as a compact list and never
// materializes dense ECQ scratch, and the staged reference path below,
// which writes every stage's output into scratch arenas before the
// next stage reads it. They are byte-identical — the goldens and
// TestFusedMatchesStaged are the oracle — and Config.DisableFused
// selects the staged one for A/B runs.
//
//pastri:hotpath
func (e *BlockEncoder) EncodeBlock(w *bitio.Writer, block []float64) error {
	if e.cfg.DisableFused {
		return e.encodeBlockStaged(w, block)
	}
	return e.encodeBlockFused(w, block)
}

// encodeBlockStaged is the staged reference encoder: analyze fills the
// pq/sq/ecq arenas, then the emission stage walks them. Kept verbatim
// as the semantic oracle for the fused path.
//
//pastri:hotpath
func (e *BlockEncoder) encodeBlockStaged(w *bitio.Writer, block []float64) error {
	cfg := e.cfg
	startBits := w.BitLen()
	pb, ecbMax, err := e.analyze(block)
	if err != nil {
		return err
	}
	tEnc := e.col.StageStart()
	spEnc := e.sp.StartChild("encode")

	// 4. Emit header fields.
	w.WriteBits(uint64(pb-1), pbFieldBits)
	w.WriteBits(uint64(ecbMax), ecbMaxFieldBits)

	// 5. Emit PQ and SQ fixed-length.
	for _, q := range e.pq {
		w.WriteSigned(q, pb)
	}
	sqStart := w.BitLen()
	for _, q := range e.sq {
		w.WriteSigned(q, pb) // S_b = P_b (Sec. IV-B)
	}
	ecqStart := w.BitLen()

	// 6. Emit ECQ: Type-0 blocks (all quanta zero) spend no bits at all;
	// otherwise pick sparse or dense representation by exact cost.
	usedSparse := false
	if ecbMax > 1 {
		idxBits := encoding.IndexBits(cfg.BlockSize())
		countBits := encoding.IndexBits(cfg.BlockSize() + 1)
		// The cost counts were accumulated during analyze's quantization
		// pass; pricing every method is O(1) algebra from here.
		set := e.costs.CostSet(ecbMax, idxBits, countBits)
		dense := set.Bits(cfg.Encoding)
		sparse := set.Sparse
		if !cfg.DisableSparse && sparse < dense {
			usedSparse = true
			w.WriteBit(1)
			encoding.EncodeSparse(w, e.ecq, ecbMax, idxBits, countBits)
		} else {
			w.WriteBit(0)
			encoding.Encode(w, e.ecq, ecbMax, cfg.Encoding)
		}
	}

	spEnc.End()
	e.col.StageEnd(telemetry.StageEncode, tEnc)

	if e.stats != nil {
		e.stats.recordBlock(e.ecq, ecbMax,
			sqStart-startBits-uint64(pbFieldBits+ecbMaxFieldBits), // PQ bits
			ecqStart-sqStart,    // SQ bits
			w.BitLen()-ecqStart, // ECQ bits
			uint64(pbFieldBits+ecbMaxFieldBits), usedSparse)
	}
	if e.col.Enabled() || e.debugLog {
		kind := telemetry.EncType0
		if ecbMax > 1 {
			if usedSparse {
				kind = telemetry.EncSparse
			} else {
				kind = telemetry.EncDense
			}
		}
		e.recordTrace(block, pb, ecbMax, w.BitLen()-startBits, kind)
	}
	return nil
}

// recordTrace computes the per-block trace record — exponent span,
// chosen encoding, ECQ summary, bytes in/out and error-bound slack —
// and hands it to the collector. Only called when a collector is
// attached; the slack recomputation reuses the scratch buffers analyze
// just filled (pq via pHat, sq, ecq), so it costs one extra pass over
// the block. When an attached flight recorder wants block data, the
// same pass also materializes the reconstruction into the recon arena
// so an anomaly can be captured for offline zcheck replay.
func (e *BlockEncoder) recordTrace(block []float64, pb, ecbMax uint, payloadBits uint64, kind telemetry.BlockEncoding) {
	cfg := e.cfg
	minExp, maxExp, seen := 0, 0, false
	ecqNonZero := 0
	for _, v := range block {
		if v == 0 { //lint:floatcmp-ok exact zero test selects values that have a binary exponent
			continue
		}
		exp := quant.Exponent(v) // math.Frexp's exponent, without the split
		if !seen {
			minExp, maxExp, seen = exp, exp, true
		} else if exp < minExp {
			minExp = exp
		} else if exp > maxExp {
			maxExp = exp
		}
	}
	for _, q := range e.ecq {
		if q != 0 {
			ecqNonZero++
		}
	}
	wantData := e.col.FlightWantsData()
	var recon []float64
	if wantData {
		// Grown only on the flight-recorder path so the default
		// telemetry path stays allocation-free after warmup.
		e.recon = growFloat64(e.recon, cfg.BlockSize())
		recon = e.recon
	}
	eb := cfg.ErrorBound
	sBin := quant.ScaleBinSize(pb) // S_b = P_b
	ecBin := 2 * eb
	pHat := e.pHat[:cfg.SBSize]
	maxRes := 0.0
	for s := 0; s < cfg.NumSB; s++ {
		sHat := quant.Dequantize(e.sq[s], sBin)
		base := s * cfg.SBSize
		for i := 0; i < cfg.SBSize; i++ {
			rec := sHat*pHat[i] + quant.Dequantize(e.ecq[base+i], ecBin)
			if recon != nil {
				recon[base+i] = rec
			}
			if r := math.Abs(block[base+i] - rec); r > maxRes {
				maxRes = r
			}
		}
	}
	id := e.col.RecordBlockData(telemetry.TraceRecord{
		SubBlocks:  cfg.NumSB,
		ExpSpan:    maxExp - minExp,
		Encoding:   kind,
		BytesIn:    len(block) * 8,
		BytesOut:   int((payloadBits + 7) / 8),
		EBSlack:    eb - maxRes,
		ECQNonZero: ecqNonZero,
		ECbMax:     int(ecbMax),
	}, block, recon)
	if e.debugLog {
		e.cfg.Logger.LogAttrs(context.Background(), slog.LevelDebug, "block compressed",
			slog.Uint64("block", id),
			slog.String("class", quartetClass(cfg.NumSB, cfg.SBSize)),
			slog.String("encoding", kind.String()),
			slog.Int("bytes_in", len(block)*8),
			slog.Int("bytes_out", int((payloadBits+7)/8)),
			slog.Float64("eb_slack", eb-maxRes),
			slog.Int("ecq_nonzero", ecqNonZero),
			slog.Int("ecb_max", int(ecbMax)))
	}
}

// BlockDecoder decompresses blocks, reusing scratch buffers. Not safe for
// concurrent use.
type BlockDecoder struct {
	cfg   Config
	col   *telemetry.Collector // from cfg; nil ⇒ no telemetry
	pq    []int64
	sq    []int64
	nzIdx []int32 // block positions of the nonzero ECQ, ascending
	nzQ   []int64 // the matching nonzero quanta
	pHat  []float64
}

// NewBlockDecoder returns a decoder for the given configuration.
func NewBlockDecoder(cfg Config) (*BlockDecoder, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d := &BlockDecoder{}
	d.reset(cfg)
	return d, nil
}

// reset re-points the decoder at cfg (which must already be validated),
// sizing the scratch arenas and reusing backing arrays when possible.
func (d *BlockDecoder) reset(cfg Config) {
	d.cfg = cfg
	d.col = cfg.Collector
	d.pq = growI64(d.pq, cfg.SBSize)
	d.sq = growI64(d.sq, cfg.NumSB)
	d.nzIdx = growI32(d.nzIdx, cfg.BlockSize())
	d.nzQ = growI64(d.nzQ, cfg.BlockSize())
	d.pHat = growFloat64(d.pHat, cfg.SBSize)
}

// DecodeBlock reads one block from r into dst, which must have
// cfg.BlockSize() elements.
//
// It is the decode half of the fused path. The ECQ section comes back
// from encoding.DecodeList / DecodeSparseList as the list of nonzero
// quanta, never as a dense slice, and reconstruction takes two passes
// over dst: every value gets sHat·pHat[i] + 0, then each listed value
// gets its float64(q)·2EB added. That is bit-identical to adding the
// dequantized quantum everywhere: at a zero quantum the old addend was
// +0, and x + 0 turns −0 into +0 and leaves every other x alone, so
// the first pass stores exactly the old sum; at a nonzero quantum x + 0
// changes x at most from −0 to +0, which does not change x + y for any
// y ≠ 0, so the second pass rounds once to the old sum.
//
//pastri:hotpath
func (d *BlockDecoder) DecodeBlock(r *bitio.Reader, dst []float64) error {
	cfg := d.cfg
	n := cfg.BlockSize()
	if len(dst) != n {
		return fmt.Errorf("core: dst has %d points, config wants %d", len(dst), n)
	}
	tDec := d.col.StageStart()
	defer d.col.StageEnd(telemetry.StageDecode, tDec)
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
	sb := pb
	if err := r.ReadSignedN(d.pq, pb); err != nil {
		return err
	}
	if err := r.ReadSignedN(d.sq, sb); err != nil {
		return err
	}
	nnz := 0 // Type-0 blocks (ECbMax 1) carry no ECQ section
	if ecbMax > 1 {
		sparse, err := r.ReadBit()
		if err != nil {
			return err
		}
		if sparse == 1 {
			idxBits := encoding.IndexBits(n)
			countBits := encoding.IndexBits(n + 1)
			nnz, err = encoding.DecodeSparseList(r, d.nzIdx, d.nzQ, n, ecbMax, idxBits, countBits)
		} else {
			nnz, err = encoding.DecodeList(r, d.nzIdx, d.nzQ, n, ecbMax, cfg.Encoding)
		}
		if err != nil {
			return err
		}
	}

	eb := cfg.ErrorBound
	pBin := 2 * eb
	sBin := quant.ScaleBinSize(sb)
	ecBin := 2 * eb
	pHat := d.pHat[:cfg.SBSize]
	for i := range pHat {
		pHat[i] = quant.Dequantize(d.pq[i], pBin)
	}
	for s := 0; s < cfg.NumSB; s++ {
		sHat := quant.Dequantize(d.sq[s], sBin)
		out := dst[s*cfg.SBSize:][:len(pHat)] // the length lets the compiler drop the bounds check
		for i, p := range pHat {
			out[i] = sHat*p + 0 // + 0 canonicalizes −0 (see above)
		}
	}
	q := d.nzQ[:nnz]
	for k, idx := range d.nzIdx[:nnz] {
		dst[idx] += quant.Dequantize(q[k], ecBin)
	}
	return nil
}

// MaxBlockError returns the worst-case reconstruction error the codec can
// introduce for the given configuration: exactly EB (up to floating-point
// rounding in the reconstruction arithmetic).
func MaxBlockError(cfg Config) float64 {
	// One mid-tread quantization of the EC residual with bin 2·EB.
	return cfg.ErrorBound * (1 + 4*math.Nextafter(1, 2) - 4)
}
