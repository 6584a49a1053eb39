package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/bitio"
	"repro/internal/encoding"
	"repro/internal/telemetry"
)

// Tests of the fused DecodeBlock against the dense reference decoder
// (decode_ref_test.go): same error-vs-success verdict on any payload,
// bit-identical values on success.

// ECQ section kinds a block payload can carry.
const (
	kindType0  = "type0"  // ECbMax 1: no ECQ section
	kindSparse = "sparse" // (count, index, value) list
	kindNarrow = "narrow" // dense, ECbMax 2
	kindWide   = "wide"   // dense, ECbMax >= 3
)

var blockKinds = []string{kindType0, kindSparse, kindNarrow, kindWide}

// payloadKind reads a block payload's header and sparse flag.
func payloadKind(cfg Config, payload []byte) (string, error) {
	r := bitio.NewReader(payload)
	pbRaw, err := r.ReadBits(pbFieldBits)
	if err != nil {
		return "", err
	}
	ecbMax, err := r.ReadBits(ecbMaxFieldBits)
	if err != nil {
		return "", err
	}
	if ecbMax <= 1 {
		return kindType0, nil
	}
	if err := r.ReadSignedN(make([]int64, cfg.SBSize+cfg.NumSB), uint(pbRaw+1)); err != nil {
		return "", err
	}
	sparse, err := r.ReadBit()
	switch {
	case err != nil:
		return "", err
	case sparse == 1:
		return kindSparse, nil
	case ecbMax == 2:
		return kindNarrow, nil
	}
	return kindWide, nil
}

// kindPayloads encodes candidate blocks under cfg until it holds one
// payload of every block kind, and fails the test if some kind never
// shows up. Candidates sweep noise relative to the error bound (from
// none, giving Type-0 blocks, to many bins, giving wide codes) and add
// lone outliers, which price sparse below dense.
func kindPayloads(t testing.TB, cfg Config) map[string][]byte {
	t.Helper()
	enc, err := NewBlockEncoder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	eb := cfg.ErrorBound
	out := map[string][]byte{}
	for try := 0; try < 400 && len(out) < len(blockKinds); try++ {
		noise := []float64{0, 0.3 * eb, 0.7 * eb, eb, 4 * eb, 1e3 * eb}[try%6]
		block := patternedBlock(rng, cfg.NumSB, cfg.SBSize, 1e4*eb, noise, 0)
		if try%12 >= 6 {
			// Round the block onto the pattern's own grid first, so only
			// the outliers below leave a residual.
			block = patternedBlock(rng, cfg.NumSB, cfg.SBSize, 0.1*eb, 0, 0)
			for j := 0; j <= try%3; j++ {
				block[rng.Intn(len(block))] += float64(rng.Intn(1<<20)) * eb
			}
		}
		w := bitio.NewWriter(0)
		if err := enc.EncodeBlock(w, block); err != nil {
			t.Fatal(err)
		}
		kind, err := payloadKind(cfg, w.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := out[kind]; !ok {
			out[kind] = append([]byte(nil), w.Bytes()...)
		}
	}
	for _, kind := range blockKinds {
		if out[kind] == nil {
			t.Fatalf("%v: no candidate block encodes as %s", cfg.Encoding, kind)
		}
	}
	return out
}

// decodeFuzzCase is one FuzzDecodeBlock seed: a config index and a
// block payload.
type decodeFuzzCase struct {
	cfg     uint8
	payload []byte
}

// decodeFuzzCorpus returns the configs FuzzDecodeBlock decodes under and
// its seeds: every block of every golden stream with all of its
// truncations, and one block of each kind under each of the six ECQ
// methods, also with all truncations.
func decodeFuzzCorpus(t testing.TB) ([]Config, []decodeFuzzCase) {
	t.Helper()
	var cfgs []Config
	var seeds []decodeFuzzCase
	addAll := func(c uint8, p []byte) {
		for cut := 0; cut <= len(p); cut++ {
			seeds = append(seeds, decodeFuzzCase{c, p[:cut]})
		}
	}
	golden := goldenStreamFiles(t)
	names := make([]string, 0, len(golden))
	for name := range golden {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		stream := golden[name]
		cfg, nblocks, off, err := ParseHeader(stream)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		spans, err := resolveSpans(stream, nblocks, off)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cfgs = append(cfgs, cfg)
		for _, sp := range spans {
			addAll(uint8(len(cfgs)-1), stream[sp.lo:sp.hi])
		}
	}
	for _, m := range encoding.Methods {
		cfg := Defaults(4, 12, 1e-10)
		cfg.Encoding = m
		cfgs = append(cfgs, cfg)
		payloads := kindPayloads(t, cfg)
		for _, kind := range blockKinds {
			addAll(uint8(len(cfgs)-1), payloads[kind])
		}
	}
	return cfgs, seeds
}

// decodeBothWays decodes payload with the fused and the reference
// decoder and reports any disagreement.
func decodeBothWays(cfg Config, payload []byte) error {
	n := cfg.BlockSize()
	got, want := make([]float64, n), make([]float64, n)
	dec, err := NewBlockDecoder(cfg)
	if err != nil {
		return err
	}
	errGot := dec.DecodeBlock(bitio.NewReader(payload), got)
	errWant := refDecodeBlock(cfg, bitio.NewReader(payload), want)
	if (errGot == nil) != (errWant == nil) {
		return fmt.Errorf("fused decoder error %v, reference error %v", errGot, errWant)
	}
	if errGot != nil {
		return nil
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("value %d: fused %x, reference %x", i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
	return nil
}

// FuzzDecodeBlock is the differential fuzzer of the fused block decoder:
// for any payload under any of the corpus configs it must agree with the
// dense reference on error vs success, and on success produce the same
// bits.
func FuzzDecodeBlock(f *testing.F) {
	cfgs, seeds := decodeFuzzCorpus(f)
	for _, s := range seeds {
		f.Add(s.cfg, s.payload)
	}
	f.Fuzz(func(t *testing.T, which uint8, payload []byte) {
		cfg := cfgs[int(which)%len(cfgs)]
		if err := decodeBothWays(cfg, payload); err != nil {
			t.Fatalf("%v (%d×%d, EB %g), %d-byte payload: %v",
				cfg.Encoding, cfg.NumSB, cfg.SBSize, cfg.ErrorBound, len(payload), err)
		}
	})
}

// TestDecodeBlockCanonicalZero: where the scaled pattern is −0 (a zero
// pattern entry under a negative scale) and the quantum is zero, the
// dense decoder stored −0 + 0 = +0. The fused decoder must too.
func TestDecodeBlockCanonicalZero(t *testing.T) {
	cfg := Defaults(4, 9, 1e-10)
	block := make([]float64, cfg.BlockSize())
	for s, scale := range []float64{1, -0.5, 0.25, -2} {
		for i := 1; i < cfg.SBSize; i++ { // entry 0 of the pattern stays 0
			block[s*cfg.SBSize+i] = scale * float64(i) * 1e-6
		}
	}
	enc, err := NewBlockEncoder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := bitio.NewWriter(0)
	if err := enc.EncodeBlock(w, block); err != nil {
		t.Fatal(err)
	}
	if err := decodeBothWays(cfg, w.Bytes()); err != nil {
		t.Fatal(err)
	}
	dec, _ := NewBlockDecoder(cfg)
	out := make([]float64, cfg.BlockSize())
	if err := dec.DecodeBlock(bitio.NewReader(w.Bytes()), out); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < cfg.NumSB; s++ {
		if v := out[s*cfg.SBSize]; v != 0 || math.Signbit(v) { //lint:floatcmp-ok exact zero is the expected reconstruction
			t.Errorf("sub-block %d entry 0 = %v (signbit %v), want +0", s, v, math.Signbit(v))
		}
	}
}

// TestDecodeBlockSparseOrder: a sparse block naming one position twice
// must fail with encoding.ErrSparseOrder rather than keep either value.
func TestDecodeBlockSparseOrder(t *testing.T) {
	cfg := Defaults(4, 12, 1e-10)
	payload := kindPayloads(t, cfg)[kindSparse]
	r := bitio.NewReader(payload)
	pbRaw, _ := r.ReadBits(pbFieldBits)
	ecbMax, _ := r.ReadBits(ecbMaxFieldBits)
	pb := uint(pbRaw + 1)
	// Rebuild the payload with its first sparse entry written twice.
	w := bitio.NewWriter(0)
	w.WriteBits(pbRaw, pbFieldBits)
	w.WriteBits(ecbMax, ecbMaxFieldBits)
	for i := 0; i < cfg.SBSize+cfg.NumSB; i++ {
		v, _ := r.ReadBits(pb)
		w.WriteBits(v, pb)
	}
	if sparse, _ := r.ReadBit(); sparse != 1 {
		t.Fatal("payload is not sparse")
	}
	w.WriteBit(1)
	n := cfg.BlockSize()
	idxBits, countBits := encoding.IndexBits(n), encoding.IndexBits(n+1)
	count, _ := r.ReadBits(countBits)
	idx, _ := r.ReadBits(idxBits)
	val, err := r.ReadBits(uint(ecbMax))
	if err != nil || count == 0 {
		t.Fatalf("sparse payload without entries (count %d, %v)", count, err)
	}
	w.WriteBits(2, countBits)
	for j := 0; j < 2; j++ {
		w.WriteBits(idx, idxBits)
		w.WriteBits(val, uint(ecbMax))
	}
	dec, _ := NewBlockDecoder(cfg)
	err = dec.DecodeBlock(bitio.NewReader(w.Bytes()), make([]float64, n))
	if !errors.Is(err, encoding.ErrSparseOrder) {
		t.Fatalf("duplicate sparse position: got %v, want ErrSparseOrder", err)
	}
	if decodeBothWays(cfg, w.Bytes()) != nil {
		t.Fatal("reference decoder disagrees on the duplicate position")
	}
}

// TestDecompressStopsAtFirstError: once one block fails, the parallel
// decompressor's workers stop claiming blocks instead of decoding the
// rest of the stream.
func TestDecompressStopsAtFirstError(t *testing.T) {
	cfg := Defaults(4, 9, 1e-10)
	const nblocks = 4000
	rng := rand.New(rand.NewSource(8))
	data := make([]float64, 0, nblocks*cfg.BlockSize())
	for b := 0; b < nblocks; b++ {
		data = append(data, patternedBlock(rng, cfg.NumSB, cfg.SBSize, 1e-7, 1e-9, 0)...)
	}
	comp, err := Compress(data, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, nb, off, err := ParseHeader(comp)
	if err != nil {
		t.Fatal(err)
	}
	spans, err := resolveSpans(comp, nb, off)
	if err != nil {
		t.Fatal(err)
	}
	// An ECbMax field of 0 is corrupt: block 0 fails at once.
	bad := append([]byte(nil), comp...)
	bad[spans[0].lo] &^= 0x03
	bad[spans[0].lo+1] &^= 0xf0
	for _, workers := range []int{2, 4} {
		col := telemetry.New(0)
		if _, err := DecompressCollect(bad, workers, col); err == nil {
			t.Fatal("corrupt block 0 decoded")
		}
		if got := col.Snapshot().BlocksDecoded; got > nblocks/2 {
			t.Errorf("workers=%d: %d of %d blocks decoded after block 0 failed", workers, got, nblocks)
		}
	}
}
