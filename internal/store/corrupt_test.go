package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"testing"

	"repro/internal/core"
)

// Fault-injection battery: torn/short writes, bit-flipped stream
// bytes and truncated or mutated footers and trailers must surface as
// typed errors (ErrCorrupt / ErrNotFound) — never a panic, and never
// wrong block data. The mutation style mirrors the public-API
// corrupt_test.go battery: exhaustive truncations plus per-byte bit
// flips, over every region of the stored file.

// corruptFixture builds a committed stream and returns the store, the
// on-disk path, the stream length (where the footer starts) and the
// expected serial decode.
func corruptFixture(t *testing.T) (st *Store, path string, segLen int, cfg core.Config, want []float64) {
	t.Helper()
	cfg = testCfg()
	data := testBlocks(cfg, 4, 11)
	comp := mustCompress(t, cfg, data)
	want, err := core.Decompress(comp, 1)
	if err != nil {
		t.Fatal(err)
	}
	st = openStore(t, Config{Shards: 2})
	putStream(t, st, "qa", "victim", comp)
	return st, st.path("qa", "victim"), len(comp), cfg, want
}

// readAllBlocks opens the file directly and reads every block,
// comparing against want. It reports whether open succeeded, and fails
// the test on any panic (implicit) or wrong data.
func readAllBlocks(t *testing.T, path string, want []float64) (opened bool, err error) {
	t.Helper()
	seg, err := openSegment(path)
	if err != nil {
		if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrNotFound) {
			t.Fatalf("open returned untyped error: %v", err)
		}
		return false, err
	}
	defer seg.close()
	dst := make([]float64, seg.BlockSize())
	for b := 0; b < seg.NumBlocks(); b++ {
		if rerr := seg.ReadBlock(b, dst); rerr != nil {
			if !errors.Is(rerr, ErrCorrupt) && !errors.Is(rerr, ErrNotFound) {
				t.Fatalf("ReadBlock returned untyped error: %v", rerr)
			}
			continue
		}
		if want != nil {
			bs := seg.BlockSize()
			for i, v := range dst {
				if math.Float64bits(v) != math.Float64bits(want[b*bs+i]) {
					t.Fatalf("block %d value %d: corrupted store served WRONG data", b, i)
				}
			}
		}
	}
	return true, nil
}

func mutateFile(t *testing.T, path string, mutate func([]byte) []byte) (restore func()) {
	t.Helper()
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, mutate(append([]byte(nil), orig...)), 0o644); err != nil {
		t.Fatal(err)
	}
	return func() {
		if err := os.WriteFile(path, orig, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// mustFail asserts that the file at path, as mutated, is refused at
// open with ErrCorrupt.
func mustFail(t *testing.T, path string, want []float64, what string) {
	t.Helper()
	opened, err := readAllBlocks(t, path, want)
	if opened {
		t.Fatalf("%s: corrupt file opened", what)
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("%s: got %v, want ErrCorrupt", what, err)
	}
}

// Every single-bit flip anywhere in the stream bytes must be caught by
// the open-time whole-stream CRC, and the flipped block can never
// decode to wrong bytes.
func TestStoreBitFlippedSegment(t *testing.T) {
	_, path, segLen, _, want := corruptFixture(t)
	step := 1
	if segLen > 512 {
		step = segLen / 512
	}
	for pos := 0; pos < segLen; pos += step {
		for _, bit := range []byte{0x01, 0x80} {
			pos, bit := pos, bit
			restore := mutateFile(t, path, func(b []byte) []byte {
				b[pos] ^= bit
				return b
			})
			mustFail(t, path, want, fmt.Sprintf("stream flip @%d/%#x", pos, bit))
			restore()
		}
	}
}

// A block read must re-verify the payload checksum even when the
// file was pristine at open time (bit rot after open).
func TestStoreBitFlipAfterOpen(t *testing.T) {
	_, path, _, cfg, want := corruptFixture(t)
	seg, err := openSegment(path)
	if err != nil {
		t.Fatal(err)
	}
	defer seg.close()

	// Flip one bit inside block 2's payload on disk, behind the open
	// handle's back.
	off, n := seg.blocks[2].off, seg.blocks[2].n
	restore := mutateFile(t, path, func(b []byte) []byte {
		b[off+uint64(n)/2] ^= 0x40
		return b
	})
	defer restore()

	dst := make([]float64, cfg.BlockSize())
	if err := seg.ReadBlock(2, dst); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("post-open flip: got %v, want ErrCorrupt", err)
	}
	// Unaffected blocks still serve correct bytes.
	if err := seg.ReadBlock(0, dst); err != nil {
		t.Fatal(err)
	}
	for i, v := range dst {
		if math.Float64bits(v) != math.Float64bits(want[i]) {
			t.Fatalf("value %d of untouched block changed", i)
		}
	}
}

// Every prefix truncation of the file (a torn write) must fail open
// with a typed error: stepped through the stream bytes, byte by byte
// through the footer and trailer.
func TestStoreTruncatedSegment(t *testing.T) {
	_, path, segLen, _, want := corruptFixture(t)
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	step := 1
	if segLen > 256 {
		step = segLen / 256
	}
	for cut := 0; cut < len(file); cut++ {
		if cut < segLen && cut%step != 0 {
			continue
		}
		cut := cut
		restore := mutateFile(t, path, func(b []byte) []byte { return b[:cut] })
		mustFail(t, path, want, fmt.Sprintf("cut @%d", cut))
		restore()
	}
}

// Every prefix truncation of the footer (the file keeps its trailer)
// and every bit flip in the footer and trailer must fail open with a
// typed error, never a panic or a bad allocation.
func TestStoreCorruptIndex(t *testing.T) {
	_, path, segLen, _, want := corruptFixture(t)
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	trailer := file[len(file)-trailerSize:]
	for cut := segLen; cut < len(file)-trailerSize; cut++ {
		cut := cut
		restore := mutateFile(t, path, func(b []byte) []byte {
			return append(b[:cut:cut], trailer...)
		})
		mustFail(t, path, want, fmt.Sprintf("footer cut @%d", cut))
		restore()
	}
	for pos := segLen; pos < len(file); pos++ {
		for _, bit := range []byte{0x01, 0x80} {
			pos, bit := pos, bit
			restore := mutateFile(t, path, func(b []byte) []byte {
				b[pos] ^= bit
				return b
			})
			mustFail(t, path, want, fmt.Sprintf("footer/trailer flip @%d/%#x", pos, bit))
			restore()
		}
	}
}

// A stored file without its footer and trailer (the bare stream, as an
// interrupted write would leave it) is corrupt, and a missing file is
// not found.
func TestStoreMissingIndex(t *testing.T) {
	_, path, segLen, _, want := corruptFixture(t)
	restore := mutateFile(t, path, func(b []byte) []byte { return b[:segLen] })
	mustFail(t, path, want, "stream without footer")
	restore()
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if _, err := openSegment(path); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing file: got %v, want ErrNotFound", err)
	}
}

// A footer whose own CRC is valid but which describes a different
// stream must be rejected: splice the footer of another valid stream
// behind this stream, with a trailer that points at it correctly.
func TestStoreIndexSegmentMismatch(t *testing.T) {
	cfg := testCfg()
	st := openStore(t, Config{Shards: 1})
	one := mustCompress(t, cfg, testBlocks(cfg, 4, 21))
	putStream(t, st, "qa", "one", one)
	for _, other := range [][]byte{
		mustCompress(t, cfg, testBlocks(cfg, 2, 22)), // different length
		mustCompress(t, cfg, testBlocks(cfg, 4, 23)), // same geometry, other values
	} {
		footer, err := buildFooter(other)
		if err != nil {
			t.Fatal(err)
		}
		footer = footer[:len(footer)-trailerSize]
		trailer := binary.LittleEndian.AppendUint64(nil, uint64(len(one)))
		trailer = append(trailer, trailerMagic[:]...)
		spliced := append(append(append([]byte(nil), one...), footer...), trailer...)
		path := st.path("qa", "one")
		if err := os.WriteFile(path, spliced, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := openSegment(path); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("mismatched footer: got %v, want ErrCorrupt", err)
		}
	}
}

// A short write that never commits must be invisible and leave no
// usage accounting behind.
func TestStoreTornUpload(t *testing.T) {
	cfg := testCfg()
	comp := mustCompress(t, cfg, testBlocks(cfg, 3, 31))
	st := openStore(t, Config{})
	w, err := st.Create("qa", "torn")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(comp[:len(comp)/2]); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("torn upload committed: %v", err)
	}
	if _, err := st.Get("qa", "torn"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("torn upload visible: %v", err)
	}
	if got := st.Usage("qa"); got != 0 {
		t.Fatalf("torn upload charged %d bytes", got)
	}
	// Abandoned writer (no Commit, no Abort): Abort path.
	w2, err := st.Create("qa", "abandoned")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w2.Write(comp[:8]); err != nil {
		t.Fatal(err)
	}
	w2.Abort()
	w2.Abort() // idempotent
	if _, err := st.Get("qa", "abandoned"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("aborted upload visible: %v", err)
	}
}
