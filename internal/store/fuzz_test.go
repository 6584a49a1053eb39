package store

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
)

// FuzzStoreOpen throws arbitrary stored-file bytes at openSegment. The
// invariants under fuzzing:
//
//   - no panic, no runtime fault, no unbounded allocation;
//   - a successful open only ever happens for a file whose checksums
//     genuinely match, and every block it then serves decodes without
//     fault (errors are fine, crashes are not);
//   - all failures are typed (ErrCorrupt or ErrNotFound).
//
// Seeds: a pristine committed file plus structured mutations of each of
// its regions (stream, footer, trailer), so the fuzzer starts deep
// inside the parser instead of at the trailer check.
func FuzzStoreOpen(f *testing.F) {
	cfg := core.Defaults(4, 9, 1e-10)
	data := testBlocks(cfg, 3, 99)
	comp, err := core.Compress(data, cfg, nil)
	if err != nil {
		f.Fatal(err)
	}
	footer, err := buildFooter(comp)
	if err != nil {
		f.Fatal(err)
	}
	file := append(append([]byte(nil), comp...), footer...)
	flip := func(pos int, bit byte) []byte {
		m := append([]byte(nil), file...)
		m[pos] ^= bit
		return m
	}

	f.Add(file)
	f.Add(file[:len(file)/2])
	f.Add(file[:len(comp)]) // stream without footer
	f.Add([]byte{})
	f.Add(flip(len(comp)/3, 0x10))               // stream byte
	f.Add(flip(len(comp)+idxHeaderSize/2, 0x80)) // footer header
	f.Add(flip(len(file)-trailerSize, 0x01))     // trailer offset
	f.Add(flip(len(file)-1, 0x01))               // trailer magic
	// A footer claiming a huge block count must be bounded-rejected.
	big := append([]byte(nil), file...)
	for i := len(comp) + 20; i < len(comp)+28; i++ {
		big[i] = 0xff
	}
	f.Add(big)

	f.Fuzz(func(t *testing.T, file []byte) {
		path := filepath.Join(t.TempDir(), "f.s")
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := openSegment(path)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrNotFound) {
				t.Fatalf("untyped open error: %v", err)
			}
			return
		}
		defer s.close()
		dst := make([]float64, s.BlockSize())
		for b := 0; b < s.NumBlocks(); b++ {
			if rerr := s.ReadBlock(b, dst); rerr != nil &&
				!errors.Is(rerr, ErrCorrupt) && !errors.Is(rerr, ErrNotFound) {
				t.Fatalf("untyped read error: %v", rerr)
			}
		}
	})
}
