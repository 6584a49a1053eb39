package store

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
)

// testRNG is a self-contained xorshift64* generator, mirroring the
// golden-fixture generator so store tests never depend on math/rand.
type testRNG uint64

func (r *testRNG) next() float64 {
	x := uint64(*r)
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	*r = testRNG(x)
	return float64(x*0x2545F4914F6CDD1D>>11) / float64(1<<53)
}

// testBlocks builds nblocks deterministic ERI-shaped blocks for cfg.
func testBlocks(cfg core.Config, nblocks int, seed uint64) []float64 {
	rng := testRNG(seed)
	data := make([]float64, nblocks*cfg.BlockSize())
	for b := 0; b < nblocks; b++ {
		for s := 0; s < cfg.NumSB; s++ {
			scale := 1e-6 / (1 + 0.5*float64(s))
			base := b*cfg.BlockSize() + s*cfg.SBSize
			for i := 0; i < cfg.SBSize; i++ {
				x := float64(i+1) / float64(cfg.SBSize)
				data[base+i] = scale*x/(0.25+x*x) + (rng.next()-0.5)*cfg.ErrorBound*20
			}
		}
	}
	return data
}

func testCfg() core.Config { return core.Defaults(4, 9, 1e-10) }

// mustCompress produces a one-shot stream (exact block count header).
func mustCompress(t testing.TB, cfg core.Config, data []float64) []byte {
	t.Helper()
	comp, err := core.Compress(data, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	return comp
}

// putStream writes a compressed stream into the store.
func putStream(t testing.TB, st *Store, tenant, id string, comp []byte) {
	t.Helper()
	w, err := st.Create(tenant, id)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(comp); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
}

func openStore(t testing.TB, cfg Config) *Store {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	st, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

func TestStoreRoundTrip(t *testing.T) {
	cfg := testCfg()
	data := testBlocks(cfg, 6, 1)
	comp := mustCompress(t, cfg, data)
	want, err := core.Decompress(comp, 1)
	if err != nil {
		t.Fatal(err)
	}

	st := openStore(t, Config{Shards: 4})
	putStream(t, st, "alice", "s1", comp)

	seg, err := st.Get("alice", "s1")
	if err != nil {
		t.Fatal(err)
	}
	if seg.NumBlocks() != 6 {
		t.Fatalf("NumBlocks = %d, want 6", seg.NumBlocks())
	}
	if seg.BlockSize() != cfg.BlockSize() {
		t.Fatalf("BlockSize = %d, want %d", seg.BlockSize(), cfg.BlockSize())
	}
	dst := make([]float64, cfg.BlockSize())
	for b := 0; b < seg.NumBlocks(); b++ {
		if err := seg.ReadBlock(b, dst); err != nil {
			t.Fatalf("block %d: %v", b, err)
		}
		for i, v := range dst {
			if math.Float64bits(v) != math.Float64bits(want[b*cfg.BlockSize()+i]) {
				t.Fatalf("block %d value %d: stored decode differs from serial decode", b, i)
			}
		}
	}
	// Cached handle: the same pointer comes back.
	again, err := st.Get("alice", "s1")
	if err != nil {
		t.Fatal(err)
	}
	if again != seg {
		t.Fatal("Get did not return the cached segment handle")
	}
}

// Streams produced incrementally (streaming sentinel in the header)
// must store and serve identically.
func TestStoreStreamedSegment(t *testing.T) {
	cfg := testCfg()
	data := testBlocks(cfg, 5, 2)
	var buf bytes.Buffer
	sw, err := core.NewStreamWriter(&buf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	bs := cfg.BlockSize()
	for b := 0; b < 5; b++ {
		if err := sw.WriteBlock(data[b*bs : (b+1)*bs]); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	want, err := core.Decompress(buf.Bytes(), 1)
	if err != nil {
		t.Fatal(err)
	}

	st := openStore(t, Config{})
	putStream(t, st, "bob", "streamed", buf.Bytes())
	seg, err := st.Get("bob", "streamed")
	if err != nil {
		t.Fatal(err)
	}
	if seg.NumBlocks() != 5 {
		t.Fatalf("NumBlocks = %d, want 5", seg.NumBlocks())
	}
	dst := make([]float64, bs)
	for b := 0; b < 5; b++ {
		if err := seg.ReadBlock(b, dst); err != nil {
			t.Fatal(err)
		}
		for i, v := range dst {
			if math.Float64bits(v) != math.Float64bits(want[b*bs+i]) {
				t.Fatalf("block %d value %d differs", b, i)
			}
		}
	}
}

func TestStoreErrors(t *testing.T) {
	cfg := testCfg()
	comp := mustCompress(t, cfg, testBlocks(cfg, 2, 3))
	st := openStore(t, Config{})
	putStream(t, st, "alice", "s1", comp)

	if _, err := st.Get("alice", "nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing stream: got %v, want ErrNotFound", err)
	}
	if _, err := st.Get("alice", "../evil"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("path-traversal id: got %v, want ErrNotFound", err)
	}
	if _, err := st.Create("alice", "s1"); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate create: got %v, want ErrExists", err)
	}
	seg, err := st.Get("alice", "s1")
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, cfg.BlockSize())
	if err := seg.ReadBlock(-1, dst); !errors.Is(err, ErrNotFound) {
		t.Fatalf("negative block: got %v, want ErrNotFound", err)
	}
	if err := seg.ReadBlock(2, dst); !errors.Is(err, ErrNotFound) {
		t.Fatalf("past-the-end block: got %v, want ErrNotFound", err)
	}
	if err := seg.ReadBlock(0, dst[:1]); err == nil {
		t.Fatal("short destination accepted")
	}

	// Garbage bytes must fail at Commit with ErrCorrupt, and leave
	// nothing behind.
	w, err := st.Create("alice", "garbage")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("this is not a pastri stream")); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("garbage commit: got %v, want ErrCorrupt", err)
	}
	if _, err := st.Get("alice", "garbage"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("garbage stream visible after failed commit: %v", err)
	}

	if err := st.Delete("alice", "s1"); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Get("alice", "s1"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted stream still served: %v", err)
	}
	if err := st.Delete("alice", "s1"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete: got %v, want ErrNotFound", err)
	}
	if st.Usage("alice") != 0 {
		t.Fatalf("usage after delete = %d, want 0", st.Usage("alice"))
	}

	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Get("alice", "s1"); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed store: got %v, want ErrClosed", err)
	}
	if _, err := st.Create("alice", "s2"); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed store create: got %v, want ErrClosed", err)
	}
}

func TestStoreQuota(t *testing.T) {
	cfg := testCfg()
	comp := mustCompress(t, cfg, testBlocks(cfg, 4, 4))
	need := int64(len(comp)) + 256 // segment + a small index

	st := openStore(t, Config{Quotas: map[string]int64{"tiny": need, "rich": 10 * need}})
	putStream(t, st, "tiny", "s1", comp)
	if st.Usage("tiny") <= int64(len(comp)) {
		t.Fatalf("usage %d should include the index", st.Usage("tiny"))
	}

	// A second stream of the same size cannot fit: the rejection may
	// come at Create (already at quota), mid-Write, or at Commit — but
	// it must come, and it must be ErrQuota.
	w, err := st.Create("tiny", "s2")
	switch {
	case errors.Is(err, ErrQuota):
		// Rejected up front.
	case err != nil:
		t.Fatal(err)
	default:
		_, werr := w.Write(comp)
		cerr := error(nil)
		if werr == nil {
			cerr = w.Commit()
		} else {
			w.Abort()
		}
		if !errors.Is(werr, ErrQuota) && !errors.Is(cerr, ErrQuota) {
			t.Fatalf("over-quota upload succeeded (write=%v commit=%v)", werr, cerr)
		}
	}
	// The other tenant is unaffected.
	putStream(t, st, "rich", "s1", comp)

	// Deleting frees the quota for a new upload.
	if err := st.Delete("tiny", "s1"); err != nil {
		t.Fatal(err)
	}
	putStream(t, st, "tiny", "s3", comp)
}

// Usage accounting and debris sweeping must survive a reopen. Temp
// files from interrupted uploads are swept; a file whose name is not a
// stream name (here one in the old two-file layout) is neither counted
// nor served.
func TestStoreReopen(t *testing.T) {
	cfg := testCfg()
	comp := mustCompress(t, cfg, testBlocks(cfg, 3, 5))
	dir := t.TempDir()

	st := openStore(t, Config{Dir: dir, Shards: 4})
	putStream(t, st, "alice", "s1", comp)
	putStream(t, st, "bob", "s2", comp)
	usedAlice, usedBob := st.Usage("alice"), st.Usage("bob")
	// Leave a torn temp file and a stray old-layout segment behind.
	if err := os.WriteFile(filepath.Join(dir, "shard-00", "x.y.tmp"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "shard-01", "ghost.s9.seg"), comp, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openStore(t, Config{Dir: dir, Shards: 4})
	if got := st2.Usage("alice"); got != usedAlice {
		t.Fatalf("alice usage after reopen = %d, want %d", got, usedAlice)
	}
	if got := st2.Usage("bob"); got != usedBob {
		t.Fatalf("bob usage after reopen = %d, want %d", got, usedBob)
	}
	if got := st2.Usage("ghost"); got != 0 {
		t.Fatalf("stray file counted: %d", got)
	}
	if _, err := st2.Get("ghost", "s9"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("stray file served: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "shard-00", "x.y.tmp")); !os.IsNotExist(err) {
		t.Fatal("temp debris survived reopen")
	}
	list, err := st2.List("alice")
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].SegmentBytes != int64(len(comp)) || list[0].SegmentBytes+list[0].IndexBytes != usedAlice {
		t.Fatalf("List after reopen = %+v, want one %d-byte stream in a %d-byte file", list, len(comp), usedAlice)
	}
	seg, err := st2.Get("alice", "s1")
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, cfg.BlockSize())
	if err := seg.ReadBlock(0, dst); err != nil {
		t.Fatal(err)
	}
}

func TestStoreListAndSharding(t *testing.T) {
	cfg := testCfg()
	comp := mustCompress(t, cfg, testBlocks(cfg, 1, 6))
	dir := t.TempDir()
	st := openStore(t, Config{Dir: dir, Shards: 4})
	ids := []string{"a1", "b2", "c3", "d4", "e5", "f6", "g7", "h8"}
	for _, id := range ids {
		putStream(t, st, "alice", id, comp)
	}
	putStream(t, st, "bob", "z9", comp)

	list, err := st.List("alice")
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != len(ids) {
		t.Fatalf("List returned %d streams, want %d", len(list), len(ids))
	}
	for i, s := range list {
		if s.ID != ids[i] {
			t.Fatalf("List not sorted: got %q at %d", s.ID, i)
		}
		if s.SegmentBytes != int64(len(comp)) {
			t.Fatalf("SegmentBytes = %d, want %d", s.SegmentBytes, len(comp))
		}
	}

	// Files must actually spread over more than one shard directory.
	shardsUsed := 0
	for i := 0; i < 4; i++ {
		entries, err := os.ReadDir(filepath.Join(dir, shardDirName(i)))
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) > 0 {
			shardsUsed++
		}
	}
	if shardsUsed < 2 {
		t.Fatalf("9 streams landed in %d shard(s); hashing is not spreading", shardsUsed)
	}
}

func shardDirName(i int) string {
	return "shard-" + string("0123456789abcdef"[i>>4]) + string("0123456789abcdef"[i&0xf])
}

func TestStoreConcurrentReaders(t *testing.T) {
	cfg := testCfg()
	data := testBlocks(cfg, 8, 7)
	comp := mustCompress(t, cfg, data)
	want, err := core.Decompress(comp, 1)
	if err != nil {
		t.Fatal(err)
	}
	st := openStore(t, Config{})
	putStream(t, st, "alice", "s1", comp)
	seg, err := st.Get("alice", "s1")
	if err != nil {
		t.Fatal(err)
	}
	bs := cfg.BlockSize()
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		g := g
		go func() {
			dst := make([]float64, bs)
			for rep := 0; rep < 50; rep++ {
				b := (g + rep) % seg.NumBlocks()
				if err := seg.ReadBlock(b, dst); err != nil {
					done <- err
					return
				}
				for i, v := range dst {
					if math.Float64bits(v) != math.Float64bits(want[b*bs+i]) {
						done <- errors.New("concurrent read returned wrong data")
						return
					}
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestValidName(t *testing.T) {
	for _, ok := range []string{"alice", "A-1_b", "0", strings.Repeat("x", 128)} {
		if !validName(ok) {
			t.Errorf("validName(%q) = false", ok)
		}
	}
	for _, bad := range []string{"", ".", "a.b", "a/b", "a b", "é", strings.Repeat("x", 129), "..", "a\x00b"} {
		if validName(bad) {
			t.Errorf("validName(%q) = true", bad)
		}
	}
}
