package store

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

// gateFS is a fileSys whose next file fsync or directory fsync, once
// armed, signals entered and then blocks until released.
type gateFS struct {
	osFS
	mu      sync.Mutex
	armed   string // "sync", "syncdir" or ""
	entered chan struct{}
	release chan struct{}
}

// arm gates the next op and returns the idempotent release.
func (g *gateFS) arm(op string) (release func()) {
	g.mu.Lock()
	defer g.mu.Unlock()
	ch := make(chan struct{})
	g.armed, g.entered, g.release = op, make(chan struct{}), ch
	var once sync.Once
	return func() { once.Do(func() { close(ch) }) }
}

func (g *gateFS) wait(op string) {
	g.mu.Lock()
	hit := g.armed == op
	entered, release := g.entered, g.release
	if hit {
		g.armed = ""
	}
	g.mu.Unlock()
	if hit {
		close(entered)
		<-release
	}
}

func (g *gateFS) Create(name string) (file, error) {
	f, err := g.osFS.Create(name)
	if err != nil {
		return nil, err
	}
	return gateFile{f, g}, nil
}

func (g *gateFS) SyncDir(name string) error {
	g.wait("syncdir")
	return g.osFS.SyncDir(name)
}

type gateFile struct {
	file
	g *gateFS
}

func (f gateFile) Sync() error {
	f.g.wait("sync")
	return f.file.Sync()
}

// within runs fn and fails the test if it does not return in time.
func within(t *testing.T, what string, fn func() error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("%s blocked behind an upload's fsync", what)
	}
}

// While one upload is stuck inside its segment fsync or its directory
// fsync, the store lock must be free: a cache-miss Get and block read
// of another stream, a Create, Usage and List all complete.
func TestStoreLockReleasedDuringFsync(t *testing.T) {
	cfg := testCfg()
	comp := mustCompress(t, cfg, testBlocks(cfg, 3, 51))
	g := &gateFS{}
	st := openStore(t, Config{Shards: 2})
	st.fs = g

	for _, op := range []string{"sync", "syncdir"} {
		putStream(t, st, "alice", "b-"+op, comp) // B: committed, never opened
		a, err := st.Create("alice", "a-"+op)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := a.Write(comp); err != nil {
			t.Fatal(err)
		}
		release := g.arm(op)
		defer release() // unblocks A if a check below fails
		committed := make(chan error, 1)
		go func() { committed <- a.Commit() }()
		select {
		case <-g.entered:
		case err := <-committed:
			t.Fatalf("%s: upload A finished without reaching the gate: %v", op, err)
		}

		within(t, op+": Get+ReadBlock of B", func() error {
			seg, err := st.Get("alice", "b-"+op)
			if err != nil {
				return err
			}
			return seg.ReadBlock(0, make([]float64, seg.BlockSize()))
		})
		within(t, op+": Create of C", func() error {
			c, err := st.Create("alice", "c-"+op)
			if err != nil {
				return err
			}
			c.Abort()
			return nil
		})
		within(t, op+": Usage", func() error { st.Usage("alice"); return nil })
		within(t, op+": List", func() error {
			_, err := st.List("alice")
			return err
		})

		release()
		if err := <-committed; err != nil {
			t.Fatalf("%s: upload A: %v", op, err)
		}
		if _, err := st.Get("alice", "a-"+op); err != nil {
			t.Fatalf("%s: upload A not served after commit: %v", op, err)
		}
	}
}

// N commits race against a quota that fits only k of them: exactly k
// succeed, the rest fail with ErrQuota, Usage never exceeds the quota,
// and a reopen counts the same bytes.
func TestStoreConcurrentQuota(t *testing.T) {
	const n, k = 8, 3
	cfg := testCfg()
	comp := mustCompress(t, cfg, testBlocks(cfg, 2, 61))
	footer, err := buildFooter(comp)
	if err != nil {
		t.Fatal(err)
	}
	size := int64(len(comp) + len(footer))
	quota := k*size + size/2
	dir := t.TempDir()
	st := openStore(t, Config{Dir: dir, Shards: 4, Quotas: map[string]int64{"q": quota}})

	writers := make([]*SegmentWriter, n)
	for i := range writers {
		w, err := st.Create("q", fmt.Sprintf("s%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Write(comp); err != nil {
			t.Fatal(err)
		}
		writers[i] = w
	}

	var over atomic.Int64
	stop := make(chan struct{})
	watched := make(chan struct{})
	go func() {
		defer close(watched)
		for {
			if u := st.Usage("q"); u > quota {
				over.Store(u)
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	errs := make([]error, n)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i, w := range writers {
		wg.Add(1)
		go func(i int, w *SegmentWriter) {
			defer wg.Done()
			<-start
			errs[i] = w.Commit()
		}(i, w)
	}
	close(start)
	wg.Wait()
	close(stop)
	<-watched

	ok := 0
	for i, err := range errs {
		switch {
		case err == nil:
			ok++
		case !errors.Is(err, ErrQuota):
			t.Fatalf("commit %d: got %v, want nil or ErrQuota", i, err)
		}
	}
	if ok != k {
		t.Fatalf("%d of %d commits succeeded under a quota that fits %d", ok, n, k)
	}
	if u := over.Load(); u != 0 {
		t.Fatalf("Usage reached %d, over the %d-byte quota", u, quota)
	}
	used := st.Usage("q")
	if used != k*size {
		t.Fatalf("Usage = %d, want %d", used, k*size)
	}
	if list, err := st.List("q"); err != nil || len(list) != k {
		t.Fatalf("List = %d streams (err %v), want %d", len(list), err, k)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if got := openStore(t, Config{Dir: dir, Shards: 4}).Usage("q"); got != used {
		t.Fatalf("Usage after reopen = %d, want %d", got, used)
	}
}

// Creates, Gets and Deletes of the same few ids race. Every call gets a
// typed answer, every block served is correct, and afterwards the
// catalog, the quota accounting and the directory agree, also after a
// reopen.
func TestStoreCreateGetDeleteRace(t *testing.T) {
	cfg := testCfg()
	comp := mustCompress(t, cfg, testBlocks(cfg, 2, 71))
	want, err := core.Decompress(comp, 1)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	st := openStore(t, Config{Dir: dir, Shards: 2})
	ids := []string{"x", "y", "z"}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			dst := make([]float64, cfg.BlockSize())
			for i := 0; i < 60; i++ {
				id := ids[(g+i)%len(ids)]
				switch (g + i/len(ids)) % 4 { // each goroutine creates, reads, deletes, reads
				case 0:
					w, err := st.Create("churn", id)
					if err != nil {
						if !errors.Is(err, ErrExists) {
							t.Errorf("Create %s: %v", id, err)
						}
						continue
					}
					if _, err := w.Write(comp); err != nil {
						t.Errorf("Write %s: %v", id, err)
					}
					if err := w.Commit(); err != nil {
						t.Errorf("Commit %s: %v", id, err)
					}
				case 2:
					if err := st.Delete("churn", id); err != nil && !errors.Is(err, ErrNotFound) {
						t.Errorf("Delete %s: %v", id, err)
					}
				default:
					seg, err := st.Get("churn", id)
					if err != nil {
						if !errors.Is(err, ErrNotFound) {
							t.Errorf("Get %s: %v", id, err)
						}
						continue
					}
					// A concurrent Delete may close the handle under
					// the read; that is a typed error, never wrong data.
					if err := seg.ReadBlock(1, dst); err != nil {
						if !errors.Is(err, ErrCorrupt) {
							t.Errorf("ReadBlock %s: %v", id, err)
						}
						continue
					}
					for j, v := range dst {
						if math.Float64bits(v) != math.Float64bits(want[cfg.BlockSize()+j]) {
							t.Errorf("%s: wrong value %d", id, j)
							break
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()

	list, err := st.List("churn")
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, s := range list {
		info, err := os.Stat(st.path("churn", s.ID))
		if err != nil || info.Size() != s.SegmentBytes+s.IndexBytes {
			t.Fatalf("%s: listed as %d+%d bytes, on disk %v (err %v)", s.ID, s.SegmentBytes, s.IndexBytes, info, err)
		}
		total += info.Size()
	}
	files, _ := filepath.Glob(filepath.Join(dir, "shard-*", "*"))
	if len(files) != len(list) || st.Usage("churn") != total {
		t.Fatalf("%d files on disk, %d listed; usage %d, listed bytes %d", len(files), len(list), st.Usage("churn"), total)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if got := openStore(t, Config{Dir: dir, Shards: 2}).Usage("churn"); got != total {
		t.Fatalf("Usage after reopen = %d, want %d", got, total)
	}
}
