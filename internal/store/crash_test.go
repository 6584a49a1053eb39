package store

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
)

// Crash-point exploration in the style of ALICE (Pillai et al., OSDI
// 2014): run a workload against a store whose filesystem calls are
// logged, then rebuild the directory as a crash after every prefix of
// that log would leave it, reopen the store there and check what a
// client was promised.

// fsOp is one logged filesystem call, or a marker the workload adds
// when the store acknowledges an operation.
type fsOp struct {
	kind string // create, write, sync, rename, remove, syncdir; or begin, ack, fail, delete, deleted
	path string // relative to the store root; the rename source
	to   string // rename target
	ino  int    // file created, written or synced
	data []byte // bytes written; for markers, the stream bytes
	key  string // markers: tenant/id
}

func (op fsOp) marker() bool {
	switch op.kind {
	case "begin", "ack", "fail", "delete", "deleted":
		return true
	}
	return false
}

// recFS is a fileSys that performs every call on disk and logs the
// ones that change it.
type recFS struct {
	osFS
	root string
	mu   sync.Mutex
	log  []fsOp
	inos int // files created so far
}

// add logs op and returns its file number (for a create, a new one).
func (r *recFS) add(op fsOp) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if op.kind == "create" {
		r.inos++
		op.ino = r.inos
	}
	r.log = append(r.log, op)
	return op.ino
}

func (r *recFS) rel(p string) string { return strings.TrimPrefix(p, r.root+string(filepath.Separator)) }

func (r *recFS) Create(name string) (file, error) {
	f, err := r.osFS.Create(name)
	if err != nil {
		return nil, err
	}
	return &recFile{file: f, fs: r, ino: r.add(fsOp{kind: "create", path: r.rel(name)})}, nil
}

func (r *recFS) Rename(oldpath, newpath string) error {
	err := r.osFS.Rename(oldpath, newpath)
	if err == nil {
		r.add(fsOp{kind: "rename", path: r.rel(oldpath), to: r.rel(newpath)})
	}
	return err
}

func (r *recFS) Remove(name string) error {
	err := r.osFS.Remove(name)
	if err == nil {
		r.add(fsOp{kind: "remove", path: r.rel(name)})
	}
	return err
}

func (r *recFS) SyncDir(name string) error {
	err := r.osFS.SyncDir(name)
	if err == nil {
		r.add(fsOp{kind: "syncdir", path: r.rel(name)})
	}
	return err
}

type recFile struct {
	file
	fs  *recFS
	ino int
}

func (f *recFile) Write(p []byte) (int, error) {
	n, err := f.file.Write(p)
	f.fs.add(fsOp{kind: "write", ino: f.ino, data: append([]byte(nil), p[:n]...)})
	return n, err
}

func (f *recFile) Sync() error {
	err := f.file.Sync()
	if err == nil {
		f.fs.add(fsOp{kind: "sync", ino: f.ino})
	}
	return err
}

// inode is a file's contents as written and as last fsynced.
type inode struct{ data, synced []byte }

// crashImage replays disk ops. Names live in two tables: live (every
// create, rename and remove applied) and durable (a directory's entries
// as of its last fsync).
type crashImage struct {
	inodes        map[int]*inode
	live, durable map[string]int
}

func replay(ops []fsOp, torn bool) *crashImage {
	im := &crashImage{inodes: map[int]*inode{}, live: map[string]int{}, durable: map[string]int{}}
	for i, op := range ops {
		switch op.kind {
		case "create":
			im.inodes[op.ino] = &inode{}
			im.live[op.path] = op.ino
		case "write":
			data := op.data
			if torn && i == len(ops)-1 {
				data = data[:len(data)/2]
			}
			in := im.inodes[op.ino]
			in.data = append(in.data, data...)
		case "sync":
			in := im.inodes[op.ino]
			in.synced = append([]byte(nil), in.data...)
		case "rename":
			im.live[op.to] = im.live[op.path]
			delete(im.live, op.path)
		case "remove":
			delete(im.live, op.path)
		case "syncdir":
			for name := range im.durable {
				if filepath.Dir(name) == op.path {
					delete(im.durable, name)
				}
			}
			for name, ino := range im.live {
				if filepath.Dir(name) == op.path {
					im.durable[name] = ino
				}
			}
		}
	}
	return im
}

// A crash view picks which names and which contents survived.
type crashView struct {
	name string
	// strict views keep only what was fsynced, so no unacknowledged
	// stream may be visible; the others persist more than was promised,
	// so an in-flight upload may appear, but only whole.
	strict bool
	files  func(*crashImage) map[string][]byte
}

var crashViews = []crashView{
	{"fsynced", true, func(im *crashImage) map[string][]byte {
		return pick(im.durable, im, func(in *inode) []byte { return in.synced })
	}},
	{"all-metadata-synced-data", false, func(im *crashImage) map[string][]byte {
		return pick(im.live, im, func(in *inode) []byte { return in.synced })
	}},
	{"everything", false, func(im *crashImage) map[string][]byte {
		return pick(im.live, im, func(in *inode) []byte { return in.data })
	}},
}

func pick(names map[string]int, im *crashImage, content func(*inode) []byte) map[string][]byte {
	out := make(map[string][]byte, len(names))
	for name, ino := range names {
		out[name] = content(im.inodes[ino])
	}
	return out
}

// promises is what the workload had been told at a crash point.
type promises struct {
	acked    map[string][]byte // committed streams not since deleted
	inflight map[string][]byte // uploads begun but not acknowledged or failed
	deleting map[string]bool   // deletes begun but not acknowledged
	gone     map[string]bool   // acknowledged deletes
}

func promisesAt(markers []fsOp) promises {
	p := promises{map[string][]byte{}, map[string][]byte{}, map[string]bool{}, map[string]bool{}}
	for _, m := range markers {
		switch m.kind {
		case "begin":
			p.inflight[m.key] = m.data
		case "ack":
			p.acked[m.key] = m.data
			delete(p.inflight, m.key)
			delete(p.gone, m.key)
		case "fail":
			delete(p.inflight, m.key)
		case "delete":
			p.deleting[m.key] = true
		case "deleted":
			delete(p.acked, m.key)
			delete(p.deleting, m.key)
			p.gone[m.key] = true
		}
	}
	return p
}

// crashWorkload uploads, deletes, re-uploads, fails and aborts streams
// across two tenants and two shards, marking every acknowledgement in
// the log. It returns the log.
func crashWorkload(t *testing.T) []fsOp {
	t.Helper()
	cfg := testCfg()
	root := t.TempDir()
	rec := &recFS{root: root}
	st := openStore(t, Config{Dir: root, Shards: 2})
	st.fs = rec
	upload := func(tenant, id string, comp []byte) {
		k := key(tenant, id)
		rec.add(fsOp{kind: "begin", key: k, data: comp})
		w, err := st.Create(tenant, id)
		if err != nil {
			t.Fatal(err)
		}
		// Two writes, so a torn write can land mid-stream.
		half := len(comp) / 2
		if _, err := w.Write(comp[:half]); err != nil {
			t.Fatal(err)
		}
		if _, err := w.Write(comp[half:]); err != nil {
			t.Fatal(err)
		}
		if err := w.Commit(); err != nil {
			rec.add(fsOp{kind: "fail", key: k})
			if !errors.Is(err, ErrCorrupt) {
				t.Fatal(err)
			}
			return
		}
		rec.add(fsOp{kind: "ack", key: k, data: comp})
	}
	del := func(tenant, id string) {
		k := key(tenant, id)
		rec.add(fsOp{kind: "delete", key: k})
		if err := st.Delete(tenant, id); err != nil {
			t.Fatal(err)
		}
		rec.add(fsOp{kind: "deleted", key: k})
	}

	upload("alice", "a", mustCompress(t, cfg, testBlocks(cfg, 3, 41)))
	upload("alice", "b", mustCompress(t, cfg, testBlocks(cfg, 2, 42)))
	upload("bob", "c", mustCompress(t, cfg, testBlocks(cfg, 4, 43)))
	del("alice", "b")
	torn := mustCompress(t, cfg, testBlocks(cfg, 2, 44))
	upload("bob", "bad", torn[:len(torn)-3]) // fails Commit with ErrCorrupt
	rec.add(fsOp{kind: "begin", key: key("alice", "x"), data: torn})
	w, err := st.Create("alice", "x")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(torn[:10]); err != nil {
		t.Fatal(err)
	}
	w.Abort()
	rec.add(fsOp{kind: "fail", key: key("alice", "x")})
	upload("alice", "b", mustCompress(t, cfg, testBlocks(cfg, 3, 45))) // re-create a deleted id
	del("bob", "c")
	upload("bob", "d", mustCompress(t, cfg, testBlocks(cfg, 1, 46)))
	return rec.log
}

// TestStoreCrashPoints replays every prefix of the workload's log, plus
// each prefix with its final write torn, under three crash views, and
// checks after each replay that:
//
//   - Open succeeds and sweeps every temp file;
//   - every acknowledged stream reads back byte-identical;
//   - no unacknowledged stream is visible where only fsynced state
//     survives, and elsewhere any visible in-flight upload is whole;
//   - no acknowledged delete reappears.
//
// Cuts fall between disk operations: the acknowledgement a workload
// logs after a call returns belongs to the cut after that call's last
// disk operation.
func TestStoreCrashPoints(t *testing.T) {
	log := crashWorkload(t)
	var cuts []int // log prefix lengths, each ending just before a disk op or at the end
	for i, op := range log {
		if !op.marker() {
			cuts = append(cuts, i)
		}
	}
	cuts = append(cuts, len(log))
	replays := 0
	for _, c := range cuts {
		var disk, markers []fsOp
		for _, op := range log[:c] {
			if op.marker() {
				markers = append(markers, op)
			} else {
				disk = append(disk, op)
			}
		}
		p := promisesAt(markers)
		tears := []bool{false}
		if len(disk) > 0 && disk[len(disk)-1].kind == "write" {
			tears = append(tears, true)
		}
		for _, torn := range tears {
			im := replay(disk, torn)
			for _, v := range crashViews {
				where := fmt.Sprintf("%s view after %d ops (torn final write: %v)", v.name, len(disk), torn)
				checkCrashState(t, v, v.files(im), p, where)
				replays++
			}
		}
	}
	if len(cuts) < 40 {
		t.Fatalf("only %d crash points; the workload logged too few operations", len(cuts))
	}
	t.Logf("%d crash points, %d replays", len(cuts), replays)
}

// checkCrashState writes one crash image to a fresh directory, opens a
// store on it and checks the promises.
func checkCrashState(t *testing.T, v crashView, files map[string][]byte, p promises, where string) {
	t.Helper()
	root := t.TempDir()
	for name, data := range files {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	st, err := Open(Config{Dir: root, Shards: 2})
	if err != nil {
		t.Fatalf("%s: Open failed: %v", where, err)
	}
	defer st.Close()
	if tmps, _ := filepath.Glob(filepath.Join(root, "shard-*", "*"+tmpSuffix)); len(tmps) > 0 {
		t.Fatalf("%s: Open left temp files %v", where, tmps)
	}

	visible := map[string]bool{}
	for _, tenant := range []string{"alice", "bob"} {
		list, err := st.List(tenant)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range list {
			k := key(s.Tenant, s.ID)
			visible[k] = true
			var want []byte
			switch {
			case p.acked[k] != nil: // committed, or a delete in flight
				want = p.acked[k]
			case !v.strict && p.inflight[k] != nil:
				want = p.inflight[k]
			case p.gone[k]:
				t.Fatalf("%s: acknowledged delete of %s reappeared", where, k)
			default:
				t.Fatalf("%s: unacknowledged stream %s is visible", where, k)
			}
			checkStream(t, st, s.Tenant, s.ID, want, where)
		}
	}
	for k := range p.acked {
		if !visible[k] && !p.deleting[k] {
			t.Fatalf("%s: acknowledged stream %s is missing", where, k)
		}
	}
}

// checkStream asserts a visible stream is byte-identical to want: the
// bytes before its footer, and every block decoded through the store.
func checkStream(t *testing.T, st *Store, tenant, id string, want []byte, where string) {
	t.Helper()
	seg, err := st.Get(tenant, id)
	if err != nil {
		t.Fatalf("%s: %s/%s is listed but Get fails: %v", where, tenant, id, err)
	}
	file, err := os.ReadFile(st.path(tenant, id))
	if err != nil {
		t.Fatal(err)
	}
	if seg.SegmentBytes() != int64(len(want)) || !bytes.Equal(file[:seg.SegmentBytes()], want) {
		t.Fatalf("%s: %s/%s stream bytes differ from the upload", where, tenant, id)
	}
	ref, err := core.Decompress(want, 1)
	if err != nil {
		t.Fatal(err)
	}
	bs := seg.BlockSize()
	dst := make([]float64, bs)
	for b := 0; b < seg.NumBlocks(); b++ {
		if err := seg.ReadBlock(b, dst); err != nil {
			t.Fatalf("%s: %s/%s block %d: %v", where, tenant, id, b, err)
		}
		for i, x := range dst {
			if math.Float64bits(x) != math.Float64bits(ref[b*bs+i]) {
				t.Fatalf("%s: %s/%s block %d decodes wrong", where, tenant, id, b)
			}
		}
	}
}
