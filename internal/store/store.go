// Package store is pastrid's sharded on-disk block store. Each stored
// stream is one file: the exact PaSTRI stream bytes the compression
// pipeline produced, then a footer holding the *block index* — where
// every block payload lives, its length and its CRC — and a fixed-size
// trailer that points at the footer (format in segment.go). A single
// block is served with one ReadAt and decoded without touching the rest
// of the stream (the random-access property the paper highlights in
// Sec. IV-C, taken to disk).
//
// Layout under the store root:
//
//	shard-00/ … shard-NN/         (FNV-1a hash of "tenant/id" mod shards)
//	    <tenant>.<id>             stream bytes + footer + trailer
//	    <tenant>.<id>.tmp         an upload in progress; swept on Open
//
// Durability and integrity:
//
//   - Commit appends the footer to the temp file, fsyncs it, renames it
//     into place and fsyncs the shard directory, and only then reports
//     success. An acknowledged stream survives a crash; an unacknowledged
//     one is either absent or complete, never partial, because the file
//     is whole before its name appears. Delete removes the file and
//     fsyncs the directory before it reports success.
//   - The footer carries a CRC of itself, a CRC of the whole stream, and
//     a CRC per block payload. Opening a stream verifies the footer and
//     stream checksums; every block read re-verifies the payload
//     checksum, so bit rot after open is caught before bytes are served.
//   - All corruption paths return errors wrapping ErrCorrupt — never a
//     panic, never silently wrong data.
//
// Concurrency: one mutex guards the in-memory catalog of streams and
// the per-tenant byte accounting, and nothing else. No stat, open,
// write, fsync, rename or remove runs while it is held, so a block read
// that misses the cache never waits behind an upload's fsync.
//
// Multi-tenancy: streams are namespaced by tenant, and the store
// enforces per-tenant byte quotas (whole file sizes) at create, during
// writes, and at commit, which reserves the final size under the lock
// before the rename and returns it if the commit fails.
package store

import (
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/telemetry/trace"
)

// Typed error classes. Callers dispatch with errors.Is; every error the
// store returns wraps exactly one of these (or is an annotated OS
// error from the underlying filesystem).
var (
	// ErrNotFound reports a tenant/id pair with no committed stream.
	ErrNotFound = errors.New("store: stream not found")
	// ErrExists reports a create for a tenant/id that is already stored.
	ErrExists = errors.New("store: stream already exists")
	// ErrCorrupt reports an unreadable stored file: bad magic, checksum
	// mismatch, truncation, or impossible geometry. Corrupt streams are
	// never partially served.
	ErrCorrupt = errors.New("store: corrupt stream")
	// ErrQuota reports a write that would push a tenant over its byte
	// quota.
	ErrQuota = errors.New("store: tenant quota exceeded")
	// ErrClosed reports use of a closed store.
	ErrClosed = errors.New("store: closed")
)

// Config parameterizes a store.
type Config struct {
	// Dir is the store root; it is created if missing.
	Dir string
	// Shards is the number of shard directories (default 8, max 4096).
	Shards int
	// Quotas caps each tenant's total stored bytes (whole file sizes).
	// Absent or non-positive entries mean unlimited.
	Quotas map[string]int64
}

// DefaultShards is the shard-directory count used when Config.Shards
// is zero.
const DefaultShards = 8

// Store is a sharded, checksummed, quota-enforcing collection of
// compressed streams. All methods are safe for concurrent use.
type Store struct {
	dir    string
	shards int
	fs     fileSys

	mu      sync.Mutex
	quotas  map[string]int64
	used    map[string]int64  // committed plus reserved bytes per tenant
	streams map[string]*entry // key → catalog entry
	closed  bool
}

// entry is one tenant/id in the catalog. A pending entry claims the
// name from Create until the upload commits or is discarded, and a
// committed one is taken out of service while Delete removes its file;
// only committed entries are served.
type entry struct {
	committed bool
	size      int64    // file bytes charged to the tenant
	segLen    int64    // stream bytes before the footer
	seg       *Segment // open handle, nil until the first Get
}

// Open opens (creating if necessary) a store rooted at cfg.Dir, scans
// the shard directories to rebuild the catalog and per-tenant usage
// accounting, and removes leftover temp files from interrupted writes.
func Open(cfg Config) (*Store, error) {
	shards := cfg.Shards
	if shards <= 0 {
		shards = DefaultShards
	}
	if shards > 4096 {
		return nil, fmt.Errorf("store: shard count %d exceeds 4096", shards)
	}
	s := &Store{
		dir:     cfg.Dir,
		shards:  shards,
		fs:      osFS{},
		quotas:  make(map[string]int64, len(cfg.Quotas)),
		used:    make(map[string]int64),
		streams: make(map[string]*entry),
	}
	for t, q := range cfg.Quotas {
		s.quotas[t] = q
	}
	for i := 0; i < shards; i++ {
		if err := os.MkdirAll(s.shardDir(i), 0o755); err != nil {
			return nil, fmt.Errorf("store: creating shard dir: %w", err)
		}
	}
	if err := s.scan(); err != nil {
		return nil, err
	}
	return s, nil
}

// scan walks the shard directories rebuilding the catalog and tenant
// usage, and sweeps temp files left by interrupted uploads. Names that
// are neither are not the store's and are left alone.
func (s *Store) scan() error {
	for i := 0; i < s.shards; i++ {
		dir := s.shardDir(i)
		entries, err := os.ReadDir(dir)
		if err != nil {
			return fmt.Errorf("store: scanning %s: %w", dir, err)
		}
		for _, e := range entries {
			name := e.Name()
			path := filepath.Join(dir, name)
			if strings.HasSuffix(name, tmpSuffix) {
				if err := s.fs.Remove(path); err != nil {
					return fmt.Errorf("store: sweeping temp file: %w", err)
				}
				continue
			}
			tenant, id, ok := splitBase(name)
			if !ok {
				continue
			}
			info, err := e.Info()
			if err != nil {
				return fmt.Errorf("store: stat %s: %w", name, err)
			}
			// An unreadable trailer leaves segLen 0: the file still
			// counts against the quota, and Get reports it as corrupt.
			segLen, _ := streamLen(path, info.Size()) //lint:errdrop-ok see above
			s.streams[key(tenant, id)] = &entry{committed: true, size: info.Size(), segLen: segLen}
			s.used[tenant] += info.Size()
		}
	}
	return nil
}

// streamLen returns the stream length recorded in the trailer of the
// size-byte file at path.
func streamLen(path string, size int64) (int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close() //lint:errdrop-ok read-only handle
	return readTrailer(f, size)
}

const tmpSuffix = ".tmp"

// ValidName reports whether s is usable as a tenant or stream id —
// the server validates request names up front with it so syntactically
// bad ids become 400s instead of store-level not-founds.
func ValidName(s string) bool { return validName(s) }

// validName reports whether a tenant or stream id is safe to embed in
// a filename: nonempty ASCII letters, digits, '-' and '_' only.
func validName(s string) bool {
	if s == "" || len(s) > 128 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
		default:
			return false
		}
	}
	return true
}

func key(tenant, id string) string { return tenant + "/" + id }

// splitBase recovers (tenant, id) from a "<tenant>.<id>" file base.
func splitBase(base string) (tenant, id string, ok bool) {
	tenant, id, ok = strings.Cut(base, ".")
	if !ok || !validName(tenant) || !validName(id) {
		return "", "", false
	}
	return tenant, id, true
}

func (s *Store) shardDir(i int) string {
	return filepath.Join(s.dir, fmt.Sprintf("shard-%02x", i))
}

// shardOf maps a stream key onto its shard directory index.
func (s *Store) shardOf(k string) int {
	h := fnv.New32a()
	h.Write([]byte(k)) //lint:errdrop-ok hash.Hash.Write never fails
	return int(h.Sum32() % uint32(s.shards))
}

// path returns the committed file path for a stream.
func (s *Store) path(tenant, id string) string {
	return filepath.Join(s.shardDir(s.shardOf(key(tenant, id))), tenant+"."+id)
}

func checkNames(tenant, id string) error {
	if !validName(tenant) {
		return fmt.Errorf("store: invalid tenant name %q: %w", tenant, ErrNotFound)
	}
	if !validName(id) {
		return fmt.Errorf("store: invalid stream id %q: %w", id, ErrNotFound)
	}
	return nil
}

// quota returns the byte quota for a tenant (0 = unlimited).
func (s *Store) quota(tenant string) int64 {
	q := s.quotas[tenant]
	if q < 0 {
		q = 0
	}
	return q
}

// Usage returns a tenant's stored bytes, counting the bytes reserved by
// commits in flight.
func (s *Store) Usage(tenant string) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.used[tenant]
}

// Quota returns a tenant's configured byte quota (0 = unlimited) —
// readiness probes compare it against Usage for headroom checks.
func (s *Store) Quota(tenant string) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.quota(tenant)
}

// Closed reports whether Close has been called.
func (s *Store) Closed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// Create starts writing a new stream for tenant under id. The returned
// SegmentWriter is an io.Writer for the compressed stream bytes; the
// stream becomes visible only after Commit. A tenant already at or
// over quota is rejected up front.
func (s *Store) Create(tenant, id string) (*SegmentWriter, error) {
	if err := checkNames(tenant, id); err != nil {
		return nil, err
	}
	e, err := s.claim(tenant, id)
	if err != nil {
		return nil, err
	}
	w := &SegmentWriter{st: s, tenant: tenant, id: id, e: e, path: s.path(tenant, id)}
	f, err := s.fs.Create(w.path + tmpSuffix)
	if err != nil {
		s.discard(w)
		return nil, fmt.Errorf("store: creating segment: %w", err)
	}
	w.f = f
	return w, nil
}

// claim adds a pending catalog entry for tenant/id.
func (s *Store) claim(tenant, id string) (*entry, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	if q := s.quota(tenant); q > 0 && s.used[tenant] >= q {
		return nil, fmt.Errorf("store: tenant %q at %d of %d bytes: %w", tenant, s.used[tenant], q, ErrQuota)
	}
	k := key(tenant, id)
	if s.streams[k] != nil {
		return nil, fmt.Errorf("store: %s/%s: %w", tenant, id, ErrExists)
	}
	e := &entry{}
	s.streams[k] = e
	return e, nil
}

// committed returns the catalog entry of a committed stream. The caller
// holds s.mu.
func (s *Store) committed(tenant, id string) (*entry, error) {
	if s.closed {
		return nil, ErrClosed
	}
	e := s.streams[key(tenant, id)]
	if e == nil || !e.committed {
		return nil, fmt.Errorf("store: %s/%s: %w", tenant, id, ErrNotFound)
	}
	return e, nil
}

// Get returns an open handle for a committed stream. Handles are
// cached: concurrent readers share one *Segment (its reads are
// concurrency-safe), and the handle stays valid until Delete or Close.
func (s *Store) Get(tenant, id string) (*Segment, error) {
	if err := checkNames(tenant, id); err != nil {
		return nil, err
	}
	s.mu.Lock()
	e, err := s.committed(tenant, id)
	var seg *Segment
	if err == nil {
		seg = e.seg
	}
	s.mu.Unlock()
	if err != nil || seg != nil {
		return seg, err
	}

	seg, err = openSegment(s.path(tenant, id))
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if s.streams[key(tenant, id)] == e && e.committed && e.seg == nil && !s.closed {
		e.seg = seg
		s.mu.Unlock()
		return seg, nil
	}
	s.mu.Unlock()
	// Lost a race with another Get, Delete or Close: look again.
	seg.close() //lint:errdrop-ok the handle never escaped
	return s.Get(tenant, id)
}

// Delete removes a committed stream and releases its quota bytes. The
// stream stops being served at once, its name stays claimed until the
// removal is done, and Delete returns nil only after the shard
// directory is fsynced.
func (s *Store) Delete(tenant, id string) error {
	if err := checkNames(tenant, id); err != nil {
		return err
	}
	s.mu.Lock()
	e, err := s.committed(tenant, id)
	if err == nil {
		e.committed = false // Get no longer touches e.seg
	}
	s.mu.Unlock()
	if err != nil {
		return err
	}
	if e.seg != nil {
		e.seg.close() //lint:errdrop-ok the file is removed below regardless
	}
	// A failed remove leaves the file for the next Open to find again;
	// the caller sees the error and the stream is not acknowledged gone.
	path := s.path(tenant, id)
	err = s.fs.Remove(path)
	if err == nil {
		err = s.fs.SyncDir(filepath.Dir(path))
	}
	s.mu.Lock()
	delete(s.streams, key(tenant, id))
	s.used[tenant] -= e.size
	s.mu.Unlock()
	if err != nil {
		return fmt.Errorf("store: deleting %s/%s: %w", tenant, id, err)
	}
	return nil
}

// StreamStat describes one committed stream.
type StreamStat struct {
	Tenant string
	ID     string
	// SegmentBytes is the compressed stream size on disk.
	SegmentBytes int64
	// IndexBytes is the size of the footer (block index and trailer)
	// that follows the stream in its file.
	IndexBytes int64
}

// List returns the committed streams for one tenant, sorted by id.
func (s *Store) List(tenant string) ([]StreamStat, error) {
	if !validName(tenant) {
		return nil, nil
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	var out []StreamStat
	for k, e := range s.streams {
		if id, ok := strings.CutPrefix(k, tenant+"/"); ok && e.committed {
			out = append(out, StreamStat{Tenant: tenant, ID: id, SegmentBytes: e.segLen, IndexBytes: e.size - e.segLen})
		}
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// Close closes all open segment handles. Further calls on the store
// return ErrClosed.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var firstErr error
	for _, e := range s.streams {
		if e.seg == nil {
			continue
		}
		if err := e.seg.close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// reserve charges an upload's file size to its tenant ahead of the
// rename, so concurrent commits cannot overshoot the quota together.
func (s *Store) reserve(w *SegmentWriter, size, segLen int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if q := s.quota(w.tenant); q > 0 && s.used[w.tenant]+size > q {
		return fmt.Errorf("store: tenant %q would use %d of %d bytes: %w",
			w.tenant, s.used[w.tenant]+size, q, ErrQuota)
	}
	s.used[w.tenant] += size
	w.e.size, w.e.segLen = size, segLen
	return nil
}

// discard drops a failed or abandoned upload's pending entry and
// returns its quota reservation.
func (s *Store) discard(w *SegmentWriter) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.streams, key(w.tenant, w.id))
	s.used[w.tenant] -= w.e.size
}

// SegmentWriter accumulates one stream's compressed bytes. Write it,
// then Commit to make the stream visible, or Abort to discard. It
// enforces the tenant quota incrementally so an over-quota upload
// fails while streaming, not after.
type SegmentWriter struct {
	st     *Store
	tenant string
	id     string
	e      *entry // pending until Commit publishes it
	f      file
	path   string // committed path; the upload is written to path+".tmp"
	n      int64
	err    error
	done   bool
	sp     *trace.Span // request span for Commit's child spans; may be nil
}

// SetTrace attaches the request span under which Commit records its
// store.commit / store.fsync / store.build_index child spans. Call it
// before Commit; a nil span (the default) disables the spans.
func (w *SegmentWriter) SetTrace(sp *trace.Span) { w.sp = sp }

// Write appends compressed stream bytes to the pending segment.
func (w *SegmentWriter) Write(p []byte) (int, error) {
	if w.err != nil {
		return 0, w.err
	}
	if w.done {
		return 0, fmt.Errorf("store: write after commit/abort")
	}
	if q := w.st.quota(w.tenant); q > 0 {
		w.st.mu.Lock()
		used := w.st.used[w.tenant]
		w.st.mu.Unlock()
		if used+w.n+int64(len(p)) > q {
			w.err = fmt.Errorf("store: tenant %q upload exceeds %d-byte quota: %w", w.tenant, q, ErrQuota)
			return 0, w.err
		}
	}
	n, err := w.f.Write(p)
	w.n += int64(n)
	if err != nil {
		w.err = fmt.Errorf("store: writing segment: %w", err)
		return n, w.err
	}
	return n, nil
}

// Commit validates the written stream, appends its footer, reserves the
// file's size against the tenant quota, and durably publishes the file:
// fsync, rename into place, fsync the shard directory. The stream is
// visible, and Commit returns nil, only after all three. On any failure
// the upload is discarded and the reservation returned.
func (w *SegmentWriter) Commit() (err error) {
	if w.done {
		return fmt.Errorf("store: double commit")
	}
	csp := w.sp.StartChild("store.commit")
	defer func() {
		if err != nil {
			csp.SetError(err)
			w.Abort()
		}
		csp.End()
	}()
	if w.err != nil {
		return w.err
	}
	// Re-read what landed in the file: the index must describe the
	// bytes on disk, not the bytes we think we wrote.
	seg := make([]byte, w.n)
	if _, err := w.f.ReadAt(seg, 0); err != nil {
		return fmt.Errorf("store: rereading segment: %w", err)
	}
	bsp := csp.StartChild("store.build_index")
	footer, err := buildFooter(seg)
	bsp.End()
	if err != nil {
		return err
	}
	if _, err := w.f.Write(footer); err != nil {
		return fmt.Errorf("store: writing footer: %w", err)
	}
	if err := w.st.reserve(w, w.n+int64(len(footer)), w.n); err != nil {
		return err
	}
	fsp := csp.StartChild("store.fsync")
	err = w.persist()
	fsp.End()
	if err != nil {
		return err
	}
	w.done = true
	w.st.mu.Lock()
	w.e.committed = true
	w.st.mu.Unlock()
	return nil
}

// persist makes the finished temp file durable under its committed
// name: fsync, close, rename, fsync the shard directory.
func (w *SegmentWriter) persist() error {
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("store: syncing segment: %w", err)
	}
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("store: closing segment: %w", err)
	}
	if err := w.st.fs.Rename(w.path+tmpSuffix, w.path); err != nil {
		return fmt.Errorf("store: committing segment: %w", err)
	}
	if err := w.st.fs.SyncDir(filepath.Dir(w.path)); err != nil {
		return fmt.Errorf("store: syncing shard directory: %w", err)
	}
	return nil
}

// Bytes returns the number of segment bytes written so far.
func (w *SegmentWriter) Bytes() int64 { return w.n }

// Abort discards the pending stream and returns any quota it reserved.
// Safe to call after a failed Commit; idempotent.
func (w *SegmentWriter) Abort() {
	if w.done {
		return
	}
	w.done = true
	w.f.Close()                        //lint:errdrop-ok the file is being discarded
	w.st.fs.Remove(w.path + tmpSuffix) //lint:errdrop-ok best effort: Open sweeps leftover temps
	w.st.discard(w)
}
