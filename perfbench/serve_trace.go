package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io/fs"
	"net/http"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/blockcache"
	"repro/internal/core"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// scrape fetches /metrics as a map from series (name and labels) to
// value.
func (f *fixture) scrape() (map[string]float64, error) {
	resp, err := f.client.Get(f.base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape: %w", err)
	}
	defer resp.Body.Close() //lint:errdrop-ok response body is only read; close errors cannot lose data
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape: status %d", resp.StatusCode)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		line, _, _ = strings.Cut(line, " # ") // drop exemplars
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// sumPrefix sums every series that starts with prefix.
func sumPrefix(m map[string]float64, prefix string) float64 {
	s := 0.0
	for k, v := range m {
		if strings.HasPrefix(k, prefix) {
			s += v
		}
	}
	return s
}

// reconcile checks that the server counted exactly the requests the
// client sent, per route.
func (f *fixture) reconcile(r *report) error {
	m, err := f.scrape()
	if err != nil {
		return err
	}
	counts := map[string]any{}
	for route, n := range f.attempts {
		got := int64(sumPrefix(m, `pastrid_requests_total{route="`+route+`",`))
		counts[route] = map[string]int64{"client": n.Load(), "server": got}
		r.attempted++
		if got != n.Load() {
			r.fail("%v: /metrics counts %d %s requests, the client sent %d", errCheck, got, route, n.Load())
		}
	}
	r.details["reconciliation"] = counts
	return nil
}

// histQuantile interpolates quantile q (seconds) of a route's latency
// histogram over the requests between two scrapes, the way Prometheus
// histogram_quantile does.
func histQuantile(before, after map[string]float64, route string, q float64) float64 {
	prefix := `pastrid_request_latency_seconds_bucket{route="` + route + `",le="`
	type bucket struct{ le, n float64 }
	var bs []bucket
	for k, v := range after {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		le, err := strconv.ParseFloat(strings.TrimSuffix(k[len(prefix):], `"}`), 64)
		if err != nil {
			continue // +Inf parses; anything else is not a bucket
		}
		bs = append(bs, bucket{le, v - before[k]})
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	if len(bs) == 0 || bs[len(bs)-1].n <= 0 {
		return 0
	}
	rank := q * bs[len(bs)-1].n
	lo, prev := 0.0, 0.0
	for i, b := range bs {
		if b.n >= rank {
			if i == len(bs)-1 && i > 0 {
				return bs[i-1].le // +Inf clamps to the last finite bound
			}
			if b.n <= prev {
				return b.le
			}
			return lo + (b.le-lo)*(rank-prev)/(b.n-prev)
		}
		lo, prev = b.le, b.n
	}
	return lo
}

// storeBytes sums the size of every file in the store.
func storeBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, ierr := d.Info(); ierr == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// runtimeStats is the process's GC pause total, GC count and the
// highest goroutine count since the last call.
type runtimeStats struct {
	gcPauseNS     uint64
	numGC         uint32
	goroutinesMax int64
}

func (f *fixture) runtimeStats() runtimeStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtimeStats{ms.PauseTotalNs, ms.NumGC, f.wrap.gmax.Swap(int64(runtime.NumGoroutine()))}
}

// rawBytes is the raw size of everything in the store after the base
// and traced phases: the working set and two runs of ops' uploads.
func (f *fixture) rawBytes(ops []op) int64 {
	n := int64(len(f.ws) * f.spec.blocks)
	for _, o := range ops {
		if o.upload {
			n += 2 * int64(f.spec.blocks)
		}
	}
	return n * int64(f.cfg.BlockSize()*8)
}

// traced runs the timed schedule untraced, then again with the
// handler wrapper recording spans, then replays it through the layers'
// public calls, and reports the per-layer metrics.
func (f *fixture) traced(o options, r *report, ops []op, gens []float64) error {
	base := f.runPhase("base", ops, r)
	baseReads := base.latencyMS(false, false)
	if v, n, _ := base.quantile(false, 0.99); n > 0 {
		r.put("client.read_p99_ms", v, n)
	}
	if v, n, _ := base.quantile(true, 0.5); n > 0 {
		r.put("client.upload_p50_ms", v, n)
		v, _, _ = base.quantile(true, 0.99)
		r.put("client.upload_p99_ms", v, n)
	}

	// One recorder holds the client, handler and replay spans, so they
	// share one clock and one id sequence. The client span of op i gets
	// id clientSpan0+i, reserved here, and is the handler span's parent.
	rec := newRecorder()
	f.clientSpan0 = rec.ids.Add(int64(len(ops))) - int64(len(ops)) + 1
	f.wrap.rec.Store(rec)
	before, err := f.scrape()
	if err != nil {
		return err
	}
	rt0 := f.runtimeStats()
	stopG := f.wrap.sampleGoroutines()
	f.tracing = true
	ph := f.runPhase("traced", ops, r)
	f.tracing = false
	stopG()
	rt1 := f.runtimeStats()
	after, err := f.scrape()
	if err != nil {
		return err
	}
	if err := f.reconcile(r); err != nil {
		return err
	}
	delta := func(name string) float64 { return after[name] - before[name] }
	r.put("eri.generate_s", median(gens), len(gens))
	r.put("store.bytes_per_raw_byte", float64(storeBytes(f.scfg.StoreDir))/float64(f.rawBytes(ops)), 0)
	if err := f.stop(); err != nil {
		return err
	}
	reads := ph.latencyMS(false, false)
	for i, op := range ops {
		name := "client.read"
		if op.upload {
			name = "client.upload"
		}
		rec.add(span{ID: f.clientSpan0 + int64(i), Op: int64(i), Name: name, Start: rec.at(ph.sent[i]), End: rec.at(ph.done[i])})
	}

	handlerRead := rec.byName("server.read")
	handlerByOp := map[int64]float64{}
	for _, s := range rec.spans {
		if s.Name == "server.read" {
			handlerByOp[s.Op] = float64(s.dur().Nanoseconds()) / 1e3
		}
	}
	var edge []float64
	for i, op := range ops {
		if h, ok := handlerByOp[int64(i)]; ok && !op.upload {
			edge = append(edge, float64(ph.done[i].Sub(ph.sent[i]).Nanoseconds())/1e3-h)
		}
	}
	readsN := float64(len(reads))
	dHits, dMisses := delta("pastrid_cache_hits_total"), delta("pastrid_cache_misses_total")
	r.put("server.read_handler_us_p50", median(handlerRead), len(handlerRead))
	r.put("server.read_handler_us_p99", quantile(handlerRead, 0.99), len(handlerRead))
	if up := rec.byName("server.upload"); len(up) > 0 {
		r.put("server.upload_handler_ms_p50", median(up)/1e3, len(up))
		r.put("server.upload_handler_ms_p99", quantile(up, 0.99)/1e3, len(up))
	}
	r.put("server.goroutines_max", float64(rt1.goroutinesMax), 0)
	r.put("server.metrics_read_p99_ms", histQuantile(before, after, "read_block", 0.99)*1000, len(reads))
	r.put("runtime.gc_pause_ms_total", float64(rt1.gcPauseNS-rt0.gcPauseNS)/1e6, int(rt1.numGC-rt0.numGC))
	r.put("edge.read_us_p50", median(edge), len(edge))
	r.put("edge.read_us_p99", quantile(edge, 0.99), len(edge))
	r.put("client.lag_ms_p99", quantile(ph.lagMS(), 0.99), len(ops))
	r.put("client.backlog_end", float64(ph.backlogEnd), 0)
	if dHits+dMisses > 0 {
		r.put("blockcache.hit_rate", dHits/(dHits+dMisses), int(dHits+dMisses))
	}
	if readsN > 0 {
		r.put("blockcache.evictions_per_read", delta("pastrid_cache_evictions_total")/readsN, len(reads))
	}
	r.put("blockcache.dedup_waits", delta("pastrid_cache_dedup_waits_total"), 0)
	dFills := delta("pastrid_cache_fills_total")
	r.put("blockcache.fills", dFills, 0)
	r.put("trace.overhead_frac", median(reads)/median(baseReads)-1, len(reads))
	if !ph.steady(f.spec.rate) || !base.steady(f.spec.rate) {
		r.fail("%v: backlog grew at %.0f req/s; the run is invalid", errCheck, f.spec.rate)
	}
	if f.spec.uploadBodies > 0 {
		r.put("telemetry.collector_overhead_frac", f.collectorOverhead(), 0)
	}

	// Replay the same schedule through the layers' public calls.
	if err := f.replay(rec, ops, r); err != nil {
		return err
	}
	layerRead := rec.byName("blockcache.GetOrFill")
	r.put("server.overhead_us_p50", median(handlerRead)-median(layerRead), len(layerRead))
	kids := rec.children()
	var hitUS []float64
	decodeByOp := map[int64]float64{}
	for _, s := range rec.spans {
		switch {
		case s.Name == "blockcache.GetOrFill" && len(kids[s.ID]) == 0:
			hitUS = append(hitUS, float64(s.dur().Nanoseconds())/1e3)
		case s.Name == "core.decode.derived":
			decodeByOp[s.Op] = float64(s.dur().Nanoseconds()) / 1e3
		}
	}
	var storeRead []float64
	for _, s := range rec.spans {
		if d, ok := decodeByOp[s.Op]; ok && s.Name == "store.Segment.ReadBlock" {
			storeRead = append(storeRead, float64(s.dur().Nanoseconds())/1e3-d)
		}
	}
	r.put("blockcache.hit_us_p99", quantile(hitUS, 0.99), len(hitUS))
	getCalls := rec.count("store.Get")
	r.put("store.get_calls", float64(getCalls), 0)
	if f.spec.hot && (getCalls > 0 || dFills > 0) {
		r.fail("%v: %d store.Get calls and %.0f cache fills after warm-up; every read should hit", errCheck, getCalls, dFills)
	}
	get := rec.byName("store.Get")
	r.put("store.get_us_p50", median(get), len(get))
	r.put("store.get_us_p99", quantile(get, 0.99), len(get))
	r.put("store.read_us_p50", median(storeRead), len(storeRead))
	r.put("store.read_us_p99", quantile(storeRead, 0.99), len(storeRead))
	dec := rec.byName("core.decode.derived")
	r.put("core.decode_us_per_block", median(dec), len(dec))
	create := rec.byName("store.Create")
	r.put("store.create_us_p99", quantile(create, 0.99), len(create))
	commit := rec.byName("store.Commit")
	r.put("store.commit_ms_p50", median(commit)/1e3, len(commit))
	r.put("store.commit_ms_p99", quantile(commit, 0.99)/1e3, len(commit))
	sw := rec.byName("core.stream_write")
	r.put("core.stream_write_ms_p50", median(sw)/1e3, len(sw))
	r.put("core.stream_write_ms_p99", quantile(sw, 0.99)/1e3, len(sw))
	cov, n := rec.coverage("op.upload")
	r.put("trace.coverage_min", cov, n)
	if cov < 0.95 {
		r.fail("%v: layer spans cover only %.3f of the composed operations", errCheck, cov)
	}
	r.details["derived"] = "store.read_us = Segment.ReadBlock minus a separate core decode of the same block (core.decode.derived)"
	r.details["self_us_p50"] = rec.selfP50()
	path, err := rec.write(o.spanDir(), o.spanFile())
	if err != nil {
		return err
	}
	r.details["spans_file"] = path
	return nil
}

// collectorOverhead compresses the upload pool with a pastrid-style
// tenant collector and with none, alternating, and returns the
// fractional slowdown of the median.
func (f *fixture) collectorOverhead() float64 {
	var pool []float64
	for _, b := range f.bodies {
		pool = append(pool, b.data...)
	}
	with := f.cfg
	with.Collector = telemetry.New(-1)
	var on, off []float64
	for i := 0; i < 21; i++ {
		for _, c := range []core.Config{with, f.cfg} {
			t := time.Now()
			if _, err := core.CompressWorkers(pool, c, nprocs(), nil); err != nil {
				return 0
			}
			d := time.Since(t).Seconds()
			if c.Collector != nil {
				on = append(on, d)
			} else {
				off = append(off, d)
			}
		}
	}
	return median(on)/median(off) - 1
}

// replayer composes the layers the way the pastrid handlers do, with a
// span around each public call.
type replayer struct {
	f     *fixture
	st    *store.Store
	cache *blockcache.Cache
	cols  map[string]*telemetry.Collector
	rec   *recorder
}

// replay opens the stopped server's store with a fresh cache, warms the
// cache with the same warm-up reads, then replays ops on their schedule.
func (f *fixture) replay(rec *recorder, ops []op, r *report) error {
	st, err := store.Open(store.Config{Dir: f.scfg.StoreDir, Shards: f.scfg.Shards})
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	defer st.Close()
	rp := &replayer{f: f, st: st, cache: blockcache.New(f.spec.cacheBytes, nil), cols: map[string]*telemetry.Collector{}}
	for _, t := range f.spec.tenants {
		rp.cols[t] = telemetry.New(-1)
	}
	for g := 0; g < len(f.ws)*f.spec.blocks; g++ {
		s, b := f.block(g)
		if err := rp.read(-1, s, b); err != nil {
			return fmt.Errorf("replay warm-up: %w", err)
		}
	}
	rp.rec = rec
	p := openLoop(ops, time.Time{}, func(w, i int) error {
		o := ops[i]
		if o.upload {
			return rp.upload(int64(i), f.spec.tenants[o.stream], &f.bodies[o.block], fmt.Sprintf("replay-%d", i))
		}
		return rp.read(int64(i), o.stream, o.block)
	})
	r.count("replay", p.errs)
	return nil
}

// read mirrors handleReadBlock: cache.GetOrFill whose fill runs
// store.Get and Segment.ReadBlock. The read is that one layer call, so
// its span is the operation. On a miss it also times a core decode of
// the same block, outside the operation, so the store's own time can be
// derived.
func (rp *replayer) read(op int64, s, b int) error {
	ws := &rp.f.ws[s]
	var data []float64
	var err error
	missed := false
	rec := rp.rec
	key := blockcache.Key{Tenant: ws.tenant, Stream: ws.id, Block: b}
	rec.timed(0, op, "blockcache.GetOrFill", func(cid int64) {
		data, err = rp.cache.GetOrFill(key, func() ([]float64, error) {
			missed = true
			var seg *store.Segment
			var ferr error
			rec.timed(cid, op, "store.Get", func(int64) { seg, ferr = rp.st.Get(ws.tenant, ws.id) })
			if ferr != nil {
				return nil, ferr
			}
			dst := make([]float64, seg.BlockSize())
			rec.timed(cid, op, "store.Segment.ReadBlock", func(int64) { ferr = seg.ReadBlock(b, dst) })
			return dst, ferr
		})
	})
	if err != nil {
		return err
	}
	n := len(ws.expect) / rp.f.spec.blocks
	if !bytes.Equal(leBytes(data), ws.expect[b*n:(b+1)*n]) {
		return fmt.Errorf("replay read %s/%s/%d differs from the serial oracle", ws.tenant, ws.id, b)
	}
	if missed && rec != nil {
		br, err := core.NewBlockReader(ws.comp)
		if err != nil {
			return err
		}
		dst := make([]float64, br.Config().BlockSize())
		rec.timed(0, op, "core.decode.derived", func(int64) { err = br.ReadBlock(b, dst) })
		return err
	}
	return nil
}

// upload mirrors handleUpload: store.Create, a ParallelStreamWriter
// with the tenant's collector fed block by block, then Commit.
func (rp *replayer) upload(op int64, tenant string, body *uploadBody, id string) error {
	var err error
	rec := rp.rec
	rec.timed(0, op, "op.upload", func(pid int64) {
		var sw *store.SegmentWriter
		rec.timed(pid, op, "store.Create", func(int64) { sw, err = rp.st.Create(tenant, id) })
		if err != nil {
			return
		}
		cfg := rp.f.cfg
		cfg.Collector = rp.cols[tenant]
		rec.timed(pid, op, "core.stream_write", func(sid int64) {
			var psw *core.ParallelStreamWriter
			rec.timed(sid, op, "core.NewParallelStreamWriter", func(int64) {
				psw, err = core.NewParallelStreamWriter(sw, cfg, rp.f.scfg.Workers)
			})
			if err != nil {
				return
			}
			bs := cfg.BlockSize()
			for k := 0; k < len(body.data)/bs && err == nil; k++ {
				rec.timed(sid, op, "core.WriteBlock", func(int64) { err = psw.WriteBlock(body.data[k*bs : (k+1)*bs]) })
			}
			rec.timed(sid, op, "core.Close", func(int64) {
				if cerr := psw.Close(); err == nil {
					err = cerr
				}
			})
		})
		if err == nil && sw.Bytes() != int64(body.storedBytes) {
			err = fmt.Errorf("replay upload %s/%s: wrote %d bytes, the serial oracle compresses to %d", tenant, id, sw.Bytes(), body.storedBytes)
		}
		if err != nil {
			sw.Abort()
			return
		}
		rec.timed(pid, op, "store.Commit", func(int64) { err = sw.Commit() })
	})
	return err
}
