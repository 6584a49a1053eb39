package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/server"
)

// serveSpec fixes one pastrid workload. The rates are recorded in
// BENCHMARK.json.
type serveSpec struct {
	tenants []string
	streams int // working-set streams per tenant
	blocks  int // blocks per working-set stream
	// cacheBytes is the block cache capacity; the working set holds
	// tenants*streams*blocks decoded blocks of 10368 bytes.
	cacheBytes int64
	// zipf is the exponent of the Zipf skew of reads over the working
	// set; 0 means uniform.
	zipf float64
	// rate is the fixed offered rate (requests/s) of the timed phase.
	rate float64
	// uploadFrac is the share of requests that upload a new stream of
	// blocks blocks, drawn from uploadBodies distinct bodies.
	uploadFrac   float64
	uploadBodies int
	// hot says every read after warm-up must hit the cache: a store.Get
	// or a cache fill in the traced run fails the run.
	hot bool
}

// serveMolecule and serveL give the (dd|dd) 36x36 blocks of every
// serve workload.
const (
	serveMolecule = "benzene"
	serveL        = 2
	tenantHeader  = "X-Pastri-Tenant"
	opHeader      = "X-Perfbench-Op"
)

// The traffic mix. Streams hold 24 blocks and serve-mixed has two
// tenants, the stream shape and tenant count of the repo's own load
// fleet (cmd/pastrid-bench: 24 blocks per stream, tenants fleet-a and
// fleet-b). The fleet's committed run reads 600 blocks per upload, a
// closed-loop artefact of its fixed request counts, so the mix and
// skew come from YCSB (Cooper et al., SoCC 2010) instead:
// serve-read-hot is its workload C (read only, Zipfian with the YCSB
// constant 0.99) and serve-mixed its 95:5 read:write mix of workloads
// B/D, with every write a new stream.
//
// The load comes from nproc senders with one request in flight each, so
// the senders saturate before the server does: at 2000 req/s on two
// vCPUs they were busy more than half the time and a brief stall of the
// shared machine queued every later request (read p99 varied fivefold
// between runs). At 400 and 500 req/s the median read got slower, not
// faster: idle CPUs add their wake-up time to every request. Both fixed
// rates are 1000 req/s, on a 2-vCPU Xeon about a quarter of
// serve-mixed's max_rps and a fourteenth of serve-read-hot's.
//
// Upload bodies repeat: pastrid stores every upload as a new stream and
// does not look at content, so 16 distinct bodies cost the server what
// a thousand would, at a fraction of the set-up.
var serveSpecs = map[string]serveSpec{
	// 1032 blocks (10.7 MB decoded) fit in the default 64 MiB cache.
	"serve-read-hot": {
		tenants:    []string{"t0"},
		streams:    43,
		blocks:     24,
		cacheBytes: server.DefaultConfig().CacheBytes,
		zipf:       0.99,
		rate:       1000,
		hot:        true,
	},
	// 1632 blocks (16.9 MB decoded) over a 4 MiB cache: most reads miss.
	"serve-mixed": {
		tenants:      []string{"t0", "t1"},
		streams:      34,
		blocks:       24,
		cacheBytes:   4 << 20,
		rate:         1000,
		uploadFrac:   0.05,
		uploadBodies: 16,
	},
}

// zipfCDF is the cumulative distribution of ranks 0..n-1 with
// P(k) proportional to 1/(k+1)^s. Unlike rand.Zipf it allows s <= 1.
type zipfCDF []float64

func newZipfCDF(n int, s float64) zipfCDF {
	c := make(zipfCDF, n)
	sum := 0.0
	for k := range c {
		sum += math.Pow(float64(k+1), -s)
		c[k] = sum
	}
	return c
}

// draw returns a rank.
func (c zipfCDF) draw(rng *rand.Rand) int {
	return sort.SearchFloat64s(c, rng.Float64()*c[len(c)-1])
}

// wsStream is one working-set stream and its oracle.
type wsStream struct {
	tenant string
	id     string
	data   []float64
	comp   []byte // serial core.Compress of data
	expect []byte // serial core.Decompress of comp, as wire bytes
}

// uploadBody is one distinct upload body and its oracle size.
type uploadBody struct {
	raw         []byte
	data        []float64
	storedBytes int
}

// fixture is one set-up pastrid instance with its working set loaded
// and its cache warm.
type fixture struct {
	spec     serveSpec
	cfg      core.Config
	scfg     server.Config
	srv      *server.Server
	hs       *http.Server
	served   chan error
	wrap     *wrapHandler
	base     string
	client   *http.Client
	ws       []wsStream
	bodies   []uploadBody
	zipfPerm []int // hot-rank -> global block index
	// attempts counts the client's requests per route, reconciled with
	// the server's /metrics.
	attempts map[string]*atomic.Int64
	genTime  time.Duration
	faultOp  int
	// tracing makes requests ask the wrapper for handler spans, each
	// the child of client span clientSpan0+op.
	tracing     bool
	clientSpan0 int64
	// Set by stop: the process's peak RSS (MB).
	stopped bool
	peakRSS float64
}

// block returns the stream and block of a global working-set index.
func (f *fixture) block(g int) (int, int) { return g / f.spec.blocks, g % f.spec.blocks }

// runServe runs serve-read-hot or serve-mixed: set-up (repeated, so
// setup_s is a median), a closed-loop saturation phase, the timed
// open-loop phase at the fixed rate, a second saturation phase, and the
// /metrics reconciliation; or, with --trace 1, the traced run. Codec
// passes over the workload's own blocks, for the compress/decompress/
// ratio metrics, run before the first server starts and after the last
// one stops, so a slow spell of the shared machine at either end moves
// only half of them.
func runServe(o options, r *report) error {
	spec := serveSpecs[o.workload]
	var codec passSamples
	var wsBytes int
	var codecRun func()
	if !o.trace {
		// No server runs during the codec passes: the store's writeback
		// after set-up would otherwise compete for the CPU.
		nws := len(spec.tenants) * spec.streams * spec.blocks
		ds, _, err := generate(serveMolecule, serveL, nws+spec.uploadBodies*spec.blocks, newRand(o.seed, 1))
		if err != nil {
			return err
		}
		cfg, rng := codecConfig(ds.NumSB, ds.SBSize), newRand(o.seed, 4)
		codecRun = func() { codec.add(runPasses(codecSeconds/2, ds, cfg, rng, nil, r)) }
		codecRun()
		wsBytes = ds.SizeBytes()
	}
	var setups, gens []float64
	var fx *fixture
	for i := 0; i < setupRepeats; i++ {
		if fx != nil {
			// The store stays on disk until the run ends: deleting it now
			// would put its discards in the way of the next set-up.
			if err := fx.stop(); err != nil {
				return err
			}
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		fx, err = setupServe(o, spec, filepath.Join(o.workDir, fmt.Sprintf("store-%d", i)), r)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		gens = append(gens, fx.genTime.Seconds())
	}
	defer fx.close()
	r.details["server_config"] = fx.scfg
	r.details["workload"] = map[string]any{
		"tenants": spec.tenants, "streams_per_tenant": spec.streams, "blocks_per_stream": spec.blocks,
		"cache_bytes": spec.cacheBytes, "zipf": spec.zipf, "rate": spec.rate,
		"upload_frac": spec.uploadFrac, "upload_bodies": spec.uploadBodies, "senders": nprocs(),
	}
	dur := time.Duration(o.seconds * float64(time.Second))
	ops := fx.schedule(newRand(o.seed, 3), spec.rate, dur)
	if o.trace {
		return fx.traced(o, r, ops, gens)
	}

	satRNG := newRand(o.seed, 6)
	sat := fx.saturate("sat0", satRNG, r)
	before, err := fx.scrape()
	if err != nil {
		return err
	}
	ph := fx.runPhase("timed", ops, r)
	after, err := fx.scrape()
	if err != nil {
		return err
	}
	if !ph.steady(spec.rate) {
		r.fail("%v: backlog grew to %d requests at %.0f req/s; the run is invalid", errCheck, ph.backlogEnd, spec.rate)
	}
	sat = append(sat, fx.saturate("sat1", satRNG, r)...)
	if err := fx.reconcile(r); err != nil {
		return err
	}
	if err := fx.stop(); err != nil {
		return err
	}
	codecRun()
	r.put("setup_s", median(setups), len(setups))
	r.put("compress_mbps", median(codec.compMBps), len(codec.compMBps))
	r.put("compress_1t_mbps", median(codec.comp1MBps), len(codec.comp1MBps))
	r.put("decompress_mbps", median(codec.decMBps), len(codec.decMBps))
	r.put("ratio", float64(wsBytes)/float64(codec.compBytes), 0)
	// read_p50_ms is timed from when a sender sent the read, not from
	// when it fell due: with nproc senders, the wait for a free one
	// measures the load generator, stuck behind an upload or a stalled
	// read, more than pastrid. Across three runs with 1-8 s of the
	// host's CPU time stolen, serve-mixed's median read read 0.30-0.31
	// ms from the send and 0.41-0.51 ms from the due time. How late the
	// reads were sent is recorded (client.lag_ms_p99), and a growing
	// backlog fails the run.
	p50, n, _ := windowQuantile(ph.latencyMS(false, true), 0.5)
	r.put("read_p50_ms", p50, n)
	r.put("peak_rss_mb", fx.peakRSS, 0)
	r.details["latency"] = ph.unbounded()
	r.details["max_rps"] = median(sat)
	r.details["max_rps_windows"] = sat
	r.details["server.metrics_read_p99_ms"] = histQuantile(before, after, "read_block", 0.99) * 1000
	r.details["client.lag_ms_p99"] = quantile(ph.lagMS(), 0.99)
	r.details["client.backlog_end"] = ph.backlogEnd
	return nil
}

// setupServe generates the workload's data and oracle, starts pastrid
// on a loopback port, uploads the working set and reads every block
// once, checking each against the oracle.
func setupServe(o options, spec serveSpec, storeDir string, r *report) (*fixture, error) {
	nws := len(spec.tenants) * spec.streams * spec.blocks
	npool := spec.uploadBodies * spec.blocks
	ds, gen, err := generate(serveMolecule, serveL, nws+npool, newRand(o.seed, 1))
	if err != nil {
		return nil, err
	}
	cfg := codecConfig(ds.NumSB, ds.SBSize)
	bs := cfg.BlockSize()
	fx := &fixture{spec: spec, cfg: cfg, genTime: gen, attempts: map[string]*atomic.Int64{
		"read_block": {}, "upload": {},
	}}
	// Deal the blocks out in a seeded order, so working-set streams and
	// upload bodies each get the tape's mix of block magnitudes.
	order := newRand(o.seed, 7).Perm(nws + npool)
	gather := func(from, n int) []float64 {
		out := make([]float64, 0, n*bs)
		for _, b := range order[from : from+n] {
			out = append(out, ds.Block(b)...)
		}
		return out
	}
	for t, tenant := range spec.tenants {
		for s := 0; s < spec.streams; s++ {
			data := gather((t*spec.streams+s)*spec.blocks, spec.blocks)
			comp, dec, err := oracleDecode(data, cfg)
			if err != nil {
				return nil, err
			}
			fx.ws = append(fx.ws, wsStream{tenant: tenant, id: fmt.Sprintf("ws%03d", s), data: data, comp: comp, expect: leBytes(dec)})
		}
	}
	for b := 0; b < spec.uploadBodies; b++ {
		data := gather(nws+b*spec.blocks, spec.blocks)
		comp, _, err := oracleDecode(data, cfg)
		if err != nil {
			return nil, err
		}
		fx.bodies = append(fx.bodies, uploadBody{raw: leBytes(data), data: data, storedBytes: len(comp)})
	}
	fx.zipfPerm = newRand(o.seed, 5).Perm(nws)

	fx.scfg = server.DefaultConfig()
	fx.scfg.Listen = "127.0.0.1:0"
	fx.scfg.StoreDir = storeDir
	fx.scfg.CacheBytes = spec.cacheBytes
	fx.scfg.NumSB, fx.scfg.SBSize = ds.NumSB, ds.SBSize
	fx.scfg.DefaultErrorBound = errorBound
	fx.scfg.Tenants = map[string]server.TenantConfig{}
	for _, t := range spec.tenants {
		fx.scfg.Tenants[t] = server.TenantConfig{}
	}
	// pastrid's default logging: text records at Info, here discarded.
	logger := slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelInfo}))
	fx.srv, err = server.New(fx.scfg, logger)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", fx.scfg.Listen)
	if err != nil {
		fx.srv.Close()
		return nil, err
	}
	fx.faultOp = o.faultOp
	fx.wrap = &wrapHandler{next: fx.srv.Handler(), faultOp: int64(o.faultOp)}
	fx.hs = &http.Server{Handler: fx.wrap, ReadHeaderTimeout: 10 * time.Second}
	fx.served = make(chan error, 1)
	go func() { fx.served <- fx.hs.Serve(ln) }()
	fx.base = "http://" + ln.Addr().String()
	n := nprocs()
	fx.client = &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n, DisableCompression: true},
		Timeout:   60 * time.Second,
	}

	// Upload the working set, nproc uploads at a time.
	errs := parallel(len(fx.ws), func(w, i int) error {
		st := &fx.ws[i]
		return fx.upload(st.tenant, st.id, leBytes(st.data), len(st.comp), -1)
	})
	r.count("set-up upload", errs)
	// Warm the cache and check every block once.
	bufs := make([]bytes.Buffer, n)
	errs = parallel(nws, func(w, g int) error {
		s, b := fx.block(g)
		return fx.read(&bufs[w], s, b, -1)
	})
	r.count("warm-up read", errs)
	return fx, nil
}

// parallel runs fn(worker, i) for i in [0, n) on nproc goroutines,
// waits for them, and returns each call's error.
func parallel(n int, fn func(w, i int) error) []error {
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < nprocs(); w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				errs[i] = fn(w, i)
			}
		}(w)
	}
	wg.Wait()
	return errs
}

// stop shuts the server down, closes its store and collects the
// handler spans and peak RSS; it is idempotent.
func (f *fixture) stop() error {
	if f.stopped {
		return nil
	}
	f.stopped = true
	f.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := f.hs.Shutdown(ctx)
	if serr := <-f.served; serr != nil && serr != http.ErrServerClosed && err == nil {
		err = serr
	}
	if cerr := f.srv.Close(); err == nil {
		err = cerr
	}
	f.peakRSS = peakRSSMB()
	return err
}

// close stops the server and removes its store.
func (f *fixture) close() error {
	err := f.stop()
	if rerr := os.RemoveAll(f.scfg.StoreDir); err == nil {
		err = rerr
	}
	return err
}

// upload POSTs one stream and checks the server stored exactly the
// oracle's compressed size.
func (f *fixture) upload(tenant, id string, body []byte, want int, op int64) error {
	f.attempts["upload"].Add(1)
	req, err := http.NewRequest(http.MethodPost, f.base+"/v1/streams?id="+id, bytes.NewReader(body))
	if err != nil {
		return err
	}
	f.setHeaders(req, tenant, op)
	resp, err := f.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close() //lint:errdrop-ok response body is only read; close errors cannot lose data
	var out struct {
		StoredBytes int `json:"stored_bytes"`
	}
	if resp.StatusCode != http.StatusCreated {
		msg, _ := io.ReadAll(resp.Body) //lint:errdrop-ok best-effort error text; the status already fails the upload
		return fmt.Errorf("upload %s/%s: status %d: %s", tenant, id, resp.StatusCode, bytes.TrimSpace(msg))
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return fmt.Errorf("upload %s/%s: %w", tenant, id, err)
	}
	if out.StoredBytes != want {
		return fmt.Errorf("upload %s/%s: stored %d bytes, the serial oracle compresses to %d", tenant, id, out.StoredBytes, want)
	}
	return nil
}

// setHeaders names the tenant, and the op id and tracing for the
// handler wrapper.
func (f *fixture) setHeaders(req *http.Request, tenant string, op int64) {
	req.Header.Set(tenantHeader, tenant)
	if op >= 0 {
		req.Header.Set(opHeader, strconv.FormatInt(op, 10))
	}
	if f.tracing && op >= 0 {
		req.Header.Set(traceHeader, strconv.FormatInt(f.clientSpan0+op, 10))
	}
}

// read GETs one block and compares it byte for byte with the oracle.
func (f *fixture) read(buf *bytes.Buffer, stream, block int, op int64) error {
	f.attempts["read_block"].Add(1)
	st := &f.ws[stream]
	req, err := http.NewRequest(http.MethodGet, f.base+"/v1/streams/"+st.id+"/blocks/"+strconv.Itoa(block), nil)
	if err != nil {
		return err
	}
	f.setHeaders(req, st.tenant, op)
	resp, err := f.client.Do(req)
	if err != nil {
		return err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close() //lint:errdrop-ok body fully read above; close errors cannot lose data
	if err != nil {
		return fmt.Errorf("read %s/%s/%d: %w", st.tenant, st.id, block, err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("read %s/%s/%d: status %d", st.tenant, st.id, block, resp.StatusCode)
	}
	n := len(st.expect) / f.spec.blocks
	if !bytes.Equal(buf.Bytes(), st.expect[block*n:(block+1)*n]) {
		return fmt.Errorf("read %s/%s/%d: served block differs from the serial oracle", st.tenant, st.id, block)
	}
	return nil
}

// op is one scheduled request.
type op struct {
	at     time.Duration // intended send time from the phase start
	upload bool
	stream int // read: working-set stream; upload: tenant index
	block  int // read: block; upload: body index
}

// schedule draws a Poisson arrival schedule at rate over dur, with the
// workload's read/upload mix and access skew.
func (f *fixture) schedule(rng *rand.Rand, rate float64, dur time.Duration) []op {
	var zipf zipfCDF
	nws := len(f.ws) * f.spec.blocks
	if f.spec.zipf > 0 {
		zipf = newZipfCDF(nws, f.spec.zipf)
	}
	var ops []op
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= dur {
			return ops
		}
		if rng.Float64() < f.spec.uploadFrac {
			ops = append(ops, op{at: at, upload: true, stream: rng.IntN(len(f.spec.tenants)), block: rng.IntN(len(f.bodies))})
			continue
		}
		var g int
		if zipf != nil {
			g = f.zipfPerm[zipf.draw(rng)]
		} else {
			g = rng.IntN(nws)
		}
		s, b := f.block(g)
		ops = append(ops, op{at: at, stream: s, block: b})
	}
}

// phaseResult holds the outcome of one open-loop phase.
type phaseResult struct {
	ops        []op
	start      time.Time
	sent, done []time.Time
	errs       []error
	backlogEnd int
}

// latencyMS returns, in send order, the latency (ms) of each read or
// each upload: from its intended send time, or with fromSend from when
// a sender sent it.
func (p *phaseResult) latencyMS(upload, fromSend bool) []float64 {
	var xs []float64
	for i, o := range p.ops {
		if o.upload != upload {
			continue
		}
		t0 := p.start.Add(o.at)
		if fromSend {
			t0 = p.sent[i]
		}
		xs = append(xs, float64(p.done[i].Sub(t0).Nanoseconds())/1e6)
	}
	return xs
}

// windows is the most sub-windows a phase is cut into. A window holds
// at least 10/(1-q) requests, so its q-quantile has at least ten
// samples beyond it. Latency quantiles are the median of the windows'
// quantiles: one stall of the shared machine moves one window, not the
// result.
const windows = 10

// quantile is windowQuantile of the read or upload latencies from the
// intended send time.
func (p *phaseResult) quantile(upload bool, q float64) (v float64, n, past int) {
	return windowQuantile(p.latencyMS(upload, false), q)
}

// windowQuantile returns the q-quantile of the samples xs, the number
// of samples, and the number beyond the quantile in the smallest
// window. The samples are cut, in order, into as many equal windows as
// the limits above allow, at least one, and the value is the median of
// the windows' q-quantiles.
func windowQuantile(xs []float64, q float64) (v float64, n, past int) {
	if len(xs) == 0 {
		return 0, 0, 0
	}
	minWindow := int(math.Ceil(10 / (1 - q)))
	nw := min(windows, max(1, len(xs)/minWindow))
	qs := make([]float64, nw)
	for w := range qs {
		qs[w] = quantile(xs[w*len(xs)/nw:(w+1)*len(xs)/nw], q)
	}
	return median(qs), len(xs), beyond(len(xs)/nw, q)
}

// unbounded returns the latencies (ms) from the intended send time
// that the run record carries but no bounded metric does, because on a
// shared machine they measure its stalls and its disk more than the
// program: read p50 and p99, upload p50 and p99, with sample counts and
// the samples beyond each p99.
func (p *phaseResult) unbounded() map[string]any {
	r50, _, _ := p.quantile(false, 0.5)
	r99, nr, br := p.quantile(false, 0.99)
	u50, nu, _ := p.quantile(true, 0.5)
	u99, _, bu := p.quantile(true, 0.99)
	rec := latencyRecord(r99, nr, br, u50, u99, nu, bu)
	rec["read_p50_from_due_ms"] = r50
	return rec
}

// latencyRecord is the run record's entry for the unbounded latencies.
func latencyRecord(r99 float64, nr, br int, u50, u99 float64, nu, bu int) map[string]any {
	return map[string]any{
		"read_p99_ms":               r99,
		"read_samples":              nr,
		"read_samples_beyond_p99":   br,
		"upload_p50_ms":             u50,
		"upload_p99_ms":             u99,
		"upload_samples":            nu,
		"upload_samples_beyond_p99": bu,
	}
}

// lagMS returns how late each request was sent (ms).
func (p *phaseResult) lagMS() []float64 {
	out := make([]float64, len(p.ops))
	for i, o := range p.ops {
		out[i] = float64(p.sent[i].Sub(p.start.Add(o.at)).Nanoseconds()) / 1e6
	}
	return out
}

// steady reports whether the backlog stayed bounded: when the last
// request fell due, fewer than 2% of the phase's requests (and at most
// 100 ms of arrivals) were still waiting for a sender.
func (p *phaseResult) steady(rate float64) bool {
	limit := 0.1 * rate
	if l := 0.02 * float64(len(p.ops)); l < limit {
		limit = l
	}
	if limit < float64(4*nprocs()) {
		limit = float64(4 * nprocs())
	}
	return float64(p.backlogEnd) <= limit
}

// openLoop sends ops on their schedule from nproc sender goroutines,
// each with at most one request in flight, so at most nproc
// connections. A free sender takes the earliest-due request not yet
// taken, except that while reads remain at most half the senders (at
// least one) may hold an upload: a slow upload then never holds up
// every sender, and the reads keep the others. A request that falls
// due while no sender can take it waits; its latency still counts from
// when it was due. After until, if it is not zero, no sender takes
// another request.
func openLoop(ops []op, until time.Time, exec func(w, i int) error) *phaseResult {
	p := &phaseResult{ops: ops, sent: make([]time.Time, len(ops)), done: make([]time.Time, len(ops)), errs: make([]error, len(ops))}
	if len(ops) == 0 {
		return p
	}
	n := nprocs()
	d := &dispatch{ops: ops, upCap: max(1, n/2), until: until}
	for i, o := range ops {
		if o.upload {
			d.uploads = append(d.uploads, i)
		} else {
			d.reads = append(d.reads, i)
		}
	}
	p.start = time.Now().Add(2 * time.Millisecond)
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i, ok := d.take()
				if !ok {
					return
				}
				sleepUntil(p.start.Add(ops[i].at))
				p.sent[i] = time.Now()
				p.errs[i] = exec(w, i)
				p.done[i] = time.Now()
				if ops[i].upload {
					d.release()
				}
			}
		}(w)
	}
	time.Sleep(time.Until(p.start.Add(ops[len(ops)-1].at)))
	p.backlogEnd = d.left()
	wg.Wait()
	return p
}

// dispatch hands a phase's requests to its senders in due order and
// caps the uploads in flight while reads remain.
type dispatch struct {
	mu             sync.Mutex
	ops            []op
	reads, uploads []int // op indexes of each kind, in due order
	nr, nu         int   // how many of each have been taken
	upBusy, upCap  int   // uploads in flight, and their cap
	until          time.Time
}

// take returns the earliest-due request a sender may take now. It
// returns false when none is left that the sender may take (the
// senders holding uploads take the rest), or once until has passed.
func (d *dispatch) take() (int, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.until.IsZero() && time.Now().After(d.until) {
		return 0, false
	}
	canRead := d.nr < len(d.reads)
	canUp := d.nu < len(d.uploads) && (d.upBusy < d.upCap || !canRead)
	if canRead && (!canUp || d.ops[d.reads[d.nr]].at <= d.ops[d.uploads[d.nu]].at) {
		d.nr++
		return d.reads[d.nr-1], true
	}
	if canUp {
		d.nu++
		d.upBusy++
		return d.uploads[d.nu-1], true
	}
	return 0, false
}

// release marks one upload finished.
func (d *dispatch) release() {
	d.mu.Lock()
	d.upBusy--
	d.mu.Unlock()
}

// left returns how many requests no sender has taken yet.
func (d *dispatch) left() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.reads) - d.nr + len(d.uploads) - d.nu
}

// sleepUntil blocks until t. It uses nanosleep directly: time.Sleep
// wakes up to a millisecond late on Linux, which would swamp the
// sub-millisecond latencies being measured.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		if syscall.Nanosleep(&ts, nil) == nil {
			return
		}
	}
}

// runPhase runs ops against the server. Uploads get ids unique to the
// phase; every failure is counted.
func (f *fixture) runPhase(name string, ops []op, r *report) *phaseResult {
	p := openLoop(ops, time.Time{}, f.sender(name, ops, f.tracing || f.faultOp >= 0))
	r.count(name, p.errs)
	return p
}

// sender returns the function that sends ops[i] from sender w. With
// tagged, requests carry their op id for the handler wrapper.
func (f *fixture) sender(name string, ops []op, tagged bool) func(w, i int) error {
	bufs := make([]bytes.Buffer, nprocs())
	return func(w, i int) error {
		opID := int64(-1)
		if tagged {
			opID = int64(i)
		}
		o := ops[i]
		if o.upload {
			b := &f.bodies[o.block]
			return f.upload(f.spec.tenants[o.stream], fmt.Sprintf("%s-%d", name, i), b.raw, b.storedBytes, opID)
		}
		return f.read(&bufs[w], o.stream, o.block, opID)
	}
}

// satPhase is how long each saturation phase lasts, and satWindow the
// windows its throughput is counted in; the first window is warm-up.
// satOps requests are drawn for a phase, twice what the fastest
// workload completes in satPhase on a 2-vCPU Xeon.
const (
	satPhase  = 4 * time.Second
	satWindow = 250 * time.Millisecond
	satOps    = 120000
)

// saturate measures max_rps: the workload's mix sent in a closed loop
// for satPhase, each of the nproc senders sending its next request as
// soon as its last one returns (the open-loop senders and upload cap,
// with every request already due). It returns the completed requests
// per second in each satWindow after the first.
//
// max_rps is the highest offered rate with no growing backlog; an open
// loop above it queues without bound. A search over offered rates
// judged each step on one short run, and on the shared machine a brief
// stall failed a step well below the knee, so the search's answer
// varied twofold between runs. Throughput at saturation is that rate
// measured directly. (No rate limit on latency applies: read p99 stayed
// under 11 ms at every rate below the knee in those searches.) The run
// record carries max_rps, but no bounded metric is made of it: with
// nproc requests in flight, throughput is bound by their round trips,
// and it fell by up to a third in runs where the hypervisor stole the
// most CPU time.
func (f *fixture) saturate(name string, rng *rand.Rand, r *report) []float64 {
	ops := f.schedule(rng, satOps/1e-3, time.Millisecond)
	until := time.Now().Add(satPhase)
	p := openLoop(ops, until, f.sender(name, ops, false))
	var last time.Time
	for i := range ops {
		if p.sent[i].IsZero() {
			continue
		}
		r.attempted++
		if err := p.errs[i]; err != nil {
			r.fail("%s: %v", name, err)
		}
		if p.done[i].After(last) {
			last = p.done[i]
		}
	}
	// Count only windows that end before the last completion, in case
	// the phase ran out of requests.
	counts := make([]int, max(0, int(last.Sub(p.start)/satWindow)))
	for i := range ops {
		if w := int(p.done[i].Sub(p.start) / satWindow); !p.sent[i].IsZero() && w < len(counts) {
			counts[w]++
		}
	}
	var rates []float64
	for _, n := range counts[min(1, len(counts)):] {
		rates = append(rates, float64(n)/satWindow.Seconds())
	}
	return rates
}
