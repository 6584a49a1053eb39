package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/eri"
)

// The dump-load-ff tape: 600 (ff|ff) 100x100 blocks of the benzene
// cluster, 48 MB raw. Benzene is the paper molecule whose (ff|ff)
// screening fits a set-up of a few seconds.
const (
	tapeMolecule = "benzene"
	tapeL        = 3
	tapeBlocks   = 600
	// setupRepeats is how many times each run sets up, so setup_s is a
	// median.
	setupRepeats = 3
	// reloadsPerPass single-block reloads and dumpsPerPass single-block
	// dumps follow every pass; one pass alone puts two samples beyond
	// their p99, a run of seconds hundreds.
	reloadsPerPass = 400
	dumpsPerPass   = 200
)

// passSamples collects the timings of dump-load passes.
type passSamples struct {
	compMBps, comp1MBps, decMBps []float64
	compSec, comp1Sec            []float64
	reloadMS, dumpMS, reloadRPS  []float64
	allocsPerBlock, bytesPerBlk  []float64
	compBytes                    int
}

// codecSeconds is how long the codec passes of a serve workload run,
// half before its first server starts and half after its last stops.
const codecSeconds = 6

// add appends the samples of q.
func (ps *passSamples) add(q passSamples) {
	ps.compMBps = append(ps.compMBps, q.compMBps...)
	ps.comp1MBps = append(ps.comp1MBps, q.comp1MBps...)
	ps.decMBps = append(ps.decMBps, q.decMBps...)
	ps.compSec = append(ps.compSec, q.compSec...)
	ps.comp1Sec = append(ps.comp1Sec, q.comp1Sec...)
	ps.reloadMS = append(ps.reloadMS, q.reloadMS...)
	ps.dumpMS = append(ps.dumpMS, q.dumpMS...)
	ps.reloadRPS = append(ps.reloadRPS, q.reloadRPS...)
	ps.allocsPerBlock = append(ps.allocsPerBlock, q.allocsPerBlock...)
	ps.bytesPerBlk = append(ps.bytesPerBlk, q.bytesPerBlk...)
	ps.compBytes = q.compBytes
}

// runDumpLoad is the dump-load-ff workload. Each pass dumps the tape
// with core.CompressWorkers at nproc workers, reloads it with
// core.Decompress at nproc, dumps it again at 1 worker, then reloads
// reloadsPerPass random single blocks (core.BlockReader, nproc callers)
// and dumps dumpsPerPass random single blocks (core.Compress, one
// caller). No store, cache or server code runs.
//
// End-to-end metrics: compress/decompress throughput and ratio of the
// tape; read_p50_ms = single-block reload latency. Single-block dump
// latency is the workload's upload latency (client.upload_*), and
// single-block reloads per second at nproc callers its max_rps (run
// record).
func runDumpLoad(o options, r *report) error {
	var setups, gens []float64
	var tape *eri.Dataset
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		ds, gen, err := generate(tapeMolecule, tapeL, tapeBlocks, newRand(o.seed, 1))
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		gens = append(gens, gen.Seconds())
		tape = ds
	}
	cfg := codecConfig(tape.NumSB, tape.SBSize)
	rng := newRand(o.seed, 2)
	r.details["tape"] = map[string]any{
		"molecule": tapeMolecule, "blocks": tape.Blocks, "num_sb": tape.NumSB,
		"sb_size": tape.SBSize, "raw_bytes": tape.SizeBytes(), "error_bound": errorBound,
		"workers": nprocs(), "collector": "nil",
	}

	base := runPasses(o.seconds, tape, cfg, rng, nil, r)
	if !o.trace {
		r.put("setup_s", median(setups), len(setups))
		r.put("compress_mbps", median(base.compMBps), len(base.compMBps))
		r.put("compress_1t_mbps", median(base.comp1MBps), len(base.comp1MBps))
		r.put("decompress_mbps", median(base.decMBps), len(base.decMBps))
		r.put("ratio", float64(tape.SizeBytes())/float64(base.compBytes), 0)
		r.put("read_p50_ms", median(base.reloadMS), len(base.reloadMS))
		r.details["max_rps"] = median(base.reloadRPS)
		r.details["latency"] = base.unbounded()
		r.put("peak_rss_mb", peakRSSMB(), 0)
		return nil
	}

	rec := newRecorder()
	traced := runPasses(o.seconds, tape, cfg, rng, rec, r)
	r.put("client.read_p99_ms", quantile(base.reloadMS, 0.99), len(base.reloadMS))
	r.put("client.upload_p50_ms", median(base.dumpMS), len(base.dumpMS))
	r.put("client.upload_p99_ms", quantile(base.dumpMS, 0.99), len(base.dumpMS))
	r.put("eri.generate_s", median(gens), len(gens))
	r.put("core.encode_us_per_block", median(traced.comp1Sec)/float64(tape.Blocks)*1e6, len(traced.comp1Sec))
	r.put("core.parallel_eff", median(traced.compMBps)/(float64(nprocs())*median(traced.comp1MBps)), len(traced.compMBps))
	dec := rec.byName("core.BlockReader.ReadBlock")
	r.put("core.decode_us_per_block", median(dec), len(dec))
	r.put("core.allocs_per_block", median(traced.allocsPerBlock), len(traced.allocsPerBlock))
	r.put("core.bytes_per_block", median(traced.bytesPerBlk), len(traced.bytesPerBlk))
	r.put("trace.overhead_frac", median(traced.compSec)/median(base.compSec)-1, len(traced.compSec))
	cov, n := rec.coverage("op.pass")
	r.put("trace.coverage_min", cov, n)
	if cov < 0.95 {
		r.fail("%v: layer spans cover only %.3f of a pass", errCheck, cov)
	}
	r.details["self_us_p50"] = rec.selfP50()
	path, err := rec.write(o.spanDir(), o.spanFile())
	if err != nil {
		return err
	}
	r.details["spans_file"] = path
	return nil
}

// unbounded returns the single-block reload p99 and dump p50 and p99
// latencies for the run record (see phaseResult.unbounded).
func (ps passSamples) unbounded() map[string]any {
	nr, nu := len(ps.reloadMS), len(ps.dumpMS)
	return latencyRecord(quantile(ps.reloadMS, 0.99), nr, beyond(nr, 0.99),
		median(ps.dumpMS), quantile(ps.dumpMS, 0.99), nu, beyond(nu, 0.99))
}

// runPasses runs dump-load passes until seconds have elapsed (at least
// one), checking every output. With a recorder, every pass is an
// "op.pass" span whose children are the core calls.
func runPasses(seconds float64, tape *eri.Dataset, cfg core.Config, rng *rand.Rand, rec *recorder, r *report) passSamples {
	var ps passSamples
	rawMB := float64(tape.SizeBytes()) / 1e6
	nproc := nprocs()
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for pass := int64(0); pass == 0 || time.Now().Before(deadline); pass++ {
		var comp, comp1 []byte
		var dec []float64
		var errs [3]error
		var ms0, ms1 runtime.MemStats
		if rec != nil {
			runtime.ReadMemStats(&ms0)
		}
		var dC, dD, dC1 time.Duration
		var reloads, dumps []float64
		var rps float64
		rec.timed(0, pass, "op.pass", func(id int64) {
			dC = rec.timed(id, pass, "core.CompressWorkers", func(int64) {
				comp, errs[0] = core.CompressWorkers(tape.Data, cfg, nproc, nil)
			})
			if rec != nil {
				runtime.ReadMemStats(&ms1)
			}
			dD = rec.timed(id, pass, "core.Decompress", func(int64) {
				dec, errs[1] = core.Decompress(comp, nproc)
			})
			dC1 = rec.timed(id, pass, "core.CompressWorkers.1", func(int64) {
				comp1, errs[2] = core.CompressWorkers(tape.Data, cfg, 1, nil)
			})
			if errs[0] == nil && errs[1] == nil {
				reloads, rps = reloadBlocks(comp, dec, cfg, rng, rec, id, pass, r)
				dumps = dumpBlocks(tape, comp, cfg, rng, rec, id, pass, r)
			}
		})
		r.attempted += 3
		if errs[0] != nil || errs[1] != nil || errs[2] != nil {
			r.fail("pass %d: %v / %v / %v", pass, errs[0], errs[1], errs[2])
			continue
		}
		if !bytes.Equal(comp, comp1) {
			r.fail("pass %d: %d-worker stream differs from the 1-worker stream", pass, nproc)
		}
		if e := maxAbsErr(tape.Data, dec); !(e <= errorBound) {
			r.fail("pass %d: max |x - x'| = %g exceeds the error bound %g", pass, e, errorBound)
		}
		ps.compMBps = append(ps.compMBps, rawMB/dC.Seconds())
		ps.decMBps = append(ps.decMBps, rawMB/dD.Seconds())
		ps.comp1MBps = append(ps.comp1MBps, rawMB/dC1.Seconds())
		ps.compSec = append(ps.compSec, dC.Seconds())
		ps.comp1Sec = append(ps.comp1Sec, dC1.Seconds())
		ps.reloadMS = append(ps.reloadMS, reloads...)
		ps.dumpMS = append(ps.dumpMS, dumps...)
		ps.reloadRPS = append(ps.reloadRPS, rps)
		ps.compBytes = len(comp)
		if rec != nil {
			ps.allocsPerBlock = append(ps.allocsPerBlock, float64(ms1.Mallocs-ms0.Mallocs)/float64(tape.Blocks))
			ps.bytesPerBlk = append(ps.bytesPerBlk, float64(ms1.TotalAlloc-ms0.TotalAlloc)/float64(tape.Blocks))
		}
	}
	return ps
}

// reloadBlocks reloads reloadsPerPass random single blocks from the
// dumped tape with nproc concurrent callers, each with its own
// core.BlockReader, comparing every block bit for bit with the full
// Decompress. It returns the per-call latencies (ms) and the reload
// rate (blocks/s).
func reloadBlocks(comp []byte, dec []float64, cfg core.Config, rng *rand.Rand, rec *recorder, parent, pass int64, r *report) ([]float64, float64) {
	nproc := nprocs()
	bs := cfg.BlockSize()
	nblocks := len(dec) / bs
	picks := make([]int, reloadsPerPass)
	for i := range picks {
		picks[i] = rng.IntN(nblocks)
	}
	lat := make([]float64, len(picks))
	bad := make([]error, len(picks))
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < nproc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			br, err := core.NewBlockReader(comp)
			dst := make([]float64, bs)
			for i := w; i < len(picks); i += nproc {
				if err != nil {
					bad[i] = err
					continue
				}
				b := picks[i]
				var rerr error
				d := rec.timed(parent, pass, "core.BlockReader.ReadBlock", func(int64) { rerr = br.ReadBlock(b, dst) })
				lat[i] = float64(d.Nanoseconds()) / 1e6
				if rerr == nil && !sameBits(dst, dec[b*bs:(b+1)*bs]) {
					rerr = fmt.Errorf("block %d differs from the full decompress", b)
				}
				bad[i] = rerr
			}
		}(w)
	}
	wg.Wait()
	rps := float64(len(picks)) / time.Since(t0).Seconds()
	r.attempted += int64(len(picks))
	for _, err := range bad {
		if err != nil {
			r.fail("pass %d reload: %v", pass, err)
		}
	}
	return lat, rps
}

// dumpBlocks dumps dumpsPerPass random single blocks as streams of
// their own with core.Compress (one caller, one worker) and checks
// each payload equals that block's payload in the full tape stream.
func dumpBlocks(tape *eri.Dataset, comp []byte, cfg core.Config, rng *rand.Rand, rec *recorder, parent, pass int64, r *report) []float64 {
	br, err := core.NewBlockReader(comp)
	if err != nil {
		r.attempted++
		r.fail("pass %d dump: %v", pass, err)
		return nil
	}
	one := cfg
	one.Workers = 1
	lat := make([]float64, 0, dumpsPerPass)
	for i := 0; i < dumpsPerPass; i++ {
		b := rng.IntN(tape.Blocks)
		var out []byte
		var cerr error
		d := rec.timed(parent, pass, "core.Compress.block", func(int64) { out, cerr = core.Compress(tape.Block(b), one, nil) })
		lat = append(lat, float64(d.Nanoseconds())/1e6)
		r.attempted++
		if cerr == nil {
			off, n, err := br.BlockSpan(b)
			if err != nil {
				cerr = err
			} else if !bytes.HasSuffix(out, comp[off:off+n]) {
				cerr = fmt.Errorf("block %d payload differs from the tape's", b)
			}
		}
		if cerr != nil {
			r.fail("pass %d dump: %v", pass, cerr)
		}
	}
	return lat
}

// sameBits reports whether a and b hold bit-identical values.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
