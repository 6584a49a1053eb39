// Command perfbench is the repository's benchmark: one command that
// runs a named workload with a given seed, checks every output against
// an independent oracle, and prints every metric by name and unit.
//
// Usage (from the repository root; run.sh builds this package first):
//
//	bash perfbench/run.sh --workload dump-load-ff --seed 1 --seconds 10 --trace 0
//
// Workloads (BENCHMARK.json records why each was chosen):
//
//   - dump-load-ff: the paper's in-situ tape. A batch job with one
//     caller compresses and reloads a ~48 MB (ff|ff) tape through
//     internal/core only; store, blockcache and server do no work.
//   - serve-read-hot: open-loop Poisson single-block GETs, Zipf-skewed
//     over a (dd|dd) working set that fits in pastrid's block cache.
//   - serve-mixed: open-loop reads and uploads from two tenants; reads
//     are uniform over a working set 4x the cache, so most miss.
//
// The serve workloads run pastrid (server.New with DefaultConfig
// tracing and SLO settings) in this process behind a loopback listener,
// and load it from at most nproc sender goroutines over at most nproc
// keep-alive connections.
//
// With --trace 0 the run prints the end-to-end metrics; with --trace 1
// it runs the same workload untraced and then traced, replays the
// operation sequence through the layers' public calls with a span
// around each, and prints the per-layer metrics. The last line of
// standard output is the JSON result; the line before it is the run
// record (machine, toolchain, commit, seed, server config, sample
// counts). Spans of a traced run are written under .bench_build/.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report accumulates one run's metrics, sample counts, checks and
// free-form details for the run record.
type report struct {
	metrics   map[string]metric
	samples   map[string]int
	details   map[string]any
	attempted int64
	failed    int64
	failures  []string
}

func newReport() *report {
	return &report{
		metrics: map[string]metric{},
		samples: map[string]int{},
		details: map[string]any{},
	}
}

// set records a metric; n is the number of samples behind it (0 when
// the value is not a statistic over samples).
func (r *report) set(name, unit string, v float64, n int) {
	r.metrics[name] = metric{Value: v, Unit: unit}
	if n > 0 {
		r.samples[name] = n
	}
}

// fail records a failed operation or a failed check.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// count records one attempted operation per entry of errs and a
// failure for each non-nil one.
func (r *report) count(what string, errs []error) {
	r.attempted += int64(len(errs))
	for _, err := range errs {
		if err != nil {
			r.fail("%s: %v", what, err)
		}
	}
}

// options are the command-line arguments of one run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// faultOp, when >= 0, flips one byte of the response to the timed
	// read with that op id (the benchmark's own fault test).
	faultOp int
	// outDir holds the run's scratch store and the spans of traced runs.
	outDir string
	// workDir is this run's scratch directory under outDir.
	workDir string
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(o options, r *report) error{
	"dump-load-ff":   runDumpLoad,
	"serve-read-hot": runServe,
	"serve-mixed":    runServe,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) //lint:nopanic-ok command entry point: the exit code reports the run's outcome
}

// run parses args, runs the workload and prints the result. It returns
// the process exit code: 0 when every check passed, 1 when the run
// completed with failures, 2 when it could not run at all.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var seconds int
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload name")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed")
	fs.IntVar(&seconds, "seconds", 10, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.IntVar(&o.faultOp, "fault-op", -1, "flip one byte of the served block of this timed read (fault test)")
	fs.StringVar(&o.outDir, "out", ".bench_build/perfbench", "directory for the run's scratch store and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runner, ok := workloads[o.workload]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", o.workload)
		return 2
	}
	if seconds < 1 || trace < 0 || trace > 1 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	o.seconds = float64(seconds)
	o.trace = trace == 1
	dir, err := makeWorkDir(filepath.Join(o.outDir, "work"))
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	defer os.RemoveAll(dir) //lint:errdrop-ok best-effort removal of the run's scratch store; results are already printed
	o.workDir = dir

	r := newReport()
	start := time.Now()
	if err := runner(o, r); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if r.attempted < 1 {
		fmt.Fprintln(stderr, "perfbench: the run attempted no operations")
		return 2
	}
	r.details["failed_frac"] = float64(r.failed) / float64(r.attempted)
	r.details["failures"] = r.failures
	r.details["wall_s"] = time.Since(start).Seconds()
	rec := map[string]any{
		"run":     runRecord(o),
		"samples": r.samples,
		"details": r.details,
	}
	list := endToEnd
	if o.trace {
		r.fillMissing(perLayer)
		list = perLayer
	}
	res := result{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metric, len(list)),
	}
	for _, m := range list {
		v, ok := r.metrics[m.name]
		if !ok {
			fmt.Fprintf(stderr, "perfbench: %s did not measure %s\n", o.workload, m.name)
			return 2
		}
		res.Metrics[m.name] = v
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(rec); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if !res.Correct {
		for _, f := range r.failures {
			fmt.Fprintln(stderr, "perfbench: FAIL:", f)
		}
		return 1
	}
	return 0
}

// spanDir is where traced runs write their spans.
func (o options) spanDir() string { return filepath.Join(o.outDir, "spans") }

// spanFile names the span file of a traced run.
func (o options) spanFile() string { return fmt.Sprintf("%s-seed%d.json", o.workload, o.seed) }

// makeWorkDir creates a fresh directory for one run under base.
func makeWorkDir(base string) (string, error) {
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", fmt.Errorf("creating work dir: %w", err)
	}
	return os.MkdirTemp(base, "run-")
}

// quantile returns the q-quantile of xs (nearest rank on a sorted
// copy), or 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// beyond returns how many of n sorted samples lie above the one
// quantile returns for q.
func beyond(n int, q float64) int {
	i := int(q*float64(n)+0.5) - 1
	return n - 1 - min(max(i, 0), n-1)
}

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// nprocs is the machine's CPU count: worker count of the nproc codec
// passes, and the bound on sender goroutines and connections.
func nprocs() int { return runtime.NumCPU() }

// errCheck marks a failed self-check of the benchmark's own design
// (as opposed to a failed operation of the program under test).
var errCheck = errors.New("perfbench check failed")
