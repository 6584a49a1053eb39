package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strconv"
	"strings"
	"testing"
)

// benchmarkJSON is the part of ../BENCHMARK.json the tests check.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// runBench runs the benchmark in-process and returns its exit code and
// parsed result line; the run record (the line before) goes to rec when
// it is not nil.
func runBench(t *testing.T, rec any, args ...string) (int, result) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := run(append(args, "--out", t.TempDir()), &out, &errOut)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%v: last line is not a result: %v\nstdout:\n%s\nstderr:\n%s", args, err, out.String(), errOut.String())
	}
	if rec != nil && len(lines) > 1 {
		if err := json.Unmarshal([]byte(lines[len(lines)-2]), rec); err != nil {
			t.Fatalf("%v: run record: %v", args, err)
		}
	}
	if code != 0 {
		t.Logf("%v: exit %d\nstderr:\n%s", args, code, errOut.String())
	}
	return code, res
}

// TestMetricListsMatchBenchmarkJSON keeps the metric tables in the code
// and BENCHMARK.json in step.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	if len(bj.EndToEnd) != len(endToEnd) || len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the code %d+%d",
			len(bj.EndToEnd), len(bj.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range bj.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end[%d] = %s %s, code has %s %s", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
	}
	for i, m := range bj.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d] = %s %s, code has %s %s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
	for _, w := range bj.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no runner", w.Name)
		}
	}
}

// TestSmoke runs every workload for one second, untraced and traced,
// and checks that it passes its own checks and prints every named
// metric with its unit.
func TestSmoke(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	for _, w := range bj.Workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.Name+"/trace"+trace, func(t *testing.T) {
				var rec struct {
					Details struct {
						SpansFile string `json:"spans_file"`
					} `json:"details"`
				}
				code, res := runBench(t, &rec, "--workload", w.Name, "--seed", "7", "--seconds", "1", "--trace", trace)
				if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("exit %d, correct %v, %d of %d failed", code, res.Correct, res.Failed, res.Attempted)
				}
				want := bj.EndToEnd
				if trace == "1" {
					want = bj.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("printed %d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s has unit %q, want %q", m.Name, got.Unit, m.Unit)
					case trace == "0" && !(got.Value > 0):
						t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, got.Value)
					}
				}
				if trace == "1" {
					checkSpans(t, rec.Details.SpansFile)
				}
			})
		}
	}
}

// TestFlippedByteIsCounted flips one byte of one served block with the
// benchmark-side handler wrapper and checks the oracle catches it.
func TestFlippedByteIsCounted(t *testing.T) {
	const faultOp = 3
	code, res := runBench(t, nil, "--workload", "serve-read-hot", "--seed", "7", "--seconds", "1",
		"--fault-op", strconv.Itoa(faultOp))
	if code != 1 || res.Correct || res.Failed != 1 {
		t.Fatalf("exit %d, correct %v, failed %d; want exit 1, incorrect, exactly 1 failure", code, res.Correct, res.Failed)
	}
}

// checkSpans checks a traced run's span file: ids are unique, every
// parent exists, and each child lies within its parent and shares its
// operation.
func checkSpans(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(b, &spans); err != nil {
		t.Fatal(err)
	}
	byID := make(map[int64]span, len(spans))
	for _, s := range spans {
		if _, dup := byID[s.ID]; dup {
			t.Fatalf("span id %d used twice", s.ID)
		}
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		switch {
		case !ok:
			t.Fatalf("span %d %s: parent %d missing", s.ID, s.Name, s.Parent)
		case p.Op != s.Op || s.Start < p.Start || s.End > p.End:
			t.Fatalf("span %d %s [%d,%d] op %d lies outside its parent %d %s [%d,%d] op %d",
				s.ID, s.Name, s.Start, s.End, s.Op, p.ID, p.Name, p.Start, p.End, p.Op)
		}
	}
}
