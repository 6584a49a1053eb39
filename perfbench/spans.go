package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark from
// outside the layer. Times are nanoseconds since the recorder's epoch.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0 = root
	Op     int64  `json:"op"`     // operation id; -1 = not part of an operation
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced runs call the same code.
type recorder struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// timed runs f, passing it the id of the span it runs under, and
// returns how long f took. With a nil recorder it only times f.
func (r *recorder) timed(parent, op int64, name string, f func(id int64)) time.Duration {
	var id int64
	if r != nil {
		id = r.ids.Add(1)
	}
	t := time.Now()
	f(id)
	d := time.Since(t)
	if r != nil {
		start := t.Sub(r.epoch).Nanoseconds()
		r.add(span{ID: id, Parent: parent, Op: op, Name: name, Start: start, End: start + d.Nanoseconds()})
	}
	return d
}

// add stores a finished span.
func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// at converts a wall-clock time to the recorder's nanosecond clock.
func (r *recorder) at(t time.Time) int64 { return t.Sub(r.epoch).Nanoseconds() }

// byName returns the durations (µs) of all spans called name.
func (r *recorder) byName(name string) []float64 {
	var out []float64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, float64(s.dur().Nanoseconds())/1e3)
		}
	}
	return out
}

// count returns the number of spans whose name has the given prefix.
func (r *recorder) count(prefix string) int {
	n := 0
	for _, s := range r.spans {
		if strings.HasPrefix(s.Name, prefix) {
			n++
		}
	}
	return n
}

// children groups span indexes by parent id.
func (r *recorder) children() map[int64][]int {
	kids := make(map[int64][]int)
	for i, s := range r.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	return kids
}

// covered returns how much of s the given spans cover (the union of
// their intervals clipped to s).
func covered(s span, spans []span, idx []int) time.Duration {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(idx))
	for _, i := range idx {
		a, b := spans[i].Start, spans[i].End
		if a < s.Start {
			a = s.Start
		}
		if b > s.End {
			b = s.End
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	curA, curB = -1, -1
	for _, v := range ivs {
		if v.a > curB {
			total += curB - curA
			curA, curB = v.a, v.b
		} else if v.b > curB {
			curB = v.b
		}
	}
	total += curB - curA
	return time.Duration(total)
}

// selfP50 returns, per span name, the median self time (µs): a span's
// duration minus the part its child spans cover.
func (r *recorder) selfP50() map[string]float64 {
	kids := r.children()
	self := map[string][]float64{}
	for _, s := range r.spans {
		d := s.dur() - covered(s, r.spans, kids[s.ID])
		self[s.Name] = append(self[s.Name], float64(d.Nanoseconds())/1e3)
	}
	out := make(map[string]float64, len(self))
	for name, xs := range self {
		out[name] = median(xs)
	}
	return out
}

// coverage returns the share of the total time of the operation spans
// called opName that their child layer spans cover, and how many such
// operations there were.
func (r *recorder) coverage(opName string) (float64, int) {
	kids := r.children()
	var cov, total time.Duration
	n := 0
	for _, s := range r.spans {
		if s.Name == opName {
			cov += covered(s, r.spans, kids[s.ID])
			total += s.dur()
			n++
		}
	}
	if total <= 0 {
		return 1, n
	}
	return float64(cov) / float64(total), n
}

// write saves the spans as JSON under dir.
func (r *recorder) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	r.mu.Lock()
	err = json.NewEncoder(f).Encode(r.spans)
	r.mu.Unlock()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return "", fmt.Errorf("writing spans: %w", err)
	}
	return path, nil
}
