package main

import (
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Times are
// seconds since the recorder started; Parent 0 marks a root.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Cell   string  `json:"cell,omitempty"`
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
}

func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// recorder keeps spans in memory; safe for concurrent use.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) since(t time.Time) float64 { return t.Sub(r.t0).Seconds() }

// add records a finished span and returns its id.
func (r *recorder) add(name string, parent int, cell string, start, end time.Time) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Cell: cell,
		Start: r.since(start), End: r.since(end)})
	return id
}

// begin opens a span whose end is set by end(id).
func (r *recorder) begin(name string, parent int, cell string) int {
	now := time.Now()
	return r.add(name, parent, cell, now, now)
}

func (r *recorder) end(id int) {
	now := r.since(time.Now())
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// do records f's call as one span.
func (r *recorder) do(name string, parent int, cell string, f func() error) error {
	start := time.Now()
	err := f()
	r.add(name, parent, cell, start, time.Now())
	return err
}

// rootWall is the duration of the first root span: the workload itself
// (later roots are probes).
func (r *recorder) rootWall() float64 {
	for _, s := range r.spans {
		if s.Parent == 0 {
			return s.End - s.Start
		}
	}
	return 0
}

// total sums the durations of every span with this name.
func (r *recorder) total(name string) float64 {
	var t float64
	for _, s := range r.spans {
		if s.Name == name {
			t += s.End - s.Start
		}
	}
	return t
}

// durations lists the durations of every span with this name, in ms.
func (r *recorder) durationsMS(name string) []float64 {
	var xs []float64
	for _, s := range r.spans {
		if s.Name == name {
			xs = append(xs, 1000*(s.End-s.Start))
		}
	}
	return xs
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover (children clipped to the parent, overlapping
// children counted once).
func selfTimes(spans []span) map[int]float64 {
	kids := make(map[int][][2]float64)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]float64{s.Start, s.End})
		}
	}
	self := make(map[int]float64, len(spans))
	for _, s := range spans {
		self[s.ID] = (s.End - s.Start) - covered(kids[s.ID], s.Start, s.End)
	}
	return self
}

// covered is the length of the union of intervals clipped to [lo, hi].
func covered(ivs [][2]float64, lo, hi float64) float64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var sum float64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			sum += b - a
			cur = b
		}
	}
	return sum
}

// layerSelf sums self time by layer (span-name prefix) over the tree of
// the first root span with this name.
func (r *recorder) layerSelf(rootName string) map[string]float64 {
	self := selfTimes(r.spans)
	parent := make(map[int]int, len(r.spans))
	root := 0
	for _, s := range r.spans {
		parent[s.ID] = s.Parent
		if s.Parent == 0 && root == 0 && s.Name == rootName {
			root = s.ID
		}
	}
	out := make(map[string]float64)
	for _, s := range r.spans {
		id := s.ID
		for parent[id] != 0 {
			id = parent[id]
		}
		if id == root {
			out[s.layer()] += self[s.ID]
		}
	}
	return out
}

// tracer couples the span recorder with the per-layer metric values.
type tracer struct {
	// timed is the traced counterpart of the untraced run's wall_s, when
	// the workload's timed phase is not its whole root span.
	timed  float64
	rec    *recorder
	values map[string]float64
}

func newTracer() *tracer { return &tracer{rec: newRecorder(), values: make(map[string]float64)} }

func (t *tracer) set(name string, v float64) { t.values[name] = v }

// setPct sets name to the p-th percentile of xs when at least ten samples
// lie beyond it; otherwise the metric reads 0 (not reported).
func (t *tracer) setPct(name string, xs []float64, p float64) {
	if v, ok := percentile(xs, p); ok {
		t.set(name, v)
	}
}
