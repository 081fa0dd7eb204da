package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer: name, start, end, the span that
// caused it, and the repetition (run id) it belongs to.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // 0: top level
	Run    int           `json:"run"`
	Layer  string        `json:"layer"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans, per-call samples and per-repetition counts in
// memory; they are written out once, at the end of the run. A nil
// *tracer records nothing, so untraced code paths call the same helpers
// at the cost of a nil check.
type tracer struct {
	mu      sync.Mutex
	t0      time.Time
	run     int
	spans   []span
	samples map[string][]float64
	counts  map[int]map[string]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), samples: map[string][]float64{}, counts: map[int]map[string]float64{}}
}

// begin opens a span under parent and returns its id and a closer that
// records the span and returns its duration.
func (t *tracer) begin(parent int, layer, name string) (int, func() time.Duration) {
	if t == nil {
		start := time.Now()
		return 0, func() time.Duration { return time.Since(start) }
	}
	start := time.Since(t.t0)
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Run: t.run, Layer: layer, Name: name, Start: start})
	id := len(t.spans)
	t.mu.Unlock()
	return id, func() time.Duration {
		stop := time.Since(t.t0)
		t.mu.Lock()
		t.spans[id-1].End = stop
		t.mu.Unlock()
		return stop - start
	}
}

// do runs fn inside a span and returns fn's error and the span length.
func (t *tracer) do(parent int, layer, name string, fn func(id int) error) (time.Duration, error) {
	id, end := t.begin(parent, layer, name)
	err := fn(id)
	return end(), err
}

// sample appends one observation (one call's timing or rate) to a
// distribution metric.
func (t *tracer) sample(metric string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.samples[metric] = append(t.samples[metric], v)
	t.mu.Unlock()
}

// add accumulates a count for the current repetition.
func (t *tracer) add(metric string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	m := t.counts[t.run]
	if m == nil {
		m = map[string]float64{}
		t.counts[t.run] = m
	}
	m[metric] += v
	t.mu.Unlock()
}

// count returns the median over repetitions of a per-repetition count
// (0 when no repetition recorded it).
func (t *tracer) count(metric string) float64 {
	var xs []float64
	for _, m := range t.counts {
		if v, ok := m[metric]; ok {
			xs = append(xs, v)
		}
	}
	return median(xs)
}

// selfTimes returns each layer's self time per repetition (the median
// over repetitions): the sum over its spans of the span's duration
// minus the part of it that child spans cover.
func (t *tracer) selfTimes() map[string]float64 {
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	perRun := map[int]map[string]float64{}
	for _, s := range t.spans {
		if perRun[s.Run] == nil {
			perRun[s.Run] = map[string]float64{}
		}
		perRun[s.Run][s.Layer] += (s.dur() - covered(s, children[s.ID])).Seconds()
	}
	layers := map[string][]float64{}
	for _, m := range perRun {
		for l, v := range m {
			layers[l] = append(layers[l], v)
		}
	}
	out := map[string]float64{}
	for l, xs := range layers {
		out[l] = median(xs)
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's interval. Children of one parent overlap
// when they run on concurrent goroutines.
func covered(p span, kids []span) time.Duration {
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, p.Start), min(k.End, p.End)
		if b > a {
			iv = append(iv, [2]time.Duration{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB time.Duration
	for _, x := range iv {
		if x[0] > curB {
			total += curB - curA
			curA, curB = x[0], x[1]
		} else if x[1] > curB {
			curB = x[1]
		}
	}
	return total + curB - curA
}

// write dumps the spans as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// median is the middle value (mean of the two middle values for even
// counts); 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// p90 is the nearest-rank 90th percentile; 0 for no values.
func p90(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := (9*len(s)+9)/10 - 1
	return s[i]
}
