package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"

	"repro/ftdse"
)

// span is one timed step at a layer boundary. Spans of one solve or job
// share Op; Parent names the enclosing span of the same Op.
type span struct {
	Op      string  `json:"op"`
	Name    string  `json:"name"`
	Parent  string  `json:"parent,omitempty"`
	StartMs float64 `json:"start_ms"`
	EndMs   float64 `json:"end_ms"`
	SelfMs  float64 `json:"self_ms"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced runs pay one nil check per boundary.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a span from wall-clock instants.
func (t *tracer) add(op, name, parent string, start, end time.Time) {
	if t == nil {
		return
	}
	t.addMs(op, name, parent, ms(start.Sub(t.t0)), ms(end.Sub(t.t0)))
}

// addMs records a span from offsets in milliseconds since the tracer
// started.
func (t *tracer) addMs(op, name, parent string, startMs, endMs float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Op: op, Name: name, Parent: parent, StartMs: startMs, EndMs: endMs})
	t.mu.Unlock()
}

// offset converts an instant to the tracer's millisecond offset.
func (t *tracer) offset(at time.Time) float64 { return ms(at.Sub(t.t0)) }

// selfTimes fills SelfMs: a span's duration minus the part of its
// interval that its children cover.
func selfTimes(spans []span) {
	type key struct{ op, name string }
	children := map[key][]int{}
	for i, s := range spans {
		if s.Parent != "" {
			k := key{s.Op, s.Parent}
			children[k] = append(children[k], i)
		}
	}
	for i := range spans {
		s := &spans[i]
		var iv [][2]float64
		for _, c := range children[key{s.Op, s.Name}] {
			a, b := max(spans[c].StartMs, s.StartMs), min(spans[c].EndMs, s.EndMs)
			if b > a {
				iv = append(iv, [2]float64{a, b})
			}
		}
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, end := 0.0, s.StartMs
		for _, v := range iv {
			if v[0] > end {
				end = v[0]
			}
			if v[1] > end {
				covered += v[1] - end
				end = v[1]
			}
		}
		s.SelfMs = s.EndMs - s.StartMs - covered
	}
}

// write computes self times, writes the spans as JSON lines to path and
// a per-name summary (count, total and self time) to summary.
func (t *tracer) write(path string, summary io.Writer) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	selfTimes(spans)

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}

	type agg struct {
		n           int
		total, self float64
	}
	by := map[string]*agg{}
	var names []string
	for _, s := range spans {
		a := by[s.Name]
		if a == nil {
			a = &agg{}
			by[s.Name] = a
			names = append(names, s.Name)
		}
		a.n++
		a.total += s.EndMs - s.StartMs
		a.self += s.SelfMs
	}
	sort.Slice(names, func(i, j int) bool { return by[names[i]].self > by[names[j]].self })
	fmt.Fprintf(summary, "spans: %s\n%-28s %8s %12s %12s\n", path, "span", "count", "total_ms", "self_ms")
	for _, n := range names {
		a := by[n]
		fmt.Fprintf(summary, "%-28s %8d %12.1f %12.1f\n", n, a.n, a.total, a.self)
	}
	return nil
}

// timedEngine delegates to an Engine and adds the wall time of each
// Explore call to *total: the core layer's share of a Solve.
type timedEngine struct {
	inner ftdse.Engine
	total *time.Duration
}

func (e timedEngine) Name() string { return e.inner.Name() }

func (e timedEngine) Explore(ctx context.Context, s *ftdse.Search) error {
	start := time.Now()
	err := e.inner.Explore(ctx, s)
	*e.total += time.Since(start)
	return err
}
