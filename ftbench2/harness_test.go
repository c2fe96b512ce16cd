package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"testing"
	"time"

	"repro/ftdse"
)

func problemBytes(t *testing.T, p ftdse.Problem) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := ftdse.WriteProblem(&b, p); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func TestSameSeedSameInputs(t *testing.T) {
	for i := 0; i < 6; i++ {
		a := problemBytes(t, solveCase(7, i).Problem())
		b := problemBytes(t, solveCase(7, i).Problem())
		if !bytes.Equal(a, b) {
			t.Fatalf("case %d: the same seed generated different problems", i)
		}
		if c := problemBytes(t, solveCase(8, i).Problem()); bytes.Equal(a, c) {
			t.Fatalf("case %d: seeds 7 and 8 generated the same problem", i)
		}
	}
}

func TestPercentileNeedsSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		q    float64
		need int
	}{{0.5, 20}, {0.9, 100}, {0.99, 1000}} {
		if got := needFor(tc.q); got != tc.need {
			t.Errorf("needFor(%v) = %d, want %d", tc.q, got, tc.need)
		}
		xs := make([]float64, tc.need)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		if _, ok := percentile(xs[:tc.need-1], tc.q); ok {
			t.Errorf("p%v reported from %d samples, with fewer than 10 beyond it", 100*tc.q, tc.need-1)
		}
		v, ok := percentile(xs, tc.q)
		if !ok {
			t.Errorf("p%v not reported from %d samples", 100*tc.q, tc.need)
		}
		if want := float64(tc.need - minBeyond); v != want {
			t.Errorf("p%v of 1..%d = %v, want the nearest rank %v", 100*tc.q, tc.need, v, want)
		}
	}
}

func TestFailedOperationMissesEveryLimit(t *testing.T) {
	var recs []record
	for i := 0; i < 20; i++ {
		r := record{i: i, kind: kindFresh, ms: 1}
		if i%2 == 0 {
			r.err = errors.New("429: queue full")
		}
		recs = append(recs, r)
	}
	var res result
	res.tally(recs)
	if res.Attempted != 20 || res.Failed != 10 || res.Correct {
		t.Fatalf("tally = %+v, want 20 attempted, 10 failed, not correct", res)
	}
	lat := latencies(recs, kindFresh)
	p50, ok := percentile(lat, 0.5)
	if !ok || p50 != 1 {
		t.Fatalf("p50 = %v (ok=%v), want the fast half's 1", p50, ok)
	}
	recs[1].err = errors.New("check failed")
	if p50, _ := percentile(latencies(recs, kindFresh), 0.5); !math.IsInf(p50, 1) {
		t.Fatalf("p50 with 11 of 20 failed = %v, want +Inf", p50)
	}
	m := metrics{}
	m.set("job_ms_p50", math.Inf(1), "ms")
	if _, err := json.Marshal(m); err != nil || m["job_ms_p50"].Value != math.MaxFloat64 {
		t.Fatalf("a failed latency must encode as the largest number: %v, %v", m["job_ms_p50"], err)
	}
}

func TestEngineWrapperIsTransparent(t *testing.T) {
	c := solveCase(3, 0)
	solver, err := c.Solver()
	if err != nil {
		t.Fatal(err)
	}
	p := c.Problem()
	plain, err := solver.Solve(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	var explore time.Duration
	wrapped, err := solver.With(ftdse.WithEngine(timedEngine{inner: ftdse.DefaultEngine(), total: &explore})).
		Solve(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if wrapped.Cost != plain.Cost || wrapped.Engine != plain.Engine {
		t.Fatalf("wrapped engine: cost %v (%s), unwrapped %v (%s)", wrapped.Cost, wrapped.Engine, plain.Cost, plain.Engine)
	}
	if explore <= 0 || explore > wrapped.Elapsed {
		t.Fatalf("explore time %v outside (0, %v]", explore, wrapped.Elapsed)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Op: "a", Name: "job", StartMs: 0, EndMs: 10},
		{Op: "a", Name: "x", Parent: "job", StartMs: 1, EndMs: 4},
		{Op: "a", Name: "y", Parent: "job", StartMs: 3, EndMs: 6},  // overlaps x
		{Op: "b", Name: "x", Parent: "job", StartMs: 0, EndMs: 10}, // another op
	}
	selfTimes(spans)
	for i, want := range []float64{5, 3, 3, 10} {
		if spans[i].SelfMs != want {
			t.Errorf("span %d self = %v, want %v", i, spans[i].SelfMs, want)
		}
	}
}

func TestBenchmarkJSONListsEveryLayer(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var b struct {
		EndToEnd []entry `json:"end_to_end"`
		PerLayer []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, set := range []struct {
		key     string
		json    []entry
		harness []struct{ name, unit string }
	}{{"end_to_end", b.EndToEnd, endToEndMetrics}, {"per_layer", b.PerLayer, perLayer}} {
		if len(set.json) != len(set.harness) {
			t.Fatalf("BENCHMARK.json lists %d %s metrics, the harness reports %d", len(set.json), set.key, len(set.harness))
		}
		for i, l := range set.harness {
			if set.json[i].Name != l.name || set.json[i].Unit != l.unit {
				t.Errorf("%s[%d] = %v, harness reports %s (%s)", set.key, i, set.json[i], l.name, l.unit)
			}
		}
	}
}

// Every workload reports the same end-to-end set: endToEnd gives every
// listed metric but setup_s, which run adds, in its unit.
func TestEndToEndReportsEveryMetric(t *testing.T) {
	var rounds []*phase
	for r := 0; r < 2; r++ {
		ph, err := runPhase(context.Background(), fakeEnv{need: needFor(0.5)}, 2, 0, 40, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		rounds = append(rounds, ph)
	}
	m, err := endToEnd(fakeEnv{}, rounds)
	if err != nil {
		t.Fatal(err)
	}
	m.set("setup_s", 1, "s")
	if len(m) != len(endToEndMetrics) {
		t.Fatalf("endToEnd reports %d metrics, want %d: %v", len(m), len(endToEndMetrics), m)
	}
	for _, e := range endToEndMetrics {
		if got, ok := m[e.name]; !ok || got.Unit != e.unit || got.Value <= 0 {
			t.Errorf("%s = %+v (reported %v), want a positive value in %s", e.name, got, ok, e.unit)
		}
	}
}

func TestBestOfRounds(t *testing.T) {
	fail := errors.New("refused")
	a := &phase{recs: []record{{i: 0, ms: 5}, {i: 1, ms: 2}, {i: 2, ms: 1}}}
	b := &phase{recs: []record{{i: 0, ms: 3}, {i: 1, ms: 4}, {i: 2, ms: 0.5, err: fail}}}
	best := bestOf([]*phase{a, b})
	for k, want := range []float64{3, 2, math.Inf(1)} {
		if got := best[k].latency(); got != want || best[k].i != k {
			t.Errorf("op %d: best latency %v (index %d), want %v", k, got, best[k].i, want)
		}
	}
}

// fakeEnv is an env whose operations take 1 ms and which has enough
// samples once it has seen need of them.
type fakeEnv struct{ need int }

func (f fakeEnv) do(_ context.Context, i int, _ *tracer) record {
	time.Sleep(time.Millisecond)
	return record{i: i, kind: kindSolve, ms: 1}
}
func (f fakeEnv) enough(n *kindCounts) bool                                      { return n.get(kindSolve) >= f.need }
func (f fakeEnv) check(context.Context, []record) string                         { return "" }
func (f fakeEnv) period() int                                                    { return 4 }
func (f fakeEnv) done(recs []record) int                                         { return len(recs) }
func (f fakeEnv) latencies(recs []record) []float64                              { return latencies(recs, kindSolve) }
func (f fakeEnv) beginTrace(context.Context, *tracer) error                      { return nil }
func (f fakeEnv) endTrace(context.Context) error                                 { return nil }
func (f fakeEnv) layers(context.Context, *phase, *phase, *tracer, metrics) error { return nil }
func (f fakeEnv) close() error                                                   { return nil }

func TestPhaseRunsUntilTimeAndSamples(t *testing.T) {
	ph, err := runPhase(context.Background(), fakeEnv{need: 5}, 2, 0, 0, 50*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ph.wall < 50*time.Millisecond {
		t.Fatalf("phase stopped after %v, before its duration", ph.wall)
	}
	for i, r := range ph.recs {
		if r.i != i {
			t.Fatalf("records not in plan order: record %d has index %d", i, r.i)
		}
	}
	if p := (fakeEnv{}).period(); len(ph.recs)%p != 0 {
		t.Fatalf("phase ran %d operations, not whole blocks of %d", len(ph.recs), p)
	}
	// A counted phase runs exactly its stretch, whatever the time.
	if ph, err := runPhase(context.Background(), fakeEnv{need: 5}, 2, 3, 7, time.Nanosecond, nil); err != nil ||
		len(ph.recs) != 7 || ph.recs[0].i != 3 || ph.recs[6].i != 9 {
		t.Fatalf("counted phase: %v, err %v; want indices 3..9", ph, err)
	}
	// Too few samples in time: the phase stretches, then reports it.
	start := time.Now()
	if _, err := runPhase(context.Background(), fakeEnv{need: 1 << 30}, 2, 0, 0, 20*time.Millisecond, nil); !errors.Is(err, errNoSamples) {
		t.Fatalf("err = %v, want errNoSamples", err)
	}
	if el := time.Since(start); el < maxStretch*20*time.Millisecond {
		t.Fatalf("gave up after %v, before stretching to %v", el, maxStretch*20*time.Millisecond)
	}
}

func TestMergeAddsPhases(t *testing.T) {
	a := &phase{recs: []record{{i: 0}, {i: 2}}, wall: time.Second, cpu: time.Second, rssMB: 5,
		allocBytes: 10, gcs: 1, ev: evCounts{passes: 3, hits: 1, misses: 2, scratch: 1}}
	b := &phase{recs: []record{{i: 1}}, wall: time.Second, rssMB: 7, allocBytes: 5, gcs: 2,
		ev: evCounts{passes: 4, hits: 2, misses: 1}}
	if merge(nil, a) != a {
		t.Fatal("merging into nil must return the phase itself")
	}
	m := merge(a, b)
	want := phase{wall: 2 * time.Second, cpu: time.Second, rssMB: 7, allocBytes: 15, gcs: 3,
		ev: evCounts{passes: 7, hits: 3, misses: 3, scratch: 1}}
	if m.wall != want.wall || m.cpu != want.cpu || m.rssMB != want.rssMB || m.allocBytes != want.allocBytes ||
		m.gcs != want.gcs || m.ev != want.ev {
		t.Fatalf("merge = %+v, want the sums (and the larger peak) %+v", *m, want)
	}
	for i, r := range m.recs {
		if r.i != i {
			t.Fatalf("merged records not in plan order: %v", m.recs)
		}
	}
	if len(a.recs) != 2 {
		t.Fatal("merge changed its input")
	}
}
