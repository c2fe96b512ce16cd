package main

import (
	"context"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/ftdse"
)

// opKind classifies a plan operation.
type opKind uint8

const (
	kindSolve  opKind = iota // one library Solve call
	kindFresh                // SubmitWait of a new fingerprint
	kindRepeat               // SubmitWait of a recent fingerprint
	kindStream               // Submit, then Stream until the done event
	kindCancel               // Submit of a long solve, Cancel after a fixed delay
	nKinds
)

func (k opKind) String() string {
	return [...]string{"solve", "fresh", "repeat", "stream", "cancel"}[k]
}

// record is the outcome of one operation.
type record struct {
	i    int
	kind opKind
	// ms is the client-observed latency of the timed call: the Solve
	// call, or the submit call up to the terminal status.
	ms float64
	// cancelMs is the duration of the Cancel call (cancel operations).
	cancelMs float64
	// err marks a failed operation: errored, refused, or failing a
	// check. A failed operation misses every latency limit.
	err error
	// out is the workload's outcome, read by its checks.
	out any
}

// latency returns the record's latency, +Inf when it failed.
func (r record) latency() float64 {
	if r.err != nil {
		return math.Inf(1)
	}
	return r.ms
}

// kindCounts counts a running phase's operations per kind.
type kindCounts [nKinds]atomic.Int64

func (c *kindCounts) get(k opKind) int { return int(c[k].Load()) }

// phase is one closed-loop run and the growth of the process counters
// over it. Phases of one mode add up (merge), so a traced run can
// alternate traced and untraced slices.
type phase struct {
	recs []record // sorted by plan index
	wall time.Duration
	cpu  time.Duration // process user+sys CPU
	// rssMB is the process's peak resident memory when the loop ended,
	// before the checks run.
	rssMB      float64
	allocBytes uint64 // MemStats.TotalAlloc growth
	gcs        uint32 // MemStats.NumGC growth
	ev         evCounts
}

// evCounts is the growth of the evaluator counters the harness reads.
type evCounts struct{ passes, hits, misses, scratch int64 }

func evSince(a, b ftdse.EvaluatorMetrics) evCounts {
	return evCounts{
		passes:  b.SchedulingPasses - a.SchedulingPasses,
		hits:    b.CacheHits - a.CacheHits,
		misses:  b.CacheMisses - a.CacheMisses,
		scratch: b.ScratchAllocs - a.ScratchAllocs,
	}
}

// allocMB is the heap allocated during the phase, in MB (2^20 bytes).
func (ph *phase) allocMB() float64 { return float64(ph.allocBytes) / (1 << 20) }

// merge returns the phase made of a and b; a may be nil.
func merge(a, b *phase) *phase {
	if a == nil {
		return b
	}
	m := &phase{
		recs:       append(append([]record(nil), a.recs...), b.recs...),
		wall:       a.wall + b.wall,
		cpu:        a.cpu + b.cpu,
		rssMB:      max(a.rssMB, b.rssMB),
		allocBytes: a.allocBytes + b.allocBytes,
		gcs:        a.gcs + b.gcs,
		ev: evCounts{a.ev.passes + b.ev.passes, a.ev.hits + b.ev.hits,
			a.ev.misses + b.ev.misses, a.ev.scratch + b.ev.scratch},
	}
	sort.Slice(m.recs, func(i, j int) bool { return m.recs[i].i < m.recs[j].i })
	return m
}

// runPhase runs the closed loop from plan index first: each client
// takes the next plan index and runs it, until d has passed and the
// phase holds enough samples (but no longer than maxStretch·d); it then
// finishes the plan's current block, so a phase runs whole blocks. With
// count > 0 it instead runs exactly the count indices from first,
// whatever the time. A client finishes the operation it started, so the
// wall time ends with the last completed operation.
func runPhase(ctx context.Context, e env, clients, first, count int, d time.Duration, tr *tracer) (*phase, error) {
	ph := &phase{}
	var mem0, mem1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&mem0)
	ev0 := ftdse.ReadEvaluatorMetrics()
	cpu0 := cpuTime()
	start := time.Now()

	var counts kindCounts
	var mu sync.Mutex
	next, end := first, math.MaxInt
	if count > 0 {
		end = first + count
	}
	// take returns the next plan index to run, or false once the phase
	// has run to its end.
	take := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if end == math.MaxInt {
			el := time.Since(start)
			if el >= maxStretch*d {
				end = next
			} else if el >= d && e.enough(&counts) {
				p := e.period()
				end = first + (next-first+p-1)/p*p
			}
		}
		if next >= end {
			return 0, false
		}
		next++
		return next - 1, true
	}
	per := make([][]record, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, ok := take(); ok; i, ok = take() {
				r := e.do(ctx, i, tr)
				counts[r.kind].Add(1)
				per[c] = append(per[c], r)
			}
		}()
	}
	wg.Wait()
	ph.wall = time.Since(start)
	ph.cpu = cpuTime() - cpu0
	ph.rssMB = peakRSSMB()
	ph.ev = evSince(ev0, ftdse.ReadEvaluatorMetrics())
	runtime.ReadMemStats(&mem1)
	ph.allocBytes = mem1.TotalAlloc - mem0.TotalAlloc
	ph.gcs = mem1.NumGC - mem0.NumGC
	for _, p := range per {
		ph.recs = append(ph.recs, p...)
	}
	sort.Slice(ph.recs, func(a, b int) bool { return ph.recs[a].i < ph.recs[b].i })
	if !e.enough(&counts) {
		return nil, errNoSamples
	}
	return ph, nil
}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// needFor returns the sample count a q-percentile needs.
func needFor(q float64) int {
	// n - ceil(q·n) >= minBeyond  ⇔  n >= minBeyond / (1-q), rounded up.
	return int(math.Ceil(float64(minBeyond)/(1-q) - 1e-9))
}

// percentile returns the nearest-rank q-quantile of xs and whether at
// least minBeyond samples lie beyond it. Failed operations enter xs as
// +Inf, so they miss every latency limit.
func percentile(xs []float64, q float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], len(s)-rank >= minBeyond
}

// median is the nearest-rank median without the samples-beyond rule,
// for per-layer figures (0 when empty).
func median(xs []float64) float64 {
	v, _ := percentile(xs, 0.5)
	return v
}

// sum adds xs.
func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// mean is the arithmetic mean (0 when empty).
func mean(xs []float64) float64 { return ratio(sum(xs), float64(len(xs))) }

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// setPercentile stores the q-percentile of xs, or reports errNoSamples.
func setPercentile(m metrics, name string, xs []float64, q float64) error {
	v, ok := percentile(xs, q)
	if !ok {
		return errNoSamples
	}
	m.set(name, v, "ms")
	return nil
}

// latencies collects the latencies of the records of the given kinds.
func latencies(recs []record, kinds ...opKind) []float64 {
	var out []float64
	for _, r := range recs {
		for _, k := range kinds {
			if r.kind == k {
				out = append(out, r.latency())
			}
		}
	}
	return out
}

// cpuTime returns the process's user+sys CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set, in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
