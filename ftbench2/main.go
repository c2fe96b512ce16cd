// Command ftbench2 is the repository's benchmark. It runs one of three
// closed-loop workloads in this process through the public API only:
//
//	solve-tabu      ftdse.Solver.Solve, the solver alone
//	serve-small     one in-process ftdsed node (service.New) over loopback HTTP
//	cluster-anneal  the ftclusterd coordinator (cluster.New) over two nodes
//
// Usage (run.sh builds the binary first, from the repository root):
//
//	ftbench2 --workload solve-tabu --seed 1 --seconds 20 --trace 0
//
// The seed generates every input; the program receives only the
// generated problems. Every operation is checked outside the timed
// region, and the last line of standard output is one JSON object with
// the keys correct, attempted, failed and metrics. --trace 0 reports
// the end-to-end metrics, which every workload shares, from three
// rounds over the same stretch of the plan; --trace 1 alternates
// untraced and traced slices of the loop, half the time each, reports
// the per-layer metrics and writes the recorded spans to
// .bench_build/ftbench2/. README.md explains the workloads and the
// metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// processStart anchors the first set-up's time to process start.
var processStart = time.Now()

const (
	// nproc is the target machine's CPU count: the job workloads' client
	// count and the connection cap per daemon.
	nproc = 2
	// setupRounds is how often set-up runs; setup_s is the median.
	setupRounds = 9
	// measureRounds is how many of the last set-ups an untraced run
	// measures after, each for its share of --seconds.
	measureRounds = 3
	// maxStretch bounds how far past --seconds a phase may run while it
	// still lacks the samples a reported percentile needs.
	maxStretch = 4
	// secondSlice is the plan index the traced run's second pair of
	// slices starts from, past any index the first pair reaches.
	secondSlice = 1 << 16
)

// workload is one registered workload.
type workload struct {
	// setup generates the plan from the seed, starts the daemons the
	// workload needs and warms them up.
	setup func(cfg config) (env, error)
	// clients is the closed loop's client count.
	clients int
}

// workloads is the registration table, filled by each workload's file.
var workloads = map[string]workload{}

// config is what a workload's set-up receives.
type config struct {
	seed int64
	// dir is a scratch directory inside the checkout (journals).
	dir string
}

// env is one set-up workload, ready to run its closed loop.
type env interface {
	// do runs operation i of the plan. The record's latency covers
	// only the timed call; generating the input stays outside it. A
	// non-nil tracer asks for spans and layer timings.
	do(ctx context.Context, i int, tr *tracer) record
	// enough reports whether the phase holds the samples the job
	// latency's median needs.
	enough(n *kindCounts) bool
	// check verifies every record after the phase, setting err on the
	// records that fail; it returns the digest of the final costs.
	check(ctx context.Context, recs []record) string
	// latencies returns the samples of the job latency: the Solve call
	// on solve-tabu, the submission up to its terminal status on the
	// daemon workloads (canceled submissions left out).
	latencies(recs []record) []float64
	// period is the length of the plan's block: every stretch of the
	// plan that starts at 0 and spans whole blocks has the workload's
	// exact mix of inputs and operations.
	period() int
	// done counts the records whose solve completed: the solves that
	// returned, or the jobs that reached done.
	done(recs []record) int
	// beginTrace snapshots the daemon counters before the traced phases
	// and hands the daemons' handler wrappers the tracer; endTrace
	// snapshots them after the traced phases and takes the tracer back.
	beginTrace(ctx context.Context, tr *tracer) error
	endTrace(ctx context.Context) error
	// layers computes the per-layer metrics of the traced phase ph;
	// base is the traced run's untraced phase.
	layers(ctx context.Context, base, ph *phase, tr *tracer, m metrics) error
	close() error
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps metric names to values.
type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) {
	if math.IsInf(v, 1) {
		// A failed operation's latency: it misses every limit, and JSON
		// has no infinity.
		v = math.MaxFloat64
	}
	m[name] = metric{Value: v, Unit: unit}
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds = flag.Float64("seconds", 20, "measured seconds")
		trace   = flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "ftbench2: want --workload {%s} --seconds >0 --trace {0,1}\n",
			strings.Join(workloadNames(), ","))
		os.Exit(2)
	}
	res, err := run(*name, w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ftbench2:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ftbench2:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// run sets the workload up setupRounds times, runs the measured phases,
// checks every operation and computes the metrics.
func run(name string, w workload, seed int64, d time.Duration, traced bool) (out *result, err error) {
	ctx := context.Background()
	dir, err := filepath.Abs(filepath.Join(".bench_build", "ftbench2"))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cfg := config{seed: seed, dir: dir}

	// Set-up runs setupRounds times, each time into a fresh process
	// state of the workload (the previous round's daemons closed). An
	// untraced run measures after each of the last measureRounds
	// set-ups: the first round runs for its share of d and fixes the
	// plan stretch, the others run exactly that stretch again. A traced
	// run measures after the last set-up only.
	out = &result{Metrics: metrics{}}
	var e env
	defer func() {
		if e == nil {
			return
		}
		if cerr := e.close(); err == nil && cerr != nil {
			out, err = nil, fmt.Errorf("closing: %w", cerr)
		}
	}()
	setups := make([]float64, 0, setupRounds)
	var rounds []*phase
	for r := 0; r < setupRounds; r++ {
		if e != nil {
			err := e.close()
			if e = nil; err != nil {
				return nil, fmt.Errorf("closing set-up round %d: %w", r, err)
			}
		}
		start := time.Now()
		if r == 0 {
			start = processStart
		}
		if e, err = w.setup(cfg); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		if traced || r < setupRounds-measureRounds {
			continue
		}
		n := 0
		if len(rounds) > 0 {
			n = len(rounds[0].recs)
		}
		ph, err := runPhase(ctx, e, w.clients, 0, n, d/measureRounds, nil)
		if err != nil {
			return nil, err
		}
		rounds = append(rounds, ph)
	}
	fmt.Fprintf(os.Stderr, "set-up rounds (s): %.4f\n", setups)

	if !traced {
		// The last set-up's env checks every round: the checks need
		// the inputs, not the daemons.
		for r, ph := range rounds {
			digest := e.check(ctx, ph.recs)
			if r == 0 {
				fmt.Printf("digest %s seed=%d %s\n", name, seed, digest)
			}
			out.tally(ph.recs)
		}
		if out.Metrics, err = endToEnd(e, rounds); err != nil {
			return nil, err
		}
		sort.Float64s(setups)
		out.Metrics.set("setup_s", setups[len(setups)/2], "s")
		return out, nil
	}

	// Traced run: four slices of a quarter each, untraced, traced,
	// traced, untraced (ABBA), so that a steady drift of the machine's
	// speed cancels out of trace.overhead_pct. Each untraced slice runs
	// the same stretch of the plan as its traced twin (the flight
	// recorder option gives the jobs fingerprints of their own, so the
	// twins do not share cached results).
	q := d / 4
	base, err := runPhase(ctx, e, w.clients, 0, 0, q, nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	if err := e.beginTrace(ctx, tr); err != nil {
		return nil, err
	}
	ph, err := runPhase(ctx, e, w.clients, 0, 0, q, tr)
	if err != nil {
		return nil, err
	}
	ph2, err := runPhase(ctx, e, w.clients, secondSlice, 0, q, tr)
	if err != nil {
		return nil, err
	}
	if err := e.endTrace(ctx); err != nil {
		return nil, err
	}
	base2, err := runPhase(ctx, e, w.clients, secondSlice, 0, q, nil)
	if err != nil {
		return nil, err
	}
	base, ph = merge(base, base2), merge(ph, ph2)
	e.check(ctx, base.recs)
	fmt.Printf("digest %s seed=%d %s\n", name, seed, e.check(ctx, ph.recs))
	if err := e.layers(ctx, base, ph, tr, out.Metrics); err != nil {
		return nil, err
	}
	// The job latency's tails, untraced; their samples are too few,
	// and too much at the mercy of a shared machine, to gate on.
	for _, q := range []float64{0.9, 0.99} {
		v, _ := percentile(e.latencies(base.recs), q)
		out.Metrics.set(fmt.Sprintf("client.job_ms_p%.0f", 100*q), v, "ms")
	}
	b, okB := percentile(e.latencies(base.recs), 0.5)
	t, okT := percentile(e.latencies(ph.recs), 0.5)
	if !okB || !okT {
		return nil, errNoSamples
	}
	out.Metrics.set("trace.overhead_pct", 100*(t/b-1), "%")
	out.tally(base.recs)
	out.tally(ph.recs)
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", name, seed))
	if err := tr.write(path, os.Stderr); err != nil {
		return nil, err
	}
	return out, nil
}

// endToEndMetrics lists the end-to-end metrics every workload reports,
// with their units, in BENCHMARK.json order. A job is one solve
// request: a Solve call on solve-tabu, a submission on the daemon
// workloads.
var endToEndMetrics = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"job_ms_p50", "ms"},
	{"jobs_per_s", "1/s"},
	{"cpu_ms_per_job", "ms"},
	{"alloc_mb_per_job", "MB"},
	{"peak_rss_mb", "MB"},
}

// endToEnd computes the end-to-end metrics of an untraced run, all but
// setup_s, from its measured rounds. A job's latency is the fastest of
// its runs in the rounds, and the rounds' throughput and CPU time per
// job are the best round's. Bursts of contention from other tenants of
// a shared machine slow single operations and stretches of a round by
// up to twice; the best of several spaced-out runs of the same work is
// the program's own figure. Allocation is counted over every round.
func endToEnd(e env, rounds []*phase) (metrics, error) {
	m := metrics{}
	if err := setPercentile(m, "job_ms_p50", e.latencies(bestOf(rounds)), 0.5); err != nil {
		return nil, err
	}
	var rate, cpu, allocMB, done float64
	cpu = math.Inf(1)
	for _, ph := range rounds {
		n := float64(e.done(ph.recs))
		if n == 0 {
			return nil, errNoSamples
		}
		rate = max(rate, n/ph.wall.Seconds())
		cpu = min(cpu, ms(ph.cpu)/n)
		allocMB += ph.allocMB()
		done += n
		m.set("peak_rss_mb", max(m["peak_rss_mb"].Value, ph.rssMB), "MB")
	}
	m.set("jobs_per_s", rate, "1/s")
	m.set("cpu_ms_per_job", cpu, "ms")
	m.set("alloc_mb_per_job", allocMB/done, "MB")
	return m, nil
}

// bestOf returns each operation's fastest record over rounds that ran
// the same plan stretch. An operation that failed in any round keeps
// its failed record, so it misses every latency limit.
func bestOf(rounds []*phase) []record {
	best := append([]record(nil), rounds[0].recs...)
	for _, ph := range rounds[1:] {
		for k, r := range ph.recs {
			if k < len(best) && r.i == best[k].i && best[k].err == nil && (r.err != nil || r.ms < best[k].ms) {
				best[k] = r
			}
		}
	}
	return best
}

// tally counts a phase's operations into the result.
func (r *result) tally(recs []record) {
	if r.Attempted == 0 {
		r.Correct = true
	}
	for _, rec := range recs {
		r.Attempted++
		if rec.err != nil {
			r.Failed++
			r.Correct = false
			fmt.Fprintf(os.Stderr, "op %d (%s) failed: %v\n", rec.i, rec.kind, rec.err)
		}
	}
}

// errNoSamples reports a percentile that lacks the samples beyond it.
var errNoSamples = errors.New("too few samples for a reported percentile")
