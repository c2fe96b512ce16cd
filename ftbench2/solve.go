package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/ftdse"
	"repro/ftdse/bench"
)

// solve-tabu: one client loops ftdse.Solver.Solve over seeded
// Table-1a-style instances with the default greedy→tabu engine, one
// evaluation worker and a fixed iteration budget. All of the work is in
// the scheduler and the core evaluator's critical-path sweeps; the
// service and cluster are bypassed. With one busy CPU of two, its
// timings drift less on a shared machine than with two clients.

func init() { workloads["solve-tabu"] = workload{setup: setupSolve, clients: 1} }

// solveSizes are the size classes (processes, nodes, faults k),
// between the 20- and 40-process points of Table 1a.
var solveSizes = []struct{ procs, nodes, k int }{{20, 2, 3}, {30, 3, 3}, {40, 3, 4}}

var (
	shapes = []ftdse.GraphShape{ftdse.ShapeRandom, ftdse.ShapeTree, ftdse.ShapeChains}
	dists  = []ftdse.WCETDist{ftdse.DistUniform, ftdse.DistExponential}
)

const (
	// solveIterations is the fixed tabu budget: one solve takes about
	// 30 ms at 20 processes and 300 ms at 40 on one core. It is half of
	// the 100 iterations Table 1a runs, so that a round holds solveBlocks
	// blocks of the plan within its share of a run.
	solveIterations = 50
	// solveBlocks is the fewest plan blocks a round runs, 72 solves: the
	// median solve lies among the 30-process instances, and with fewer
	// of them it moved by up to a fifth from seed to seed.
	solveBlocks = 4
	// solveWarmups is how many small solves warm the process up.
	solveWarmups = 2
	// warmSeed generates the warm-up inputs. It is the same for every
	// run, so set-up does the same work whatever --seed is.
	warmSeed = -1
	// digestOps is how many leading operations the cost digest covers
	// at most.
	digestOps = 60
	// corpusCases is how many leading plan cases the traced run re-runs
	// one at a time for the exact per-solve evaluator counts.
	corpusCases = 18
)

// mix derives the generator seed of plan entry i from the master seed
// (splitmix64), so neighbouring seeds give unrelated inputs.
func mix(seed int64, i int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

// solveCase is plan entry i: size class, graph shape and WCET
// distribution rotate so that every prefix of the plan is balanced.
func solveCase(seed int64, i int) bench.CorpusCase {
	sz := solveSizes[i%len(solveSizes)]
	shape := shapes[(i/3)%len(shapes)]
	dist := dists[(i/9)%len(dists)]
	return bench.CorpusCase{
		Name: fmt.Sprintf("%dp/%v/%v/%d", sz.procs, shape, dist, i),
		Size: fmt.Sprintf("%dp", sz.procs),
		Spec: ftdse.GenSpec{Procs: sz.procs, Nodes: sz.nodes, Shape: shape, WCETDist: dist,
			Seed: mix(seed, i)},
		Faults:        ftdse.FaultModel{K: sz.k, Mu: ftdse.Ms(5)},
		Engine:        "default",
		MaxIterations: solveIterations,
	}
}

type solveEnv struct {
	seed   int64
	dir    string
	solver *ftdse.Solver
}

// solveOut is what one solve leaves for the checks.
type solveOut struct {
	prob             ftdse.Problem
	res              *ftdse.Result
	genMs, exploreMs float64
}

func setupSolve(cfg config) (env, error) {
	// One P: the solve is a single goroutine, and with one P the
	// garbage collector's work lands inside its latency instead of on
	// the second CPU, whose availability on a shared machine varies from
	// minute to minute. In six alternating pairs of runs the median
	// solve ranged over 19 % with one P and over 39 % with two.
	runtime.GOMAXPROCS(1)
	solver, err := solveCase(cfg.seed, 0).Solver()
	if err != nil {
		return nil, err
	}
	e := &solveEnv{seed: cfg.seed, dir: cfg.dir, solver: solver}
	for w := 0; w < solveWarmups; w++ {
		c := solveCase(warmSeed, 3*w) // a 20-process case
		if _, err := solver.Solve(context.Background(), c.Problem()); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return e, nil
}

func (e *solveEnv) do(ctx context.Context, i int, tr *tracer) record {
	c := solveCase(e.seed, i)
	t0 := time.Now()
	p := c.Problem()
	t1 := time.Now()
	s := e.solver
	var explore time.Duration
	if tr != nil {
		s = s.With(append(flightOptions(),
			ftdse.WithEngine(timedEngine{inner: ftdse.DefaultEngine(), total: &explore}))...)
	}
	res, err := s.Solve(ctx, p)
	t2 := time.Now()
	if tr != nil {
		op := fmt.Sprintf("s%d", i)
		tr.add(op, "gen", "", t0, t1)
		tr.add(op, "solve", "", t1, t2)
		tr.add(op, "core.explore", "solve", t1, t1.Add(explore))
	}
	return record{i: i, kind: kindSolve, ms: ms(t2.Sub(t1)), err: err,
		out: &solveOut{prob: p, res: res, genMs: ms(t1.Sub(t0)), exploreMs: ms(explore)}}
}

func (e *solveEnv) enough(n *kindCounts) bool {
	return n.get(kindSolve) >= max(needFor(0.5), solveBlocks*e.period())
}

func (e *solveEnv) period() int { return len(solveSizes) * len(shapes) * len(dists) }

func (e *solveEnv) latencies(recs []record) []float64 { return latencies(recs, kindSolve) }

// check verifies each solve with the fault-pattern oracle: the schedule
// passes ValidateSchedule, re-evaluating the design reproduces the
// cost, and under every adversarial fault scenario the simulated
// makespan stays within the analyzed worst case (a schedulable design
// also shows no violations).
func (e *solveEnv) check(_ context.Context, recs []record) string {
	h := sha256.New()
	n := 0
	for k := range recs {
		r := &recs[k]
		if r.err != nil {
			continue
		}
		o := r.out.(*solveOut)
		r.err = checkSolve(o.prob, o.res)
		if r.i < digestOps {
			n++
			fmt.Fprintf(h, "%d:%d:%d\n", r.i, o.res.Cost.Makespan, o.res.Cost.Tardiness)
		}
	}
	return fmt.Sprintf("sha256:%x over the first %d solves", h.Sum(nil)[:12], n)
}

// checkSolve is the per-solve oracle.
func checkSolve(p ftdse.Problem, res *ftdse.Result) error {
	if res.Stopped != ftdse.StopCompleted {
		return fmt.Errorf("solve stopped early: %v", res.Stopped)
	}
	if err := ftdse.ValidateSchedule(res.Schedule); err != nil {
		return fmt.Errorf("invalid schedule: %w", err)
	}
	s, err := p.Evaluate(res.Design)
	if err != nil {
		return fmt.Errorf("re-evaluating the design: %w", err)
	}
	if got := (ftdse.Cost{Tardiness: s.Tardiness, Makespan: s.Makespan}); got != res.Cost {
		return fmt.Errorf("re-evaluated cost %v, solver reported %v", got, res.Cost)
	}
	for _, sc := range ftdse.AdversarialScenarios(res.Schedule) {
		sim := ftdse.RunScenario(res.Schedule, sc)
		if sim.Makespan > res.Schedule.Makespan {
			return fmt.Errorf("simulated makespan %v exceeds the analyzed %v", sim.Makespan, res.Schedule.Makespan)
		}
		if res.Schedulable() && len(sim.Violations) > 0 {
			return fmt.Errorf("schedulable design violated under a fault scenario: %s", sim.Violations[0])
		}
	}
	return nil
}

func (e *solveEnv) done(recs []record) int {
	n := 0
	for _, r := range recs {
		if r.err == nil {
			n++
		}
	}
	return n
}

func (e *solveEnv) beginTrace(context.Context, *tracer) error { return nil }
func (e *solveEnv) endTrace(context.Context) error            { return nil }

func (e *solveEnv) layers(ctx context.Context, _, ph *phase, tr *tracer, m metrics) error {
	zeroLayers(m)
	var gen, explore, driver []float64
	var results []*ftdse.Result
	var probs []ftdse.Problem
	for _, r := range ph.recs {
		o := r.out.(*solveOut)
		gen = append(gen, o.genMs)
		if r.err != nil {
			continue
		}
		explore = append(explore, o.exploreMs)
		driver = append(driver, r.ms-o.exploreMs)
		results = append(results, o.res)
		probs = append(probs, o.prob)
	}
	m.set("gen.generate_ms", median(gen), "ms")
	m.set("core.explore_ms_p50", median(explore), "ms")
	m.set("core.driver_ms_p50", median(driver), "ms")
	passes := float64(ph.ev.passes)
	m.set("core.us_per_pass", ratio(1000*sum(explore), passes), "us")

	// Exact per-solve evaluator counts: ftbench's corpus runner re-runs
	// the leading cases one at a time, each bracketed by
	// ReadEvaluatorMetrics; with no other solve running the bracket is
	// exact. Its report is written next to the spans.
	cases := make([]bench.CorpusCase, corpusCases)
	for i := range cases {
		cases[i] = solveCase(e.seed, i)
	}
	rep, err := bench.RunCorpus(ctx, cases, nil)
	if err != nil {
		return err
	}
	rep.Seed = e.seed
	var hits, misses, passesN, iters, scratch float64
	for _, c := range rep.Cases {
		hits += float64(c.EvalCacheHits)
		misses += float64(c.EvalCacheMisses)
		passesN += float64(c.SchedulingPasses)
		scratch += float64(c.ScratchAllocs)
		iters += float64(c.Iterations)
	}
	m.set("core.passes_per_solve", passesN/corpusCases, "count")
	m.set("core.memo_hit_ratio", ratio(hits, hits+misses), "ratio")
	m.set("core.iterations_per_solve", iters/corpusCases, "count")
	m.set("core.scratch_allocs_per_solve", scratch/corpusCases, "count")
	if err := writeReport(filepath.Join(e.dir, fmt.Sprintf("report-solve-tabu-seed%d.json", e.seed)), rep); err != nil {
		return err
	}

	flightLayers(m, results)
	designLayers(m, probs, results)
	runtimeLayers(m, ph)
	var kb []float64
	for _, res := range results {
		var doc bytes.Buffer
		if err := ftdse.WriteSchedule(&doc, res.Schedule); err == nil {
			kb = append(kb, float64(doc.Len())/1024)
		}
	}
	m.set("sysio.result_kb", median(kb), "KB")
	return nil
}

// designLayers times the sched and sysio layers on the final designs:
// Problem.Evaluate (the allocating build path Materialize runs per
// accepted move), ReadProblem of the input document and WriteSchedule
// of the result.
func designLayers(m metrics, probs []ftdse.Problem, results []*ftdse.Result) {
	var evalUs, evalAllocs, readUs, writeUs []float64
	var before, after runtime.MemStats
	for i, res := range results {
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		_, err := probs[i].Evaluate(res.Design)
		d := time.Since(t0)
		runtime.ReadMemStats(&after)
		if err != nil {
			continue
		}
		evalUs = append(evalUs, us(d))
		evalAllocs = append(evalAllocs, float64(after.Mallocs-before.Mallocs))

		var doc bytes.Buffer
		if err := ftdse.WriteProblem(&doc, probs[i]); err == nil {
			t0 = time.Now()
			_, err = ftdse.ReadProblem(&doc)
			if err == nil {
				readUs = append(readUs, us(time.Since(t0)))
			}
		}
		var out bytes.Buffer
		t0 = time.Now()
		if err := ftdse.WriteSchedule(&out, res.Schedule); err == nil {
			writeUs = append(writeUs, us(time.Since(t0)))
		}
	}
	m.set("sched.evaluate_us", median(evalUs), "us")
	m.set("sched.evaluate_allocs", median(evalAllocs), "count")
	m.set("sysio.read_problem_us", median(readUs), "us")
	m.set("sysio.write_schedule_us", median(writeUs), "us")
}

// runtimeLayers reports the Go runtime's work per operation.
func runtimeLayers(m metrics, ph *phase) {
	n := float64(len(ph.recs))
	m.set("runtime.alloc_mb", ratio(ph.allocMB(), n), "MB")
	m.set("runtime.gc_cycles", ratio(float64(ph.gcs), n), "count")
}

// writeReport writes an ftbench corpus report.
func writeReport(path string, rep *bench.Report) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := bench.WriteReport(f, rep); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (e *solveEnv) close() error { return nil }
