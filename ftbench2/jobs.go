package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/ftdse"
	"repro/ftdse/client"
	"repro/ftdse/service"
)

// jobOp is one planned submission: its kind and the input it submits.
// Fresh, stream and cancel operations submit their own new input;
// repeats submit the input of a recent fresh or stream operation.
type jobOp struct {
	kind opKind
	in   int
}

// designSample is how many distinct inputs the traced run solves again
// in process for the sched and sysio layer timings.
const designSample = 100

// planLen bounds a plan; a phase that outruns it starts over.
const planLen = 1 << 17

// makePlan draws a job plan from the seed. The plan is a sequence of
// blocks, each holding every kind in its exact share (block lists the
// kinds of one block) in a seeded order, so every run's mix is the
// same whatever its length; each repeat picks one of the last window
// new inputs.
func makePlan(seed int64, block []opKind, window int) []jobOp {
	rng := rand.New(rand.NewSource(seed))
	plan := make([]jobOp, planLen)
	var recent []int
	order := append([]opKind(nil), block...)
	for i := range plan {
		if i%len(block) == 0 {
			rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
		}
		k := order[i%len(block)]
		if k == kindRepeat && len(recent) > 0 {
			plan[i] = jobOp{kind: k, in: recent[rng.Intn(len(recent))]}
			continue
		}
		if k == kindRepeat {
			k = kindFresh
		}
		plan[i] = jobOp{kind: k, in: i}
		if k != kindCancel {
			if recent = append(recent, i); len(recent) > window {
				recent = recent[1:]
			}
		}
	}
	return plan
}

// kinds lists each kind as often as its count, in kind order.
func kinds(counts map[opKind]int) []opKind {
	var out []opKind
	for k := opKind(0); k < nKinds; k++ {
		for i := 0; i < counts[k]; i++ {
			out = append(out, k)
		}
	}
	return out
}

// jobsEnv is a closed loop of job submissions against one daemon, the
// machinery of serve-small and cluster-anneal.
type jobsEnv struct {
	seed        int64
	plan        []jobOp
	block       int // the plan's block length
	input       func(seed int64, in int, k opKind) (ftdse.Problem, service.SolveOptions)
	cancelDelay time.Duration

	c      *client.Client // to the front daemon
	ctr    *http.Transport
	front  *countingHandler
	nodes  []*node
	extra  func(m metrics, d daemonCounts)
	closeF func() error

	refMu sync.Mutex
	refs  map[int]refCost // reference solves by input

	// before and after are every daemon's /metrics around the traced
	// phases; nodeRoutes and frontRoutes hold the handler wrappers'
	// request durations (ms) by route over them, summed over the nodes
	// and at the front daemon.
	before, after           map[*client.Client]map[string]float64
	nodeRoutes, frontRoutes map[string][]float64
}

// daemonCounts is what the daemons saw during the traced phase.
type daemonCounts struct {
	// delta sums a /metrics counter's growth over the daemons.
	delta func(name string) float64
	// front is the front daemon's /metrics after the phase.
	front map[string]float64
	// frontRoutes and nodeRoutes hold request durations (ms) by route,
	// at the front daemon and summed over the nodes.
	frontRoutes, nodeRoutes map[string][]float64
}

// jobOut is what one job operation leaves for the checks. The result
// document is decoded right after the timed call and its schedule
// dropped, so the records hold little memory.
type jobOut struct {
	op           jobOp
	st           service.JobStatus // Result moved to jr
	jr           service.JobResult // Schedule dropped
	resultKB     float64
	genMs        float64
	events       []service.ProgressEvent
	firstEventMs float64
}

func (e *jobsEnv) do(ctx context.Context, i int, tr *tracer) record {
	op := e.plan[i%len(e.plan)]
	t0 := time.Now()
	p, opts := e.input(e.seed, op.in, op.kind)
	opts.FlightRecorder = tr != nil
	out := &jobOut{op: op, genMs: ms(time.Since(t0))}
	r := record{i: i, kind: op.kind, out: out}
	start := time.Now()
	var err error
	switch op.kind {
	case kindFresh, kindRepeat:
		out.st, err = e.c.SubmitWait(ctx, p, opts)
	case kindStream:
		if out.st, err = e.c.Submit(ctx, p, opts); err == nil {
			sub := time.Now()
			out.st, err = e.c.Stream(ctx, out.st.ID, func(ev service.ProgressEvent) {
				if out.events == nil {
					out.firstEventMs = ms(time.Since(sub))
				}
				out.events = append(out.events, ev)
			})
		}
	case kindCancel:
		if out.st, err = e.c.Submit(ctx, p, opts); err == nil {
			time.Sleep(time.Until(start.Add(e.cancelDelay)))
			c0 := time.Now()
			out.st, err = e.c.Cancel(ctx, out.st.ID)
			r.cancelMs = ms(time.Since(c0))
		}
	}
	end := time.Now()
	r.ms = ms(end.Sub(start))
	if err == nil && len(out.st.Result) > 0 {
		out.resultKB = float64(len(out.st.Result)) / 1024
		out.jr, err = client.Result(out.st)
		out.jr.Schedule, out.st.Result = nil, nil
	}
	r.err = err
	if tr != nil && err == nil {
		id := out.st.TraceID
		tr.add(id, "gen", "", t0, start)
		tr.add(id, "job", "", start, end)
		// Server spans are offsets from the node accepting the job,
		// placed here from the submit call's start.
		for _, s := range out.jr.Spans {
			at := tr.offset(start) + s.StartMs
			tr.addMs(id, "node."+s.Name, "job", at, at+s.DurationMs)
		}
	}
	return r
}

func (e *jobsEnv) enough(n *kindCounts) bool {
	return n.get(kindFresh)+n.get(kindRepeat)+n.get(kindStream) >= needFor(0.5)
}

func (e *jobsEnv) period() int { return e.block }

func (e *jobsEnv) latencies(recs []record) []float64 {
	return latencies(recs, kindFresh, kindRepeat, kindStream)
}

// refCost is what the checks compare a done job with: the reference
// solve's cost and schedulability. Only these are kept per input, so
// the cache, which grows with the inputs a run solves, stays small and
// the process's peak memory does not follow the run's throughput.
type refCost struct {
	cost  ftdse.Cost
	sched bool
}

// reference returns the cost of the in-process single-worker solve of
// an input with the job's options, solving each input once.
func (e *jobsEnv) reference(in int, k opKind) (refCost, error) {
	e.refMu.Lock()
	rc, ok := e.refs[in]
	e.refMu.Unlock()
	if ok {
		return rc, nil
	}
	res, err := e.solveRef(in, k)
	if err != nil {
		return refCost{}, err
	}
	rc = refCost{cost: res.Cost, sched: res.Schedulable()}
	e.refMu.Lock()
	e.refs[in] = rc
	e.refMu.Unlock()
	return rc, nil
}

// solveRef solves an input in process with one worker and the job's
// options.
func (e *jobsEnv) solveRef(in int, k opKind) (*ftdse.Result, error) {
	p, o := e.input(e.seed, in, k)
	name := o.Engine
	if name == "" {
		name = "default"
	}
	eng, err := ftdse.ParseEngine(name)
	if err != nil {
		return nil, err
	}
	return ftdse.NewSolver(
		ftdse.WithEngine(eng),
		ftdse.WithSeed(o.Seed),
		ftdse.WithMaxIterations(o.MaxIterations),
		ftdse.WithBusOptimization(o.BusOptimization),
		ftdse.WithCheckpointing(o.Checkpointing),
		ftdse.WithWorkers(1),
	).Solve(context.Background(), p)
}

// check verifies every job: done results match the reference solve's
// cost and schedulability, streams are monotone and end on the result,
// and canceled jobs end canceled (or done, when they finished first).
func (e *jobsEnv) check(_ context.Context, recs []record) string {
	// Reference solves first, two at a time, for every distinct input.
	ins := make(chan jobOp)
	var wg sync.WaitGroup
	for w := 0; w < nproc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for op := range ins {
				e.reference(op.in, op.kind) // errors resurface in checkJob
			}
		}()
	}
	seen := map[int]bool{}
	for _, r := range recs {
		o := r.out.(*jobOut)
		if r.err == nil && r.kind != kindCancel && !seen[o.op.in] {
			seen[o.op.in] = true
			ins <- o.op
		}
	}
	close(ins)
	wg.Wait()

	h := sha256.New()
	n := 0
	for k := range recs {
		r := &recs[k]
		if r.err != nil {
			continue
		}
		o := r.out.(*jobOut)
		jr, err := e.checkJob(r.kind, o)
		if err != nil {
			r.err = err
			continue
		}
		if r.kind == kindFresh && n < digestOps {
			n++
			fmt.Fprintf(h, "%d:%v:%v\n", o.op.in, jr.MakespanMs, jr.TardinessMs)
		}
	}
	return fmt.Sprintf("sha256:%x over the first %d fresh jobs", h.Sum(nil)[:12], n)
}

func (e *jobsEnv) checkJob(k opKind, o *jobOut) (service.JobResult, error) {
	st := o.st
	if k == kindCancel {
		if st.State != service.StateCanceled && st.State != service.StateDone {
			return service.JobResult{}, fmt.Errorf("canceled job ended %s (%s)", st.State, st.Error)
		}
		return service.JobResult{}, nil
	}
	if st.State != service.StateDone {
		return service.JobResult{}, fmt.Errorf("job ended %s (%s)", st.State, st.Error)
	}
	jr := o.jr
	if jr.Stopped != ftdse.StopCompleted.String() {
		return jr, fmt.Errorf("job stopped %q", jr.Stopped)
	}
	ref, err := e.reference(o.op.in, k)
	if err != nil {
		return jr, fmt.Errorf("reference solve: %w", err)
	}
	if jr.MakespanMs != ref.cost.Makespan.Milliseconds() || jr.TardinessMs != ref.cost.Tardiness.Milliseconds() ||
		jr.Schedulable != ref.sched {
		return jr, fmt.Errorf("job cost δ=%vms tardy=%vms sched=%v, in-process solve %v sched=%v",
			jr.MakespanMs, jr.TardinessMs, jr.Schedulable, ref.cost, ref.sched)
	}
	if k == kindStream {
		if len(o.events) == 0 {
			// A cache hit ran no search, so its stream has no
			// improvement to replay. It happens when a repeat of this
			// input, sent by the other client while this submission
			// was on its way, finished first.
			if st.Cached {
				return jr, nil
			}
			return jr, fmt.Errorf("stream delivered no improvement")
		}
		for i := 1; i < len(o.events); i++ {
			a, b := o.events[i-1], o.events[i]
			if b.TardinessMs > a.TardinessMs || (b.TardinessMs == a.TardinessMs && b.MakespanMs >= a.MakespanMs) {
				return jr, fmt.Errorf("stream not monotone at event %d", i)
			}
		}
		last := o.events[len(o.events)-1]
		if last.MakespanMs != jr.MakespanMs || last.TardinessMs != jr.TardinessMs {
			return jr, fmt.Errorf("last stream event δ=%vms differs from the result δ=%vms", last.MakespanMs, jr.MakespanMs)
		}
	}
	return jr, nil
}

func (e *jobsEnv) done(recs []record) int {
	n := 0
	for _, r := range recs {
		if r.err == nil && r.out.(*jobOut).st.State == service.StateDone {
			n++
		}
	}
	return n
}

// clientLayers reports the client-observed figures that only the daemon
// workloads have, from the traced run's untraced phase: the repeats'
// job latency and the Cancel call's duration.
func clientLayers(m metrics, recs []record) {
	var cancels []float64
	for _, r := range recs {
		if r.kind == kindCancel {
			c := r.cancelMs
			if r.err != nil {
				c = r.latency()
			}
			cancels = append(cancels, c)
		}
	}
	m.set("client.hit_ms_p50", median(latencies(recs, kindRepeat)), "ms")
	m.set("client.cancel_ms_p50", median(cancels), "ms")
}

// daemonClients lists a client per daemon whose /metrics the traced run
// reads: the front daemon first, then every node behind it.
func (e *jobsEnv) daemonClients() []*client.Client {
	out := []*client.Client{e.c}
	for _, n := range e.nodes {
		if n.c != e.c {
			out = append(out, n.c)
		}
	}
	return out
}

// scrape reads every daemon's /metrics.
func (e *jobsEnv) scrape(ctx context.Context) (map[*client.Client]map[string]float64, error) {
	out := map[*client.Client]map[string]float64{}
	for _, c := range e.daemonClients() {
		m, err := c.Metrics(ctx)
		if err != nil {
			return nil, err
		}
		out[c] = m
	}
	return out, nil
}

func (e *jobsEnv) beginTrace(ctx context.Context, tr *tracer) error {
	var err error
	if e.before, err = e.scrape(ctx); err != nil {
		return err
	}
	for _, h := range e.handlers() {
		h.take()
		h.tr.Store(tr)
	}
	return nil
}

func (e *jobsEnv) endTrace(ctx context.Context) error {
	var err error
	if e.after, err = e.scrape(ctx); err != nil {
		return err
	}
	for _, h := range e.handlers() {
		h.tr.Store(nil)
	}
	e.nodeRoutes = map[string][]float64{}
	for _, n := range e.nodes {
		for k, v := range n.h.take() {
			e.nodeRoutes[k] = append(e.nodeRoutes[k], v...)
		}
	}
	e.frontRoutes = e.nodeRoutes
	if e.front != e.nodes[0].h {
		e.frontRoutes = e.front.take()
	}
	return nil
}

// handlers lists the wrappers of the front daemon and of every node.
func (e *jobsEnv) handlers() []*countingHandler {
	out := []*countingHandler{e.front}
	for _, n := range e.nodes {
		if n.h != e.front {
			out = append(out, n.h)
		}
	}
	return out
}

func (e *jobsEnv) layers(_ context.Context, base, ph *phase, tr *tracer, m metrics) error {
	zeroLayers(m)
	clientLayers(m, base.recs)
	var gen, queue, solve, overhead, firstEv, kb []float64
	var traces []*ftdse.Trace
	var results []*ftdse.Result
	var probs []ftdse.Problem
	var ops []jobOp
	seen := map[int]bool{}
	iters := []float64{}
	for _, r := range ph.recs {
		o := r.out.(*jobOut)
		gen = append(gen, o.genMs)
		if r.err != nil || o.st.State != service.StateDone {
			continue
		}
		kb = append(kb, o.resultKB)
		if r.kind == kindStream {
			firstEv = append(firstEv, o.firstEventMs)
		}
		jr := o.jr
		if o.st.Cached || r.kind == kindCancel {
			continue
		}
		var q, s float64
		for _, sp := range jr.Spans {
			switch sp.Name {
			case "queue_wait":
				q += sp.DurationMs
			case "solve":
				s += sp.DurationMs
			}
		}
		if r.kind == kindFresh {
			queue = append(queue, q)
			solve = append(solve, s)
			overhead = append(overhead, r.ms-q-s)
		}
		if seen[o.op.in] {
			continue
		}
		seen[o.op.in] = true
		ops = append(ops, o.op)
		iters = append(iters, float64(jr.Iterations))
		if jr.TraceJSONL != "" {
			if t, err := ftdse.ReadTrace(strings.NewReader(jr.TraceJSONL)); err == nil {
				traces = append(traces, t)
			}
		}
		if len(results) >= designSample {
			continue
		}
		if ref, err := e.solveRef(o.op.in, r.kind); err == nil {
			results = append(results, ref)
			p, _ := e.input(e.seed, o.op.in, r.kind)
			probs = append(probs, p)
		}
	}
	m.set("gen.generate_ms", median(gen), "ms")
	m.set("sysio.result_kb", median(kb), "KB")
	m.set("service.queue_wait_ms_p50", median(queue), "ms")
	m.set("service.solve_ms_p50", median(solve), "ms")
	m.set("service.stream_first_event_ms_p50", median(firstEv), "ms")
	flightTraceLayers(m, traces)
	designLayers(m, probs, results)
	runtimeLayers(m, ph)

	var fpUs []float64
	for _, op := range ops {
		p, o := e.input(e.seed, op.in, op.kind)
		t0 := time.Now()
		if _, err := service.Fingerprint(p, o); err == nil {
			fpUs = append(fpUs, us(time.Since(t0)))
		}
	}
	m.set("service.fingerprint_us", median(fpUs), "us")

	nodeKeys := e.nodeRoutes
	m.set("service.handler_ms.solve", median(append(nodeKeys["POST /solve"], nodeKeys["POST /solve?wait"]...)), "ms")
	m.set("service.handler_ms.cancel", median(nodeKeys["DELETE /jobs"]), "ms")
	delta := func(name string) float64 {
		var d float64
		for c, a := range e.after {
			d += a[name] - e.before[c][name]
		}
		return d
	}
	hits, misses := delta("ftdse_cache_hits_total"), delta("ftdse_cache_misses_total")
	m.set("service.cache_hit_ratio", ratio(hits, hits+misses), "ratio")
	m.set("service.coalesced", delta("ftdse_jobs_coalesced_total"), "count")
	m.set("service.rejected", delta("ftdse_jobs_rejected_total"), "count")
	solves := delta("ftdse_solves_total")
	ev := ph.ev
	m.set("core.passes_per_solve", ratio(float64(ev.passes), solves), "count")
	m.set("core.memo_hit_ratio", ratio(float64(ev.hits), float64(ev.hits+ev.misses)), "ratio")
	m.set("core.iterations_per_solve", mean(iters), "count")
	m.set("core.scratch_allocs_per_solve", ratio(float64(ev.scratch), solves), "count")

	if e.extra == nil {
		m.set("service.overhead_ms_p50", median(overhead), "ms")
		return nil
	}
	m.set("cluster.overhead_ms_p50", median(overhead), "ms")
	e.extra(m, daemonCounts{delta: delta, front: e.after[e.c], frontRoutes: e.frontRoutes, nodeRoutes: nodeKeys})
	return nil
}

func (e *jobsEnv) close() error {
	e.ctr.CloseIdleConnections()
	err := e.closeF()
	for _, n := range e.nodes {
		if cerr := n.close(); err == nil {
			err = cerr
		}
	}
	return err
}

// warmUp runs n small jobs through the front daemon.
func (e *jobsEnv) warmUp(n int) error {
	for w := 0; w < n; w++ {
		p := ftdse.GenerateProblem(ftdse.GenSpec{Procs: 8, Nodes: 2, Seed: mix(warmSeed, w)},
			ftdse.FaultModel{K: 1, Mu: ftdse.Ms(5)})
		st, err := e.c.SubmitWait(context.Background(), p, service.SolveOptions{MaxIterations: 5})
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		if st.State != service.StateDone {
			return fmt.Errorf("warm-up job ended %s", st.State)
		}
	}
	return nil
}
