package main

import (
	"time"

	"repro/ftdse"
	"repro/ftdse/service"
)

// serve-small: one ftdsed node with its production defaults, and two
// clients sending tiny problems. Most of a job's time goes to
// ReadProblem, Fingerprint, the queue, the result cache, WriteSchedule,
// SSE and HTTP rather than to the solver, so solver changes should
// barely move it. The cancels mix writes in with the reads.

func init() { workloads["serve-small"] = workload{setup: setupServe, clients: nproc} }

// serveBlock is the operation mix: 60 % fresh, 25 % repeats, 10 %
// streams and 5 % cancels. Repeats come from the last serveWindow new
// inputs, well inside the node's 128-entry result cache.
var serveBlock = kinds(map[opKind]int{kindFresh: 12, kindRepeat: 5, kindStream: 2, kindCancel: 1})

const (
	serveWindow = 32
	// serveIterations is the tiny jobs' tabu budget (1–7 ms solves).
	serveIterations = 10
	// serveLongIterations makes the canceled solves run for seconds.
	serveLongIterations = 5000
	// serveCancelDelay is how long after its submission a long solve is
	// canceled.
	serveCancelDelay = 20 * time.Millisecond
	serveWarmups     = 100
)

// serveInput is input in of a seed: 6–12 processes on 2 nodes, or a
// 30-process problem with a long budget for the canceled jobs. Every
// other option keeps its wire default.
func serveInput(seed int64, in int, k opKind) (ftdse.Problem, service.SolveOptions) {
	h := mix(seed, in)
	if k == kindCancel {
		return ftdse.GenerateProblem(ftdse.GenSpec{Procs: 30, Nodes: 3, Shape: shapes[in%3], Seed: h},
			ftdse.FaultModel{K: 3, Mu: ftdse.Ms(5)}), service.SolveOptions{MaxIterations: serveLongIterations}
	}
	spec := ftdse.GenSpec{Procs: 6 + int(uint64(h)%7), Nodes: 2, Shape: shapes[in%3], WCETDist: dists[in/3%2], Seed: h}
	return ftdse.GenerateProblem(spec, ftdse.FaultModel{K: 1 + in%2, Mu: ftdse.Ms(5)}),
		service.SolveOptions{MaxIterations: serveIterations}
}

func setupServe(cfg config) (env, error) {
	n := startNode("node")
	e := &jobsEnv{
		seed:        cfg.seed,
		block:       len(serveBlock),
		plan:        makePlan(cfg.seed, serveBlock, serveWindow),
		input:       serveInput,
		cancelDelay: serveCancelDelay,
		c:           n.c,
		ctr:         n.tr,
		front:       n.h,
		nodes:       []*node{n},
		closeF:      func() error { return nil },
		refs:        map[int]refCost{},
	}
	if err := e.warmUp(serveWarmups); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}
