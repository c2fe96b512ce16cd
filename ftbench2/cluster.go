package main

import (
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"repro/ftdse"
	"repro/ftdse/cluster"
	"repro/ftdse/service"
)

// cluster-anneal: the ftclusterd coordinator with its production
// defaults (250 ms status polls, 1 s health and checkpoint cadence, an
// on-disk journal) over two default nodes. Two clients submit medium
// simulated-annealing solves with checkpointing and bus optimization
// on. Admission, journal fsync, dispatch, status polling and cancel
// forwarding are a large share of every job, and the solves use the
// evaluator one move per call, with checkpoint-policy expansion and the
// bus slot-order hill climb.

func init() { workloads["cluster-anneal"] = workload{setup: setupCluster, clients: nproc} }

// clusterBlock is the operation mix: 70 % fresh, 20 % repeats and 10 %
// cancels.
var clusterBlock = kinds(map[opKind]int{kindFresh: 7, kindRepeat: 2, kindCancel: 1})

// clusterSizes pair each size class with the annealing budget that
// keeps its solve near 60 ms (p99 near 120 ms), so every fresh job
// completes before the coordinator's first 250 ms status poll, with
// room for a machine running half as fast, and job latency does not
// jump between poll ticks from run to run.
var clusterSizes = []struct{ procs, nodes, k, iters int }{
	{20, 2, 3, 120}, {30, 3, 3, 65}, {40, 3, 4, 40},
}

const (
	clusterWindow = 16
	// clusterLongIterations makes the canceled solves run for seconds.
	clusterLongIterations = 4000
	// clusterCancelDelay is well past dispatch (a few ms after
	// admission) and before the job's first status poll.
	clusterCancelDelay = 100 * time.Millisecond
	clusterWarmups     = 2
)

// clusterInput is input in of a seed.
func clusterInput(seed int64, in int, k opKind) (ftdse.Problem, service.SolveOptions) {
	sz := clusterSizes[in%len(clusterSizes)]
	iters := sz.iters
	if k == kindCancel {
		sz, iters = clusterSizes[2], clusterLongIterations
	}
	spec := ftdse.GenSpec{Procs: sz.procs, Nodes: sz.nodes, Shape: shapes[in/3%3], WCETDist: dists[in/9%2],
		Seed: mix(seed, in)}
	return ftdse.GenerateProblem(spec, ftdse.FaultModel{K: sz.k, Mu: ftdse.Ms(5)}),
		service.SolveOptions{Engine: "sa", MaxIterations: iters, Checkpointing: true, BusOptimization: true}
}

func setupCluster(cfg config) (env, error) {
	dir, err := os.MkdirTemp(cfg.dir, "cluster-")
	if err != nil {
		return nil, err
	}
	journal := filepath.Join(dir, "journal")
	nodes := []*node{startNode("n1"), startNode("n2")}
	var members []cluster.Node
	for _, n := range nodes {
		members = append(members, cluster.Node{Name: n.name, URL: n.srv.URL})
	}
	coord, err := cluster.New(cluster.Config{Nodes: members, Journal: journal})
	if err != nil {
		for _, n := range nodes {
			n.close()
		}
		os.RemoveAll(dir)
		return nil, err
	}
	h := newCountingHandler("coord", coord.Handler())
	srv := httptest.NewServer(h)
	c, ctr := newClient(srv.URL)
	e := &jobsEnv{
		seed:        cfg.seed,
		block:       len(clusterBlock),
		plan:        makePlan(cfg.seed, clusterBlock, clusterWindow),
		input:       clusterInput,
		cancelDelay: clusterCancelDelay,
		c:           c,
		ctr:         ctr,
		front:       h,
		nodes:       nodes,
		refs:        map[int]refCost{},
		closeF: func() error {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			err := coord.Close(ctx)
			srv.Close()
			if rerr := os.RemoveAll(dir); err == nil {
				err = rerr
			}
			return err
		},
	}
	e.extra = func(m metrics, d daemonCounts) {
		delta := d.delta
		jobs := delta("ftcluster_jobs_submitted_total")
		m.set("cluster.admit_ms_p50", median(d.frontRoutes["POST /solve"]), "ms")
		m.set("cluster.handler_ms.cancel", median(d.frontRoutes["DELETE /jobs"]), "ms")
		if fi, err := os.Stat(journal); err == nil {
			// The journal holds every job this coordinator admitted.
			m.set("cluster.journal_kb_per_job",
				ratio(float64(fi.Size())/1024, d.front["ftcluster_jobs_submitted_total"]), "KB")
		}
		m.set("cluster.node_polls_per_job", ratio(count(d.nodeRoutes, "GET /jobs"), jobs), "count")
		m.set("cluster.node_requests_per_job", ratio(count(d.nodeRoutes), jobs), "count")
		m.set("cluster.checkpoint_pushes_per_job", ratio(delta("ftcluster_checkpoints_received_total"), jobs), "count")
		m.set("cluster.dispatches_per_job", ratio(delta("ftcluster_dispatches_total"), jobs), "count")
		m.set("cluster.redispatches", delta("ftcluster_redispatches_total"), "count")
		m.set("cluster.steals", delta("ftcluster_steals_total"), "count")
		m.set("cluster.coalesced", delta("ftcluster_jobs_coalesced_total"), "count")
		m.set("cluster.node_cache_hits", delta("ftcluster_node_cache_hits_total"), "count")
	}
	if err := coord.Start(srv.URL); err != nil {
		e.close()
		return nil, fmt.Errorf("starting the coordinator: %w", err)
	}
	if err := e.warmUp(clusterWarmups); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}
