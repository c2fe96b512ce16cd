package bench

// Load-generation benchmarks for the ftclusterd coordinator tier: they
// drive the full cluster path — coordinator admission, shard placement,
// dispatch to a node pool, per-job status polling, result collection —
// through the same typed client as the single-node benchmarks, so the
// coordination overhead on top of BenchmarkServiceThroughput is
// directly readable. Run with:
//
//	go test ./bench -bench BenchmarkCluster -run '^$'

import (
	"context"
	"fmt"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/ftdse"
	"repro/ftdse/client"
	"repro/ftdse/cluster"
	"repro/ftdse/service"
)

// benchCluster starts n solver nodes plus a coordinator and returns a
// client against the coordinator and one against each node.
func benchCluster(b *testing.B, n int, nodeCfg service.Config) (*client.Client, []*client.Client) {
	b.Helper()
	cfg := cluster.Config{
		// Snappy loops: the benchmark measures coordination overhead, not
		// the production polling cadence.
		HealthInterval: 100 * time.Millisecond,
		PollInterval:   2 * time.Millisecond,
	}
	var nodes []*client.Client
	for i := 0; i < n; i++ {
		svc := service.New(nodeCfg)
		srv := httptest.NewServer(svc.Handler())
		cfg.Nodes = append(cfg.Nodes, cluster.Node{Name: fmt.Sprintf("n%d", i+1), URL: srv.URL})
		nodes = append(nodes, client.New(srv.URL, srv.Client()))
		b.Cleanup(func() {
			srv.Close()
			if err := svc.Close(context.Background()); err != nil {
				b.Errorf("node Close: %v", err)
			}
		})
	}
	coord, err := cluster.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	if err := coord.Start(srv.URL); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := coord.Close(ctx); err != nil {
			b.Errorf("coordinator Close: %v", err)
		}
		srv.Close()
	})
	return client.New(srv.URL, srv.Client()), nodes
}

// BenchmarkClusterThroughput measures sustained jobs/sec through a
// coordinator sharding over two nodes with node caches off: every
// submission re-solves on its owning shard. Compare against
// BenchmarkServiceThroughput to read the cluster tier's overhead
// (journal-less: admission, placement, dispatch, polling).
func BenchmarkClusterThroughput(b *testing.B) {
	c, _ := benchCluster(b, 2, service.Config{QueueSize: 1024, CacheSize: -1})
	probs := make([]ftdse.Problem, 16)
	for i := range probs {
		probs[i] = benchProblem(int64(200 + i))
	}
	opts := service.SolveOptions{MaxIterations: 4, Workers: 1}
	var next atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			p := probs[int(next.Add(1))%len(probs)]
			st, err := c.SubmitWait(context.Background(), p, opts)
			if err != nil {
				b.Fatal(err)
			}
			if st.State != service.StateDone {
				b.Fatalf("job ended %s (%s)", st.State, st.Error)
			}
		}
	})
}

// BenchmarkClusterAffinityCacheHit measures the sharded cache-hit path:
// one primed fingerprint, answered over and over by its owning node's
// result cache through the coordinator. The delta against
// BenchmarkServiceCacheHit is the price of the extra hop.
func BenchmarkClusterAffinityCacheHit(b *testing.B) {
	c, nodes := benchCluster(b, 2, service.Config{})
	prob := benchProblem(9)
	opts := service.SolveOptions{MaxIterations: 4, Workers: 1}
	first, err := c.SubmitWait(context.Background(), prob, opts)
	if err != nil || first.State != service.StateDone {
		b.Fatalf("priming solve: %+v, %v", first, err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			st, err := c.SubmitWait(context.Background(), prob, opts)
			if err != nil {
				b.Fatal(err)
			}
			if st.State != service.StateDone {
				b.Fatalf("job ended %s (%s)", st.State, st.Error)
			}
		}
	})
	b.StopTimer()
	m, err := c.Metrics(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	// Affinity keeps re-solves away: every post-priming submission is
	// either answered by the owning shard's cache or coalesced onto a
	// concurrent identical job, and the priming solve is the only solve.
	hits, coalesced := m["ftcluster_node_cache_hits_total"], m["ftcluster_jobs_coalesced_total"]
	if hits+coalesced != float64(b.N) {
		b.Fatalf("node cache hits %v + coalesced %v over %d submissions — affinity broke", hits, coalesced, b.N)
	}
	solves := 0.0
	for _, nc := range nodes {
		nm, err := nc.Metrics(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		solves += nm["ftdse_solves_total"]
	}
	if solves != 1 {
		b.Fatalf("nodes ran %v solves, want only the priming one", solves)
	}
}
