package core

import "sync/atomic"

// evalMetrics aggregates process-wide counters of the move-evaluation
// hot path. They are cumulative over every optimization run in the
// process (the evaluator itself is per-run), cheap to maintain (one
// batched atomic add per sweep, one per scratch checkout), and exposed
// through ReadEvaluatorMetrics for the service's /metrics and the
// ftbench harness.
var evalMetrics struct {
	passes        atomic.Int64
	cacheHits     atomic.Int64
	cacheMisses   atomic.Int64
	scratchAllocs atomic.Int64
	scratchReuses atomic.Int64
}

// EvaluatorMetrics is a snapshot of the process-wide counters of the
// candidate-move evaluation hot path.
type EvaluatorMetrics struct {
	// SchedulingPasses counts candidate schedules actually built by move
	// sweeps (memo hits and context-skipped moves excluded).
	SchedulingPasses int64 `json:"scheduling_passes"`
	// CacheHits / CacheMisses instrument the per-run memoization of move
	// costs across all runs.
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	// ScratchAllocs counts evaluation arenas created; ScratchReuses
	// counts checkouts served by the pool without allocating. A healthy
	// hot path reuses orders of magnitude more than it allocates.
	ScratchAllocs int64 `json:"scratch_allocs"`
	ScratchReuses int64 `json:"scratch_reuses"`
}

// ReadEvaluatorMetrics returns the current counter values. Safe for
// concurrent use; counters only grow.
func ReadEvaluatorMetrics() EvaluatorMetrics {
	return EvaluatorMetrics{
		SchedulingPasses: evalMetrics.passes.Load(),
		CacheHits:        evalMetrics.cacheHits.Load(),
		CacheMisses:      evalMetrics.cacheMisses.Load(),
		ScratchAllocs:    evalMetrics.scratchAllocs.Load(),
		ScratchReuses:    evalMetrics.scratchReuses.Load(),
	}
}
