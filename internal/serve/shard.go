package serve

import (
	"context"
	"sync"

	"gicnet/internal/failure"
	"gicnet/internal/rare"
	"gicnet/internal/sim"
)

// call is one enqueued request. done closes after resp/err are set; the
// owning caller reads them directly, dedup joiners copy resp and restamp
// its provenance.
type call struct {
	req  Request
	key  resultKey
	resp *Response
	err  error
	done chan struct{}
}

// shard owns a partition of the (world, network) fleet: its result tier,
// its plan tier, its singleflight table and its batch queue, drained by
// WorkersPerShard executor goroutines that each own one sim.Arena.
//
// mu guards the request-path state (results, inflight, pending, order,
// stats) and pairs with cond for executor wakeup. planMu guards the plan
// tier separately so a plan compile never blocks the cache fast path.
type shard struct {
	srv *Server
	id  int

	mu       sync.Mutex
	cond     *sync.Cond
	closed   bool
	results  *lru[resultKey, *Response]
	inflight map[resultKey]*call
	pending  map[batchKey][]*call
	order    []batchKey
	stats    ShardStats

	planMu    sync.Mutex
	plans     *lru[planKey, *failure.Plan]
	planStats TierStats
}

func newShard(srv *Server, id int) *shard {
	s := &shard{
		srv:      srv,
		id:       id,
		results:  newLRU[resultKey, *Response](srv.cfg.ResultCacheCap),
		inflight: make(map[resultKey]*call),
		pending:  make(map[batchKey][]*call),
		plans:    newLRU[planKey, *failure.Plan](srv.cfg.PlanCacheCap),
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// executor is one worker goroutine's life: sleep until the queue has a
// batch, drain exactly one batch key's calls, run them back-to-back on
// this executor's private arena, repeat. Batching is "natural": whatever
// compatible requests accumulated while every executor was busy run as
// one sweep, with no timers — idle servers keep single-request latency,
// loaded servers coalesce automatically.
func (s *shard) executor(arena *sim.Arena) {
	defer s.srv.wg.Done()
	for {
		s.mu.Lock()
		for len(s.order) == 0 && !s.closed {
			s.cond.Wait()
		}
		if len(s.order) == 0 {
			s.mu.Unlock()
			return
		}
		bk := s.order[0]
		s.order = s.order[1:]
		calls := s.pending[bk]
		delete(s.pending, bk)
		s.stats.Batches++
		s.stats.BatchedRequests += uint64(len(calls))
		if len(calls) > 1 {
			s.stats.Coalesced += uint64(len(calls) - 1)
		}
		s.mu.Unlock()
		s.execBatch(calls, arena)
	}
}

// execBatch runs one coalesced batch. Calls are sorted by sweep point
// first so execution order — and with it plan-tier traffic — depends
// only on the batch's contents, never on arrival order.
func (s *shard) execBatch(calls []*call, arena *sim.Arena) {
	sortCalls(calls)
	for _, c := range calls {
		resp, err := s.compute(c.req, c.key, arena)
		if err == nil {
			resp.BatchSize = len(calls)
		}
		s.finish(c, resp, err)
	}
}

// compute answers one request through the serving tiers: plan tier for
// the compiled scenario, executor-owned arena for the trial loop. The
// run uses the server's root context — a computation is shared property
// (dedup joiners and the result tier both consume it), so only Close
// cancels it, never an individual caller.
func (s *shard) compute(req Request, key resultKey, arena *sim.Arena) (*Response, error) {
	srv := s.srv
	we := srv.worlds[key.worldSeed]
	ne := we.nets[key.network]
	plan, err := s.planFor(key, ne)
	if err != nil {
		return nil, err
	}
	cfg := sim.Config{
		Model:     modelFor(key),
		SpacingKm: key.spacingKm,
		Trials:    key.trials,
		Seed:      key.seed,
		Workers:   1,                       // serving concurrency comes from shards
		Estimator: srv.ests[key.estimator], // nil on the plain path
	}
	if key.crossLayer {
		if cfg.CrossLayer, err = ne.crossIndex(we.world.Routers); err != nil {
			return nil, err
		}
	}
	res, err := arena.RunPlan(srv.rootCtx, plan, cfg)
	if err != nil {
		return nil, err
	}
	return buildResponse(req, ne, res, s.id), nil
}

// computeBaseline is the no-tier pricing path: a cold sim.Run with a
// fresh per-request estimator, on the caller's goroutine and context.
func (s *shard) computeBaseline(ctx context.Context, req Request, key resultKey) (*Response, error) {
	srv := s.srv
	we := srv.worlds[key.worldSeed]
	ne := we.nets[key.network]
	cfg := sim.Config{
		Model:     modelFor(key),
		SpacingKm: key.spacingKm,
		Trials:    key.trials,
		Seed:      key.seed,
		Workers:   1,
		Estimator: newEstimator(key.estimator),
	}
	if key.crossLayer {
		var err error
		if cfg.CrossLayer, err = ne.crossIndex(we.world.Routers); err != nil {
			return nil, err
		}
	}
	res, err := sim.Run(ctx, ne.net, cfg)
	if err != nil {
		return nil, err
	}
	resp := buildResponse(req, ne, res, s.id)
	resp.BatchSize = 1
	return resp, nil
}

// planFor looks the scenario's compiled plan up in the shard's plan
// tier, compiling (and warming the network's contraction tier) on miss.
// The compile happens under planMu: only executors contend here, and
// holding the lock keeps a popular new scenario from compiling twice.
func (s *shard) planFor(key resultKey, ne *netEntry) (*failure.Plan, error) {
	pk := key.planKey()
	s.planMu.Lock()
	defer s.planMu.Unlock()
	if p, ok := s.plans.get(pk); ok {
		s.planStats.Hits++
		return p, nil
	}
	s.planStats.Misses++
	plan, err := failure.Compile(ne.net, modelFor(key), key.spacingKm)
	if err != nil {
		return nil, err
	}
	// Warm the contraction tier: the core contraction of this plan's
	// at-risk set backs every connectivity-style query against the same
	// scenario family, and the network-level LRU (internal/topology)
	// shares it across all plans with that at-risk set.
	plan.Contraction()
	s.plans.put(pk, plan)
	return plan, nil
}

// finish publishes a computation's outcome: caches a private copy (the
// owner keeps the original, so cached entries are never aliased by a
// caller), clears the singleflight slot, and releases every waiter.
func (s *shard) finish(c *call, resp *Response, err error) {
	s.mu.Lock()
	if err != nil {
		s.stats.Errors++
	} else {
		cached := *resp
		s.results.put(c.key, &cached)
	}
	delete(s.inflight, c.key)
	s.mu.Unlock()
	c.resp, c.err = resp, err
	close(c.done)
}

// countError attributes a baseline-path failure to the shard.
func (s *shard) countError() {
	s.mu.Lock()
	s.stats.Errors++
	s.mu.Unlock()
}

// snapshot copies the shard's counters, folding in the LRUs' eviction
// counts.
func (s *shard) snapshot() ShardStats {
	s.mu.Lock()
	st := s.stats
	st.Shard = s.id
	st.Results.Evictions = s.results.evictions
	s.mu.Unlock()
	s.planMu.Lock()
	st.Plans = s.planStats
	st.Plans.Evictions = s.plans.evictions
	s.planMu.Unlock()
	return st
}

// modelFor reconstructs the failure model a canonical request names.
func modelFor(key resultKey) failure.Model {
	switch key.model {
	case "s1":
		return failure.S1()
	case "s2":
		return failure.S2()
	default:
		return failure.Uniform{P: key.p}
	}
}

// estimatorNames lists the request estimator names in canonical order.
var estimatorNames = []string{"is", "is-qmc", "qmc"}

// newEstimator builds a fresh estimator instance for a request estimator
// name, or nil for "" (plain Monte Carlo) and unknown names. New calls it
// once per name for the shared instances; the baseline path calls it per
// request, so pricing runs get no benefit from another request's compiled
// tilt state.
func newEstimator(name string) sim.Estimator {
	switch name {
	case "is":
		return rare.NewIS(0)
	case "is-qmc":
		return rare.NewISQMC(0)
	case "qmc":
		return rare.NewQMC()
	}
	return nil
}

// buildResponse extracts the scalar summary and provenance block from a
// run result. It must copy everything it needs: on the arena path, res
// is arena-owned storage recycled by the batch's next call.
func buildResponse(req Request, ne *netEntry, res *sim.Result, shardID int) *Response {
	resp := &Response{
		Request:           req,
		WorldFingerprint:  ne.fingerprint,
		Fingerprint:       res.Fingerprint(),
		CableFracMean:     res.CableFrac.Mean(),
		CableFracStd:      res.CableFrac.StdDev(),
		NodeFracMean:      res.NodeFrac.Mean(),
		NodeFracStd:       res.NodeFrac.StdDev(),
		WeightedCableFrac: res.WeightedMean(func(o failure.Outcome) float64 { return o.CableFrac }),
		WeightedNodeFrac:  res.WeightedMean(func(o failure.Outcome) float64 { return o.NodeFrac }),
		ESS:               res.ESS(),
		Provenance:        ProvComputed,
		Shard:             shardID,
	}
	if len(res.Cross) > 0 && ne.cross != nil {
		intactPairs := float64(ne.cross.Intact().ReachablePairs)
		var pairs, stranded, weighted float64
		for i := range res.Cross {
			pairs += float64(res.Cross[i].ReachablePairs)
			stranded += res.Cross[i].StrandedShare
			weighted += res.Cross[i].DemandWeighted
		}
		n := float64(len(res.Cross))
		if intactPairs > 0 {
			resp.CrossReachableFrac = pairs / n / intactPairs
		}
		resp.CrossStrandedShare = stranded / n
		resp.CrossDemandWeighted = weighted / n
	}
	return resp
}
