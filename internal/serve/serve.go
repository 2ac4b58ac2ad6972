// Package serve implements gicnetd's scenario-serving engine: a fleet of
// pinned worlds sharded across executor pools, with tiered caching
// (results, compiled failure plans, core contractions), singleflight
// deduplication of identical in-flight requests, and cross-request
// batching of compatible scenario sweeps onto shared arenas.
//
// The engine's load-bearing invariant is that serving never changes an
// answer: every response carries the deterministic replay fingerprint of
// the equivalent offline run, i.e. sim.Run with the request's own
// configuration, whatever mix of cache tiers, dedup joins and batch
// shapes produced it. internal/verify replays served scenarios against
// offline runs to keep that provenance contract pinned.
package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"gicnet/internal/crosslayer"
	"gicnet/internal/dataset"
	"gicnet/internal/routing"
	"gicnet/internal/sim"
	"gicnet/internal/topology"
)

// ErrServerClosed is returned by Do after Close has begun.
var ErrServerClosed = errors.New("serve: server closed")

// Provenance tags stamped on every response.
const (
	// ProvComputed marks a response whose simulation ran for this request.
	ProvComputed = "computed"
	// ProvCache marks a response served from the result tier.
	ProvCache = "cache"
	// ProvDedup marks a response that joined an identical in-flight
	// computation instead of starting its own.
	ProvDedup = "dedup"
)

// Network names accepted in requests, in canonical order.
var networkNames = []string{"submarine", "intertubes", "itu"}

// Request describes one scenario evaluation. The zero value of optional
// fields selects documented defaults (see Server.normalize); the
// canonicalised request is echoed back in the response, and running
// sim.Run offline with exactly those echoed values reproduces the
// response fingerprint bit for bit.
type Request struct {
	// WorldSeed selects a pinned world; 0 selects the server's first.
	WorldSeed uint64 `json:"world_seed,omitempty"`
	// Network is "submarine", "intertubes" or "itu" (default "submarine").
	Network string `json:"network,omitempty"`
	// Model is "uniform" (default), "s1" or "s2".
	Model string `json:"model,omitempty"`
	// P is the uniform repeater death probability in [0, 1]; ignored for
	// the latitude-tiered models.
	P float64 `json:"p,omitempty"`
	// SpacingKm is the inter-repeater distance (default 100).
	SpacingKm float64 `json:"spacing_km,omitempty"`
	// Trials is the Monte Carlo trial budget (default 1024).
	Trials int `json:"trials,omitempty"`
	// Seed drives the trial RNGs.
	Seed uint64 `json:"seed,omitempty"`
	// Estimator is "" (plain Monte Carlo), "is", "is-qmc" or "qmc".
	Estimator string `json:"estimator,omitempty"`
	// CrossLayer additionally scores every trial through the cable->AS
	// adjacency: severed AS pairs and stranded users. Only networks with
	// located attach sites accept it (the ITU map has none).
	CrossLayer bool `json:"cross_layer,omitempty"`
}

// Response is the answer to one Request, scalar summaries plus the
// provenance block: the replay fingerprint of the equivalent offline run,
// the world fingerprint it was computed against, and how the serving
// engine produced it.
type Response struct {
	// Request echoes the canonicalised request this answers.
	Request Request `json:"request"`
	// WorldFingerprint hashes the network structure the run used.
	WorldFingerprint uint64 `json:"world_fingerprint"`
	// Fingerprint is the deterministic replay fingerprint; it equals
	// sim.Run(Request).Fingerprint() for every provenance.
	Fingerprint uint64 `json:"fingerprint"`
	// CableFracMean/Std and NodeFracMean/Std summarise the raw trial
	// outcomes (the proposal distribution under an estimator).
	CableFracMean float64 `json:"cable_frac_mean"`
	CableFracStd  float64 `json:"cable_frac_std"`
	NodeFracMean  float64 `json:"node_frac_mean"`
	NodeFracStd   float64 `json:"node_frac_std"`
	// WeightedCableFrac/NodeFrac are the importance-weighted estimates of
	// the target distribution's means (equal to the plain means when the
	// request used no estimator).
	WeightedCableFrac float64 `json:"weighted_cable_frac"`
	WeightedNodeFrac  float64 `json:"weighted_node_frac"`
	// ESS is the effective sample size (Trials on the plain path).
	ESS float64 `json:"ess"`
	// CrossReachableFrac, CrossStrandedShare and CrossDemandWeighted are
	// the mean cross-layer aggregates over the trials; present only when
	// the request set CrossLayer.
	CrossReachableFrac  float64 `json:"cross_reachable_frac,omitempty"`
	CrossStrandedShare  float64 `json:"cross_stranded_share,omitempty"`
	CrossDemandWeighted float64 `json:"cross_demand_weighted,omitempty"`
	// Provenance is "computed", "cache" or "dedup".
	Provenance string `json:"provenance"`
	// BatchSize counts the requests coalesced into the sweep batch that
	// computed this result (1 = ran alone; 0 on cache hits, which ran in
	// an earlier batch).
	BatchSize int `json:"batch_size,omitempty"`
	// Shard is the shard that owns this scenario's world+network.
	Shard int `json:"shard"`
}

// Config tunes a Server. The zero value of every knob selects a
// documented default.
type Config struct {
	// Worlds pins pre-generated worlds, keyed by their embedded Seed.
	Worlds []*dataset.World
	// WorldSeeds generates and pins additional worlds (the
	// generator-seed sensitivity fleet) with the calibrated generator
	// defaults. Seeds already pinned via Worlds are skipped.
	WorldSeeds []uint64
	// Shards partitions the fleet; each (world, network) pair is owned
	// by exactly one shard (default 4).
	Shards int
	// WorkersPerShard is the executor pool size per shard; each executor
	// owns one sim.Arena (default 2).
	WorkersPerShard int
	// ResultCacheCap bounds the per-shard result tier (default 4096).
	ResultCacheCap int
	// PlanCacheCap bounds the per-shard compiled-plan tier (default 64).
	PlanCacheCap int
	// MaxTrials rejects runaway requests (default 1<<20).
	MaxTrials int
	// Baseline disables every serving optimisation: each request runs a
	// cold sim.Run with fresh per-request state. It exists so load tests
	// can price the tiers.
	Baseline bool
}

// netEntry is one pinned network with its serving-time immutables
// prewarmed: structural fingerprint, adjacency, incidence bitsets. The
// cross-layer index is lazy: compiled once on the first scored request
// against this network, never per request.
type netEntry struct {
	net         *topology.Network
	fingerprint uint64
	crossOK     bool // network has located attach sites and the world has ASes
	crossOnce   sync.Once
	cross       *crosslayer.Index
	crossErr    error
}

// crossIndex compiles (once) and returns the cable->AS index.
func (ne *netEntry) crossIndex(cat *dataset.RouterCatalog) (*crosslayer.Index, error) {
	ne.crossOnce.Do(func() {
		ne.cross, ne.crossErr = crosslayer.Compile(ne.net, cat, routing.DefaultDemands())
	})
	return ne.cross, ne.crossErr
}

// worldEntry is one pinned world and its three networks keyed by
// canonical name.
type worldEntry struct {
	world *dataset.World
	nets  map[string]*netEntry
}

// Server is the scenario-serving engine. Create with New, issue requests
// with Do from any number of goroutines, and Close to tear down the
// executor fleet.
type Server struct {
	cfg        Config
	worlds     map[uint64]*worldEntry
	worldSeeds []uint64 // insertion order, for deterministic reporting
	shards     []*shard
	ests       map[string]sim.Estimator // shared per-name instances
	rootCtx    context.Context
	cancel     context.CancelFunc
	wg         sync.WaitGroup
	closed     atomic.Bool
}

// New builds the world fleet, prewarms the per-network immutables, and
// starts the shard executors.
func New(cfg Config) (*Server, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = 4
	}
	if cfg.WorkersPerShard <= 0 {
		cfg.WorkersPerShard = 2
	}
	if cfg.ResultCacheCap <= 0 {
		cfg.ResultCacheCap = 4096
	}
	if cfg.PlanCacheCap <= 0 {
		cfg.PlanCacheCap = 64
	}
	if cfg.MaxTrials <= 0 {
		cfg.MaxTrials = 1 << 20
	}

	srv := &Server{
		cfg:    cfg,
		worlds: make(map[uint64]*worldEntry),
		ests:   make(map[string]sim.Estimator, len(estimatorNames)),
	}
	for _, name := range estimatorNames {
		srv.ests[name] = newEstimator(name)
	}
	for _, w := range cfg.Worlds {
		if err := srv.pinWorld(w); err != nil {
			return nil, err
		}
	}
	wcfg := dataset.DefaultWorldConfig()
	for _, seed := range cfg.WorldSeeds {
		if _, ok := srv.worlds[seed]; ok {
			continue
		}
		w, err := dataset.GenerateWorld(wcfg, seed)
		if err != nil {
			return nil, fmt.Errorf("serve: generating world %d: %w", seed, err)
		}
		if err := srv.pinWorld(w); err != nil {
			return nil, err
		}
	}
	if len(srv.worlds) == 0 {
		return nil, errors.New("serve: no worlds pinned; set Worlds or WorldSeeds")
	}

	srv.rootCtx, srv.cancel = context.WithCancel(context.Background())
	for i := 0; i < cfg.Shards; i++ {
		s := newShard(srv, i)
		srv.shards = append(srv.shards, s)
		for w := 0; w < cfg.WorkersPerShard; w++ {
			srv.wg.Add(1)
			go s.executor(sim.NewArena())
		}
	}
	return srv, nil
}

// pinWorld validates and prewarms one world's networks: structural
// fingerprints, adjacency and incidence caches, so request-time work
// touches only tiered state.
func (srv *Server) pinWorld(w *dataset.World) error {
	if _, ok := srv.worlds[w.Seed]; ok {
		return fmt.Errorf("serve: world seed %d pinned twice", w.Seed)
	}
	we := &worldEntry{world: w, nets: make(map[string]*netEntry, 3)}
	for _, pair := range []struct {
		name string
		net  *topology.Network
	}{
		{"submarine", w.Submarine},
		{"intertubes", w.Intertubes},
		{"itu", w.ITU},
	} {
		if pair.net == nil {
			return fmt.Errorf("serve: world %d has no %s network", w.Seed, pair.name)
		}
		if err := pair.net.Validate(); err != nil {
			return fmt.Errorf("serve: world %d %s: %w", w.Seed, pair.name, err)
		}
		pair.net.Graph()
		pair.net.IncidenceBits()
		pair.net.CableIncidence()
		we.nets[pair.name] = &netEntry{
			net:         pair.net,
			fingerprint: pair.net.Fingerprint(),
			crossOK:     w.Routers != nil && len(w.Routers.ASes) > 0 && hasAttachSite(pair.net),
		}
	}
	srv.worlds[w.Seed] = we
	srv.worldSeeds = append(srv.worldSeeds, w.Seed)
	return nil
}

// hasAttachSite reports whether a network has at least one cable-touching
// node with a coordinate — the precondition for cross-layer scoring,
// checked at pin time so normalize can reject without compiling.
func hasAttachSite(net *topology.Network) bool {
	touched := make([]bool, len(net.Nodes))
	for _, c := range net.Cables {
		for _, seg := range c.Segments {
			touched[seg.A] = true
			touched[seg.B] = true
		}
	}
	for i, n := range net.Nodes {
		if touched[i] && n.HasCoord {
			return true
		}
	}
	return false
}

// WorldSeeds returns the pinned fleet's seeds in pin order.
func (srv *Server) WorldSeeds() []uint64 {
	out := make([]uint64, len(srv.worldSeeds))
	copy(out, srv.worldSeeds)
	return out
}

// normalize applies request defaults, validates against the pinned
// fleet, and derives the cache identity.
func (srv *Server) normalize(req Request) (Request, resultKey, error) {
	var key resultKey
	if req.WorldSeed == 0 {
		req.WorldSeed = srv.worldSeeds[0]
	}
	we, ok := srv.worlds[req.WorldSeed]
	if !ok {
		return req, key, fmt.Errorf("serve: world seed %d not pinned", req.WorldSeed)
	}
	if req.Network == "" {
		req.Network = "submarine"
	}
	ne, ok := we.nets[req.Network]
	if !ok {
		return req, key, fmt.Errorf("serve: unknown network %q (want submarine, intertubes or itu)", req.Network)
	}
	if req.CrossLayer && !ne.crossOK {
		return req, key, fmt.Errorf("serve: network %q has no located attach sites; cross-layer scoring unavailable", req.Network)
	}
	if req.Model == "" {
		req.Model = "uniform"
	}
	switch req.Model {
	case "uniform":
		if math.IsNaN(req.P) || req.P < 0 || req.P > 1 {
			return req, key, fmt.Errorf("serve: uniform p %v outside [0, 1]", req.P)
		}
	case "s1", "s2":
		req.P = 0 // tiered models carry their own probabilities
	default:
		return req, key, fmt.Errorf("serve: unknown model %q (want uniform, s1 or s2)", req.Model)
	}
	//gicnet:allow floatcmp exact zero is the unset sentinel, not a computed value
	if req.SpacingKm == 0 {
		req.SpacingKm = 100
	}
	if math.IsNaN(req.SpacingKm) || req.SpacingKm <= 0 || math.IsInf(req.SpacingKm, 0) {
		return req, key, fmt.Errorf("serve: spacing %v must be positive and finite", req.SpacingKm)
	}
	if req.Trials == 0 {
		req.Trials = 1024
	}
	if req.Trials < 0 || req.Trials > srv.cfg.MaxTrials {
		return req, key, fmt.Errorf("serve: trials %d outside [1, %d]", req.Trials, srv.cfg.MaxTrials)
	}
	if req.Estimator != "" {
		if _, ok := srv.ests[req.Estimator]; !ok {
			return req, key, fmt.Errorf("serve: unknown estimator %q (want is, is-qmc or qmc)", req.Estimator)
		}
	}
	key = resultKey{
		worldSeed:  req.WorldSeed,
		network:    req.Network,
		model:      req.Model,
		p:          req.P,
		spacingKm:  req.SpacingKm,
		trials:     req.Trials,
		seed:       req.Seed,
		estimator:  req.Estimator,
		crossLayer: req.CrossLayer,
	}
	return req, key, nil
}

// Do answers one scenario request: result-tier lookup, then singleflight
// join of an identical in-flight computation, then enqueue onto the
// owning shard's batch queue. ctx cancels this caller's wait only — a
// computation other requests may join is never torn down by one waiter
// leaving.
func (srv *Server) Do(ctx context.Context, req Request) (*Response, error) {
	req, key, err := srv.normalize(req)
	if err != nil {
		return nil, err
	}
	if srv.closed.Load() {
		return nil, ErrServerClosed
	}
	s := srv.shards[shardIndex(key.worldSeed, key.network, len(srv.shards))]

	if srv.cfg.Baseline {
		// Cold path: no tiers, no executors — each request prices the
		// full offline pipeline on the caller's goroutine.
		s.mu.Lock()
		s.stats.Requests++
		s.mu.Unlock()
		resp, err := s.computeBaseline(ctx, req, key)
		if err != nil {
			s.countError()
			return nil, err
		}
		return resp, nil
	}

	s.mu.Lock()
	s.stats.Requests++
	if r, ok := s.results.get(key); ok {
		s.stats.Results.Hits++
		s.mu.Unlock()
		out := *r
		out.Provenance = ProvCache
		out.BatchSize = 0
		return &out, nil
	}
	s.stats.Results.Misses++
	if c, ok := s.inflight[key]; ok {
		s.stats.Dedup++
		s.mu.Unlock()
		return joinCall(ctx, c)
	}
	if s.closed {
		s.mu.Unlock()
		return nil, ErrServerClosed
	}
	c := &call{req: req, key: key, done: make(chan struct{})}
	s.inflight[key] = c
	bk := key.batchKey()
	if _, queued := s.pending[bk]; !queued {
		s.order = append(s.order, bk)
	}
	s.pending[bk] = append(s.pending[bk], c)
	s.cond.Signal()
	s.mu.Unlock()

	select {
	case <-c.done:
		return c.resp, c.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// joinCall waits on another request's in-flight computation and restamps
// the shared response with dedup provenance.
func joinCall(ctx context.Context, c *call) (*Response, error) {
	select {
	case <-c.done:
		if c.err != nil {
			return nil, c.err
		}
		out := *c.resp
		out.Provenance = ProvDedup
		return &out, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Close stops the executor fleet: in-flight simulations are cancelled,
// queued calls fail with ErrServerClosed, and Close returns once every
// executor has exited. Close is idempotent.
func (srv *Server) Close() {
	if !srv.closed.CompareAndSwap(false, true) {
		return
	}
	srv.cancel()
	for _, s := range srv.shards {
		s.mu.Lock()
		s.closed = true
		s.cond.Broadcast()
		s.mu.Unlock()
	}
	srv.wg.Wait()
}

// TierStats counts one cache tier's traffic.
type TierStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
}

// ShardStats is one shard's serving counters.
type ShardStats struct {
	Shard           int       `json:"shard"`
	Requests        uint64    `json:"requests"`
	Results         TierStats `json:"results"`
	Plans           TierStats `json:"plans"`
	Dedup           uint64    `json:"dedup"`
	Batches         uint64    `json:"batches"`
	BatchedRequests uint64    `json:"batched_requests"`
	Coalesced       uint64    `json:"coalesced"`
	Errors          uint64    `json:"errors"`
}

// ContractionStats reports the topology-level core-contraction LRU for
// one pinned network, attributed to its owning shard.
type ContractionStats struct {
	WorldSeed uint64 `json:"world_seed"`
	Network   string `json:"network"`
	Shard     int    `json:"shard"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
}

// Stats is a point-in-time snapshot of the serving counters.
type Stats struct {
	Worlds       int                `json:"worlds"`
	Shards       []ShardStats       `json:"shards"`
	Contractions []ContractionStats `json:"contractions"`
}

// Stats snapshots every shard's counters and the per-network contraction
// tiers, in deterministic order.
func (srv *Server) Stats() Stats {
	st := Stats{Worlds: len(srv.worldSeeds)}
	for _, s := range srv.shards {
		st.Shards = append(st.Shards, s.snapshot())
	}
	for _, seed := range srv.worldSeeds {
		we := srv.worlds[seed]
		for _, name := range networkNames {
			ne := we.nets[name]
			hits, misses := ne.net.ContractionCacheStats()
			st.Contractions = append(st.Contractions, ContractionStats{
				WorldSeed: seed,
				Network:   name,
				Shard:     shardIndex(seed, name, len(srv.shards)),
				Hits:      hits,
				Misses:    misses,
			})
		}
	}
	return st
}

// sortCalls orders a drained batch by sweep point so execution order —
// and therefore plan-tier traffic — is independent of arrival order.
func sortCalls(calls []*call) {
	sort.Slice(calls, func(i, j int) bool {
		return calls[i].key.p < calls[j].key.p
	})
}
