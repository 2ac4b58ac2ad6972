package serve

// resultKey is the full identity of one served scenario: every input the
// deterministic engine folds into a run's fingerprint. Two requests with
// equal resultKeys have byte-identical answers, which is what licenses
// the result tier and the singleflight join.
type resultKey struct {
	worldSeed  uint64
	network    string
	model      string
	p          float64
	spacingKm  float64
	trials     int
	seed       uint64
	estimator  string
	crossLayer bool
}

// planKey identifies one compiled failure plan: the scenario family plus
// its sweep point. Trials and seed are runtime inputs, not plan inputs,
// so they are deliberately absent — every trial budget shares the plan.
type planKey struct {
	worldSeed uint64
	network   string
	model     string
	p         float64
	spacingKm float64
}

// batchKey groups compatible requests — same world, network, model
// family, spacing, trial budget, seed and estimator — whose sweep points
// (p) can run back-to-back on one executor's arena as a shared sweep.
type batchKey struct {
	worldSeed  uint64
	network    string
	model      string
	spacingKm  float64
	trials     int
	seed       uint64
	estimator  string
	crossLayer bool
}

// batchKey projects the result identity onto its coalescing class. Sits
// on the request fast path with shardIndex, so it must stay
// allocation-free.
//
//gicnet:hotpath
//gicnet:pure
func (k resultKey) batchKey() batchKey {
	return batchKey{
		worldSeed:  k.worldSeed,
		network:    k.network,
		model:      k.model,
		spacingKm:  k.spacingKm,
		trials:     k.trials,
		seed:       k.seed,
		estimator:  k.estimator,
		crossLayer: k.crossLayer,
	}
}

// planKey projects the result identity onto the plan tier's identity.
//
//gicnet:hotpath
//gicnet:pure
func (k resultKey) planKey() planKey {
	return planKey{
		worldSeed: k.worldSeed,
		network:   k.network,
		model:     k.model,
		p:         k.p,
		spacingKm: k.spacingKm,
	}
}

// shardIndex routes a (world, network) pair to its owning shard with an
// inlined FNV-1a hash (fnv.New64a would allocate; this path runs ahead
// of every cache lookup). Routing on the pair pins each pinned network's
// plans, contractions and results to exactly one shard.
//
//gicnet:hotpath
//gicnet:pure
func shardIndex(worldSeed uint64, network string, shards int) int {
	const (
		offset64 uint64 = 14695981039346656037
		prime64  uint64 = 1099511628211
	)
	h := offset64
	for s := 0; s < 8; s++ {
		h ^= (worldSeed >> (8 * s)) & 0xff
		h *= prime64
	}
	for i := 0; i < len(network); i++ {
		h ^= uint64(network[i])
		h *= prime64
	}
	return int(h % uint64(shards))
}
