package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"

	"gicnet/internal/crosslayer"
	"gicnet/internal/dataset"
	"gicnet/internal/routing"
	"gicnet/internal/serve"
	"gicnet/internal/serve/loadtest"
	"gicnet/internal/sim"
	"gicnet/internal/xrand"
)

// serve-open: open-loop Poisson arrivals at a fixed absolute rate against
// a real gicnetd over at most nproc keep-alive loopback connections. Each
// request is timed from when it was due, so a stalled daemon or a wait for
// a free connection is charged to every request it delays.
//
// The traffic follows the repo's own serving traffic model, the request
// families of internal/serve/loadtest (one per example workload in
// examples/), rather than shares chosen here. See README.md, "serve-open
// traffic".

const (
	// serveNominalRPS is the rate every serve-open end-to-end metric but
	// wall_s and setup_s, and the serve.* counters, are measured at.
	serveNominalRPS = 100.0
	// serveModelRounds sets the length of the template stream the traffic
	// is read from: loadtest's default mix of 512 requests, 64 rounds of
	// its eight families, plus the cross-layer family's 64.
	serveModelRounds = 64
	// Twins of never-seen keys, sent 0.5 ms after them while the first is
	// still in flight, exercise request dedup. The template model runs
	// closed loop and says nothing about in-flight repeats, so this share
	// is the benchmark's own choice: enough dedup answers for a median.
	serveTwinPerFresh = 0.15
	serveTwinDelay    = 500 * time.Microsecond
	// serveBatchDeals is how many times the cold batch behind wall_s deals
	// every catalogue shape with a never-seen seed: enough cold requests
	// to take a few seconds, so wall_s reads steadily.
	serveBatchDeals = 60
)

// crossLayerTemplate is a ninth request family beside loadtest's eight:
// the cross_layer field is newer than the template model, and without it
// no served request would reach cross-layer scoring. It is the quickstart
// shape (S1/S2 at 150 km, 256 trials) on the two networks with located
// attach sites.
func crossLayerTemplate(d int) serve.Request {
	nets := []string{"submarine", "intertubes"}
	models := []string{"s1", "s2"}
	return serve.Request{Network: nets[d%2], Model: models[(d/2)%2], SpacingKm: 150, Trials: 256, Seed: 8, CrossLayer: true}
}

// templateStream is the template model's request stream: loadtest.Mix's
// eight families interleaved round-robin, each walking its own small grid,
// with the cross-layer family taking a ninth slot in every round.
func templateStream(rounds int) []serve.Request {
	mix := loadtest.Mix(loadtest.Options{Requests: 8 * rounds})
	out := make([]serve.Request, 0, 9*rounds)
	for k := 0; k < rounds; k++ {
		out = append(out, mix[8*k:8*k+8]...)
		out = append(out, crossLayerTemplate(k))
	}
	return out
}

// arrival is one scheduled request.
type arrival struct {
	Due  time.Duration
	Req  serve.Request
	Kind string // "hit", "fresh" or "twin"
}

// catalogue is the template model read as traffic. Its keys are the
// stream's distinct requests, warmed before timing; a repeat picks a
// uniform position of the stream, so each key is as popular as the model
// makes it. FreshShare is the stream's share of first sightings, the rate
// at which the model sends a key the cache has not seen.
type catalogue struct {
	stream     []serve.Request
	keys       []serve.Request
	freshShare float64
}

func newCatalogue() *catalogue {
	c := &catalogue{stream: templateStream(serveModelRounds)}
	seen := map[serve.Request]bool{}
	for _, r := range c.stream {
		if !seen[r] {
			seen[r] = true
			c.keys = append(c.keys, r)
		}
	}
	c.freshShare = float64(len(c.keys)) / float64(len(c.stream))
	return c
}

func (c *catalogue) pick(rng *xrand.Source) serve.Request {
	return c.stream[rng.Intn(len(c.stream))]
}

// dealer deals never-seen keys: the catalogue's shapes, in successive
// seeded shuffles, each with a trial seed no catalogue key has. Dealing
// the whole shape set in turn gives every run the mix of first sightings
// the model has (one per distinct key), not just that mix on average.
type dealer struct {
	cat   *catalogue
	rng   *xrand.Source
	order []int
}

func (d *dealer) deal() serve.Request {
	if len(d.order) == 0 {
		d.order = d.rng.Perm(len(d.cat.keys))
	}
	r := d.cat.keys[d.order[0]]
	d.order = d.order[1:]
	// Template seeds are small; never-seen keys set the top bit.
	r.Seed = d.rng.Uint64() | 1<<63
	return r
}

// openSchedule draws n arrivals of a Poisson process at rate (1/s): each
// gap is exponential; each arrival is a never-seen key with the
// catalogue's fresh share, else a repeat of a catalogue key; a never-seen
// key is followed by a twin with probability serveTwinPerFresh.
func openSchedule(rng *xrand.Source, cat *catalogue, rate float64, n int) []arrival {
	out := make([]arrival, 0, n)
	d := &dealer{cat: cat, rng: rng.Split(1)}
	var t time.Duration
	for len(out) < n {
		t += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if !rng.Bool(cat.freshShare) {
			out = append(out, arrival{Due: t, Req: cat.pick(rng), Kind: "hit"})
			continue
		}
		r := d.deal()
		out = append(out, arrival{Due: t, Req: r, Kind: "fresh"})
		if rng.Bool(serveTwinPerFresh) && len(out) < n {
			out = append(out, arrival{Due: t + serveTwinDelay, Req: r, Kind: "twin"})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Due < out[j].Due })
	return out
}

// served is one request's outcome.
type served struct {
	opTiming
	ConnWait time.Duration
	Resp     *serve.Response
	Err      error
}

// loadGen drives a schedule open loop over at most conns connections.
type loadGen struct {
	d      *daemon
	client *http.Client
	conns  int
	rec    *Recorder
	opBase int // op ids of this phase start here
}

// run sends every arrival at its due time and waits for every answer.
// Each connection is one worker taking due requests in order; a due
// request that finds every worker busy waits in the queue, and that wait
// is part of its latency.
func (g *loadGen) run(ctx context.Context, sched []arrival) []served {
	type due struct {
		i, root, wait int
		launched      time.Duration
	}
	out := make([]served, len(sched))
	// Sized to the number of sends, so the generator never blocks.
	queue := make(chan due, len(sched))
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < g.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for q := range queue {
				got := time.Since(start)
				g.rec.End(q.wait)
				op := g.opBase + q.i
				sp := g.rec.Begin("gicnetd.http", q.root, op)
				resp, err := g.d.post(ctx, g.client, sched[q.i].Req)
				g.rec.End(sp)
				g.rec.End(q.root)
				out[q.i] = served{
					opTiming: opTiming{Due: sched[q.i].Due, Sent: q.launched, Done: time.Since(start), Failed: err != nil},
					ConnWait: got - q.launched, Resp: resp, Err: err,
				}
			}
		}()
	}
	for i, a := range sched {
		if d := a.Due - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		op := g.opBase + i
		root := g.rec.Begin("bench.request", -1, op)
		wait := g.rec.Begin("bench.conn_wait", root, op)
		queue <- due{i: i, root: root, wait: wait, launched: time.Since(start)}
	}
	close(queue)
	wg.Wait()
	return out
}

func runServe(cfg runConfig) (*outcome, error) {
	if cfg.Gicnetd == "" {
		return nil, fmt.Errorf("serve-open needs -gicnetd")
	}
	ctx := context.Background()
	var rec *Recorder
	if cfg.Trace {
		rec = newRecorder()
	}
	o := &outcome{PerLayer: map[string]float64{}, Diag: map[string]any{}}

	// Set-up: start the daemon setupRepeats times, exec to healthy; keep
	// the last one.
	var d *daemon
	defer func() { _ = d.stop() }()
	for i := 0; i < setupRepeats; i++ {
		if err := d.stop(); err != nil {
			return nil, fmt.Errorf("stop gicnetd: %w", err)
		}
		sp := rec.Begin("setup", -1, -1)
		var took time.Duration
		var err error
		d, took, err = startDaemon(cfg.Gicnetd)
		rec.End(sp)
		if err != nil {
			return nil, err
		}
		o.SetupS = append(o.SetupS, took.Seconds())
	}

	// The offline answer check needs the daemon's world; a traced run
	// builds it first and times its generators on the way.
	var w *dataset.World
	if cfg.Trace {
		var err error
		if w, err = generateWorld(nil, -1); err != nil {
			return nil, err
		}
		if err := datasetProbe(rec, w, o.PerLayer, o); err != nil {
			return nil, err
		}
	}

	conns := cfg.Nproc
	client := &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true},
		Timeout:   30 * time.Second,
	}
	defer client.CloseIdleConnections()
	g := &loadGen{d: d, client: client, conns: conns}

	rng := xrand.New(cfg.Seed).Split(0x73657276652d6f70) // "serve-op"
	cat := newCatalogue()

	// Warm the catalogue before timing: every key computed once, all due
	// at once.
	warm := make([]arrival, len(cat.keys))
	for i, r := range cat.keys {
		warm[i] = arrival{Req: r, Kind: "warm"}
	}
	t := time.Now()
	all := g.run(ctx, warm)
	o.Diag["warmup_s"] = time.Since(t).Seconds()
	sent := append([]arrival(nil), warm...)

	// wall_s: the warm daemon answers a fixed batch of cold requests,
	// every catalogue shape serveBatchDeals times with a never-seen seed,
	// all due at once: closed loop over the connections, so its wall time
	// is the daemon's throughput on computed answers.
	wd := &dealer{cat: cat, rng: rng.Split(5)}
	batch := make([]arrival, serveBatchDeals*len(cat.keys))
	for i := range batch {
		batch[i] = arrival{Req: wd.deal(), Kind: "batch"}
	}
	runtime.GC()
	t = time.Now()
	all = append(all, g.run(ctx, batch)...)
	o.WallS = time.Since(t).Seconds()
	o.Diag["batch_n"] = len(batch)
	sent = append(sent, batch...)
	for _, s := range all {
		if s.Err != nil {
			return nil, fmt.Errorf("warm-up or batch request failed: %w", s.Err)
		}
	}

	nominalN := int(math.Round(serveNominalRPS * cfg.Seconds))
	nominal := openSchedule(rng.Split(2), cat, serveNominalRPS, nominalN)

	// A traced run first drives an untraced schedule of the same rate and
	// a quarter of the length, from another stream: the reference for the
	// tracing overhead.
	var refP50 float64
	if cfg.Trace {
		ref := openSchedule(rng.Split(3), cat, serveNominalRPS, nominalN/4)
		runtime.GC()
		res := g.run(ctx, ref)
		refP50 = latencies(res).P50
		all = append(all, res...)
		sent = append(sent, ref...)
	}

	st0, err := d.stats(ctx, client)
	if err != nil {
		return nil, fmt.Errorf("stats: %w", err)
	}
	cpu0, cpuErr := d.cpuTicks()
	runtime.GC()
	before := readRuntime()
	cpuA := readCPU()
	g.rec, g.opBase = rec, len(sent)
	stopRSS := make(chan struct{})
	rssc := make(chan []float64, 1)
	go func() { rssc <- sampleRSS(d, stopRSS) }()
	res := g.run(ctx, nominal)
	close(stopRSS)
	rss := <-rssc
	g.rec = nil
	cpuDiag(o.Diag, cpuA, readCPU())
	after := readRuntime()
	cpu1, cpuErr2 := d.cpuTicks()
	st1, err := d.stats(ctx, client)
	if err != nil {
		return nil, fmt.Errorf("stats: %w", err)
	}
	if len(rss) == 0 {
		return nil, fmt.Errorf("no daemon RSS samples")
	}
	o.MemMB = median(rss)
	o.Diag["rss_samples"] = len(rss)
	all = append(all, res...)
	sent = append(sent, nominal...)

	lat := make([]float64, len(res))
	late := make([]float64, len(res))
	byProv := map[string][]float64{}
	var connWait []float64
	for i, s := range res {
		lat[i] = s.latency()
		late[i] = s.lateness()
		connWait = append(connWait, ms(s.ConnWait))
		if s.Resp != nil {
			byProv[s.Resp.Provenance] = append(byProv[s.Resp.Provenance], lat[i])
		}
	}
	if cpuErr == nil && cpuErr2 == nil {
		o.Diag["daemon_cpu_s"] = (time.Duration(cpu1-cpu0) * clockTick).Seconds()
	}
	o.Lat = summarize(lat)
	o.Cold = summarize(byProv[serve.ProvComputed])
	o.Diag["half_drift"] = halfDrift(lat)
	lateSum := summarize(late)
	o.Diag["gen_late_ms"] = lateSum.Tail
	o.Diag["gen_late_pct"] = lateSum.TailPct
	o.Diag["gen_late_p50_ms"] = lateSum.P50
	o.Diag["nominal_rps"] = serveNominalRPS
	o.Diag["nominal_n"] = len(res)
	o.Diag["provenance_n"] = map[string]int{
		"cache": len(byProv[serve.ProvCache]), "computed": len(byProv[serve.ProvComputed]), "dedup": len(byProv[serve.ProvDedup]),
	}

	pl := o.PerLayer
	if cfg.Trace {
		sd := statsDelta(st0, st1)
		for k, v := range sd {
			pl[k] = v
		}
		pl["serve.cache_p50_ms"] = medianOr0(byProv[serve.ProvCache])
		pl["serve.computed_p50_ms"] = medianOr0(byProv[serve.ProvComputed])
		pl["serve.dedup_p50_ms"] = medianOr0(byProv[serve.ProvDedup])
		pl["bench.conn_wait_ms"] = summarize(connWait).Tail
		if cpuErr == nil && cpuErr2 == nil {
			pl["gicnetd.cpu_ms_per_req"] = ms(time.Duration(cpu1-cpu0)*clockTick) / float64(len(res))
		}
		runtimeLayer(pl, before, after, len(res))
		o.Overhead = o.Lat.P50 / refP50
		o.OverBase = fmt.Sprintf("nominal-rate p50: traced %.3fms (n=%d) / untraced %.3fms (n=%d, another stream)",
			o.Lat.P50, len(res), refP50, nominalN/4)
	}

	if cfg.Trace {
		if err := httpOverhead(ctx, g, cat, pl); err != nil {
			return nil, err
		}
	}
	if err := d.stop(); err != nil {
		return nil, fmt.Errorf("gicnetd exit: %w", err)
	}
	o.Attempted = len(all)
	if w == nil {
		var err error
		if w, err = generateWorld(nil, -1); err != nil {
			return nil, err
		}
	}
	if err := checkServed(ctx, cfg, w, sent, all, o); err != nil {
		return nil, err
	}
	o.Spans = rec.Spans()
	return o, nil
}

// sampleRSS reads the daemon's resident set every 50 ms until stop closes.
// Its median over the phase smooths the GC sawtooth a single reading
// would land anywhere on.
func sampleRSS(d *daemon, stop <-chan struct{}) []float64 {
	var out []float64
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	for {
		if mb, err := d.rssMB(); err == nil {
			out = append(out, mb)
		}
		select {
		case <-stop:
			return out
		case <-tick.C:
		}
	}
}

func latencies(res []served) latencySummary {
	lat := make([]float64, len(res))
	for i, s := range res {
		lat[i] = s.latency()
	}
	return summarize(lat)
}

func medianOr0(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

// statsDelta turns two /stats snapshots into the serve.* counters over the
// interval between them, summed over shards.
func statsDelta(a, b serve.Stats) map[string]float64 {
	var req, rh, rm, ph, pm, dd, batches, batched, errs float64
	for i := range b.Shards {
		x, y := b.Shards[i], serve.ShardStats{}
		if i < len(a.Shards) {
			y = a.Shards[i]
		}
		req += float64(x.Requests - y.Requests)
		rh += float64(x.Results.Hits - y.Results.Hits)
		rm += float64(x.Results.Misses - y.Results.Misses)
		ph += float64(x.Plans.Hits - y.Plans.Hits)
		pm += float64(x.Plans.Misses - y.Plans.Misses)
		dd += float64(x.Dedup - y.Dedup)
		batches += float64(x.Batches - y.Batches)
		batched += float64(x.BatchedRequests - y.BatchedRequests)
		errs += float64(x.Errors - y.Errors)
	}
	ratio := func(n, d float64) float64 {
		if d == 0 {
			return 0
		}
		return n / d
	}
	return map[string]float64{
		"serve.result_hit_ratio": ratio(rh, rh+rm),
		"serve.plan_hit_ratio":   ratio(ph, ph+pm),
		"serve.dedup_share":      ratio(dd, req),
		"serve.batch_size_mean":  ratio(batched, batches),
		"serve.errors":           errs,
	}
}

// httpOverhead measures what HTTP and JSON add to a cache hit: the median
// of sequential catalogue hits over loopback minus the median of the same
// keys through serve.Server.Do in process, against the same world.
func httpOverhead(ctx context.Context, g *loadGen, cat *catalogue, pl map[string]float64) error {
	var httpMs []float64
	for _, r := range cat.keys {
		t := time.Now()
		resp, err := g.d.post(ctx, g.client, r)
		if err != nil {
			return fmt.Errorf("http overhead probe: %w", err)
		}
		if resp.Provenance == serve.ProvCache {
			httpMs = append(httpMs, ms(time.Since(t)))
		}
	}
	srv, err := serve.New(serve.Config{WorldSeeds: []uint64{dataset.DefaultSeed}})
	if err != nil {
		return err
	}
	defer srv.Close()
	for _, r := range cat.keys {
		if _, err := srv.Do(ctx, r); err != nil {
			return fmt.Errorf("in-process warm-up: %w", err)
		}
	}
	var inproc []float64
	for _, r := range cat.keys {
		t := time.Now()
		resp, err := srv.Do(ctx, r)
		if err != nil {
			return fmt.Errorf("in-process probe: %w", err)
		}
		if resp.Provenance == serve.ProvCache {
			inproc = append(inproc, ms(time.Since(t)))
		}
	}
	pl["gicnetd.http_overhead_ms"] = medianOr0(httpMs) - medianOr0(inproc)
	return nil
}

// checkServed checks every answer. Every response must echo the request
// it answers, every response to one key must carry one fingerprint, and
// that fingerprint must equal offline sim.Run's on the echoed request, for
// every distinct key. Every request answering a key that fails counts as
// failed.
func checkServed(ctx context.Context, cfg runConfig, w *dataset.World, sent []arrival, got []served, o *outcome) error {
	type keyState struct {
		req serve.Request
		fp  uint64
		idx []int
		bad bool
	}
	keys := map[serve.Request]*keyState{}
	var order []*keyState
	for i, s := range got {
		if s.Err != nil {
			o.Failed++
			o.problem("request %d: %v", i, s.Err)
			continue
		}
		want := sent[i].Req
		echo := s.Resp.Request
		if want.Model != "uniform" {
			want.P = 0
		}
		echo.WorldSeed = 0
		if echo != want {
			o.Failed++
			o.problem("request %d: response echoes %+v, sent %+v", i, echo, want)
			continue
		}
		k := keys[want]
		if k == nil {
			k = &keyState{req: s.Resp.Request, fp: s.Resp.Fingerprint}
			keys[want] = k
			order = append(order, k)
		}
		k.idx = append(k.idx, i)
		if s.Resp.Fingerprint != k.fp {
			k.bad = true
			o.problem("key %+v answered with fingerprints %016x and %016x", want, k.fp, s.Resp.Fingerprint)
		}
	}
	t := time.Now()
	idx := map[string]*crosslayer.Index{}
	for _, k := range order {
		r := k.req
		net := networkOf(w, r.Network)
		simCfg := sim.Config{Model: modelFor(r.Model, r.P), SpacingKm: r.SpacingKm, Trials: r.Trials,
			Seed: r.Seed, Workers: cfg.Nproc, Estimator: newEstimator(r.Estimator)}
		if r.CrossLayer {
			if idx[r.Network] == nil {
				x, err := crosslayer.Compile(net, w.Routers, routing.DefaultDemands())
				if err != nil {
					return err
				}
				idx[r.Network] = x
			}
			simCfg.CrossLayer = idx[r.Network]
		}
		res, err := sim.Run(ctx, net, simCfg)
		if err != nil {
			return fmt.Errorf("offline replay of %+v: %w", r, err)
		}
		if res.Fingerprint() != k.fp {
			k.bad = true
			o.problem("key %+v served %016x, offline sim.Run %016x", r, k.fp, res.Fingerprint())
		}
	}
	for _, k := range order {
		if k.bad {
			o.Failed += len(k.idx)
		}
	}
	o.Diag["checked_keys"] = len(order)
	o.Diag["check_s"] = time.Since(t).Seconds()
	return nil
}
