package loadtest_test

import (
	"context"
	"sync"
	"testing"

	"gicnet/internal/dataset"
	"gicnet/internal/serve"
	"gicnet/internal/serve/loadtest"
)

var (
	worldOnce sync.Once
	world     *dataset.World
	worldErr  error
)

func testWorld(t *testing.T) *dataset.World {
	t.Helper()
	worldOnce.Do(func() {
		world, worldErr = dataset.GenerateWorld(dataset.DefaultWorldConfig(), dataset.DefaultSeed)
	})
	if worldErr != nil {
		t.Fatal(worldErr)
	}
	return world
}

// TestMixIsDeterministic pins that the synthetic mix is a pure function
// of its options: the loadtest is replayable and so are its answers.
func TestMixIsDeterministic(t *testing.T) {
	opts := loadtest.Options{Requests: 64}
	a := loadtest.Mix(opts)
	b := loadtest.Mix(opts)
	if len(a) != 64 || len(b) != 64 {
		t.Fatalf("mix lengths %d, %d, want 64", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("mix diverges at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestSmoke is the loadtest-smoke gate: the full tiered server and the
// no-tier baseline both answer the example-workload mix, their
// order-independent mix fingerprints agree (serving optimisations change
// no answer), and the tiered server actually exercises its tiers.
func TestSmoke(t *testing.T) {
	w := testWorld(t)
	opts := loadtest.Options{Requests: 192}

	full, err := serve.New(serve.Config{Worlds: []*dataset.World{w}, Shards: 2, WorkersPerShard: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer full.Close()
	fullRep, err := loadtest.Run(context.Background(), full, opts)
	if err != nil {
		t.Fatal(err)
	}

	base, err := serve.New(serve.Config{Worlds: []*dataset.World{w}, Shards: 2, WorkersPerShard: 2, Baseline: true})
	if err != nil {
		t.Fatal(err)
	}
	defer base.Close()
	baseRep, err := loadtest.Run(context.Background(), base, opts)
	if err != nil {
		t.Fatal(err)
	}

	if fullRep.MixFingerprint != baseRep.MixFingerprint {
		t.Fatalf("tiered mix fingerprint %016x != baseline %016x: serving changed an answer",
			fullRep.MixFingerprint, baseRep.MixFingerprint)
	}
	var hits uint64
	for _, sh := range fullRep.Stats.Shards {
		hits += sh.Results.Hits
	}
	if hits == 0 {
		t.Fatal("tiered run recorded no result-cache hits on a repeating mix")
	}
	if fullRep.ReqPerSec <= 0 || fullRep.P99 <= 0 {
		t.Fatalf("degenerate report: %+v", fullRep)
	}
}
