package engine

import (
	"math/rand"
	"sync/atomic"
	"testing"
)

func TestShardGridCoversPopulation(t *testing.T) {
	for _, n := range []int{0, 1, ShardSize - 1, ShardSize, ShardSize + 1, 10_000} {
		shards := NumShards(n)
		covered := 0
		for s := 0; s < shards; s++ {
			lo, hi := ShardSpan(n, s)
			if lo != s*ShardSize {
				t.Fatalf("n=%d shard %d lo=%d", n, s, lo)
			}
			if hi < lo || hi > n {
				t.Fatalf("n=%d shard %d span [%d,%d)", n, s, lo, hi)
			}
			for i := lo; i < hi; i++ {
				if ShardOf(i) != s {
					t.Fatalf("item %d not owned by shard %d", i, s)
				}
			}
			covered += hi - lo
		}
		if covered != n {
			t.Fatalf("n=%d covered %d", n, covered)
		}
	}
}

func TestPoolRunsEveryShardExactlyOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		const shards = 100
		var counts [shards]atomic.Int64
		NewPool(workers).Run(shards, func(worker, shard int) {
			if worker < 0 || worker >= workers {
				t.Errorf("worker id %d out of range", worker)
			}
			counts[shard].Add(1)
		})
		for s := range counts {
			if got := counts[s].Load(); got != 1 {
				t.Fatalf("workers=%d shard %d ran %d times", workers, s, got)
			}
		}
	}
}

func TestPoolZeroShardsNoop(t *testing.T) {
	ran := false
	NewPool(4).Run(0, func(int, int) { ran = true })
	if ran {
		t.Fatal("fn ran with zero shards")
	}
}

func TestPoolPropagatesPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("panic swallowed")
		}
	}()
	NewPool(4).Run(16, func(_, shard int) {
		if shard == 7 {
			panic("boom")
		}
	})
}

// TestSeedForIndependence is the heart of the determinism contract: the
// derived stream for a cell never varies, and distinct cells get distinct
// streams.
func TestSeedForIndependence(t *testing.T) {
	if SeedFor(1, 2, 3, 4, 5) != SeedFor(1, 2, 3, 4, 5) {
		t.Fatal("SeedFor not a pure function")
	}
	seen := map[int64]bool{}
	for phase := 0; phase < 4; phase++ {
		for tick := 0; tick < 8; tick++ {
			for round := 0; round < 3; round++ {
				for shard := 0; shard < 8; shard++ {
					s := SeedFor(42, phase, tick, round, shard)
					if seen[s] {
						t.Fatalf("seed collision at (%d,%d,%d,%d)", phase, tick, round, shard)
					}
					seen[s] = true
				}
			}
		}
	}
}

// TestSourceIsSplitMix64 pins Source to the reference SplitMix64 outputs
// for seed 0, and pins a reseed of a used generator to restart its
// stream: the phases reuse one generator per worker and reseed it per
// stream.
func TestSourceIsSplitMix64(t *testing.T) {
	want := []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f}
	var src Source
	for i, w := range want {
		if got := src.Uint64(); got != w {
			t.Fatalf("output %d = %#x, want %#x", i, got, w)
		}
	}
	fresh := rand.New(&Source{})
	fresh.Seed(99)
	reused := rand.New(&Source{})
	for i := 0; i < 10; i++ {
		reused.Intn(1000)
	}
	reused.Seed(99)
	for i := 0; i < 100; i++ {
		if a, b := fresh.Intn(613), reused.Intn(613); a != b {
			t.Fatalf("draw %d: a reseeded generator reads %d, a fresh one %d", i, b, a)
		}
	}
}

// TestShardedDrawsWorkerInvariant simulates the usage pattern: every shard
// draws from its own derived stream on its worker's reseeded generator,
// results merge in shard order, and the merged sequence must not depend
// on the worker count.
func TestShardedDrawsWorkerInvariant(t *testing.T) {
	const shards = 37
	draw := func(workers int) []int64 {
		out := make([][]int64, shards)
		rngs := make([]*rand.Rand, workers)
		for w := range rngs {
			rngs[w] = rand.New(&Source{})
		}
		NewPool(workers).Run(shards, func(worker, shard int) {
			rng := rngs[worker]
			rng.Seed(SeedFor(7, 1, 0, 0, shard))
			vals := make([]int64, 16)
			for i := range vals {
				vals[i] = rng.Int63()
			}
			out[shard] = vals
		})
		var merged []int64
		for _, vals := range out {
			merged = append(merged, vals...)
		}
		return merged
	}
	base := draw(1)
	for _, workers := range []int{2, 3, 8} {
		got := draw(workers)
		for i := range base {
			if got[i] != base[i] {
				t.Fatalf("workers=%d diverged at %d", workers, i)
			}
		}
	}
}

func TestPipelineOrderAndTimings(t *testing.T) {
	var order []string
	p := NewPipeline(
		Phase{Name: "a", Run: func() { order = append(order, "a") }},
		Phase{Name: "b", Run: func() { order = append(order, "b") }},
	)
	p.Run()
	p.Run()
	if len(order) != 4 || order[0] != "a" || order[1] != "b" || order[2] != "a" {
		t.Fatalf("phase order %v", order)
	}
	if p.Ticks() != 2 {
		t.Fatalf("ticks %d", p.Ticks())
	}
	timings := p.Timings()
	if len(timings) != 2 || timings[0].Name != "a" || timings[1].Name != "b" {
		t.Fatalf("timings %v", timings)
	}
}
