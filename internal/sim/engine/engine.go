package engine

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// ShardSize is the number of consecutive node indices per shard. It is a
// constant of the determinism contract: changing it reshuffles every
// per-shard RNG stream and therefore changes simulation results (like
// changing a seed would), so it must never depend on the worker count or
// the hardware.
const ShardSize = 256

// NumShards returns the shard count covering a population of n items on
// the fixed grid (0 for an empty population).
func NumShards(n int) int {
	return (n + ShardSize - 1) / ShardSize
}

// ShardSpan returns the half-open index range [lo, hi) of shard s over a
// population of n items.
func ShardSpan(n, s int) (lo, hi int) {
	lo = s * ShardSize
	hi = lo + ShardSize
	if hi > n {
		hi = n
	}
	return lo, hi
}

// ShardOf returns the shard index owning item i.
func ShardOf(i int) int { return i / ShardSize }

// Pool executes shard-indexed work across a bounded set of goroutines.
// A Pool with one worker runs every shard inline on the caller's
// goroutine, in shard order. Pools are reusable and safe for
// sequential reuse; a single Run call distributes shards to workers
// dynamically (work stealing), which is safe because the determinism
// contract makes shard results independent of execution order.
type Pool struct {
	workers int
}

// NewPool returns a pool with the given concurrency. workers <= 0 selects
// GOMAXPROCS; workers == 1 starts no goroutines.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers}
}

// Workers returns the pool's concurrency (>= 1).
func (p *Pool) Workers() int { return p.workers }

// Run executes fn(worker, shard) for every shard in [0, shards). worker
// identifies the executing slot in [0, Workers()) so callers can use
// per-worker scratch without locks. Run returns when every shard has
// completed. fn must not panic across shards it does not own; a panic in
// any shard propagates to the caller.
func (p *Pool) Run(shards int, fn func(worker, shard int)) {
	if shards <= 0 {
		return
	}
	workers := p.workers
	if workers > shards {
		workers = shards
	}
	if workers <= 1 {
		for s := 0; s < shards; s++ {
			fn(0, s)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	panics := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					// The panic crosses a goroutine boundary; capture the
					// worker's stack here or it is lost to the rethrow.
					panics <- fmt.Sprintf("%v\n%s", r, debug.Stack())
				}
			}()
			for {
				s := int(next.Add(1)) - 1
				if s >= shards {
					return
				}
				fn(worker, s)
			}
		}(w)
	}
	wg.Wait()
	select {
	case r := <-panics:
		panic(fmt.Sprintf("engine: worker panic: %s", r))
	default:
	}
}

// SeedFor derives the RNG seed of one (phase, tick, round, cell) stream
// from the run seed. A cell is whatever one stream serves: a shard, or a
// node id for the plan phase's per-node streams. Streams for distinct
// cells are independent for all practical purposes (splitmix64
// finalization between injections), and the derivation never involves
// the worker count, upholding the determinism contract.
func SeedFor(seed int64, phase, tick, round, cell int) int64 {
	h := splitmix64(uint64(seed) ^ 0x9e3779b97f4a7c15)
	h = splitmix64(h ^ uint64(phase))
	h = splitmix64(h ^ uint64(tick))
	h = splitmix64(h ^ uint64(round))
	h = splitmix64(h ^ uint64(cell))
	return int64(h)
}

// Source is the SplitMix64 generator as a rand.Source64: one word of
// state, so Seed is a single store and a phase can reseed its worker's
// generator for every stream it opens, down to one per node, for free.
// The zero value is a valid source seeded with 0.
type Source struct{ state uint64 }

// Seed restarts the stream at seed.
func (s *Source) Seed(seed int64) { s.state = uint64(seed) }

// Uint64 returns the next value of the stream.
func (s *Source) Uint64() uint64 {
	v := splitmix64(s.state)
	s.state += 0x9e3779b97f4a7c15
	return v
}

// Int63 returns the next value of the stream with the top bit cleared.
func (s *Source) Int63() int64 { return int64(s.Uint64() >> 1) }

// splitmix64 is the finalizer of the SplitMix64 generator — a cheap,
// well-mixed 64-bit permutation.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
