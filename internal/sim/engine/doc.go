// Package engine is the execution layer of the simulator: a
// deterministic phase pipeline and a worker pool that shards per-node
// work. This comment is the normative statement of the determinism
// contract every caller relies on (docs/ARCHITECTURE.md restates it
// with context):
//
//  1. Work is decomposed into shards on a fixed grid (ShardSize nodes
//     per shard) that depends only on the population size — never on
//     the worker count. Node i always lands in shard i/ShardSize.
//  2. Any randomness inside a shard comes from a dedicated RNG stream
//     derived from (seed, phase, tick, round, cell) via SeedFor, where
//     the cell is the shard or a node of it, and drawn from a Source
//     restarted on that seed. So a shard draws the same values no
//     matter which worker executes it or in which order shards
//     complete.
//  3. Shard outputs are buffered per shard and reduced in ascending
//     shard order. The reduce may itself run sharded — each destination
//     shard gathering from every source shard's buffer, walking source
//     shards in ascending order — provided the outcome is
//     element-for-element identical to one in-order walk over the
//     buffers.
//
// Together these rules make a run a pure function of its configuration:
// the same seed produces a bit-identical result at any worker count.
// Workers only decide how many shards execute concurrently; one worker
// runs the same sharded code inline on the caller's goroutine.
package engine
