// Package netmodel is the simulator's message-level transport model: a
// deterministic sub-tick delay model derived from trace ping times, a
// per-message loss probability, and network partitions. Without it the
// engine delivers every granted segment instantly and losslessly at the
// end of its tick; with it, a granted segment becomes a Message carrying
// a continuous arrival timestamp in milliseconds (propagation derived
// from the endpoint ping times, plus caller-supplied jitter), may be
// lost, and is dropped at the boundary of an active partition. The
// transit phase drains every message whose timestamp falls inside the
// current scheduling period, in timestamp order, so two grants issued
// the same tick arrive in their true sub-tick order and delay metrics
// resolve below one period.
//
// The Model is deliberately RNG-free: jitter values and loss draws are
// made by the caller from dedicated engine.SeedFor streams, so the model
// itself is a pure state machine and the engine's shard/merge
// determinism contract (docs/ARCHITECTURE.md) extends to the in-flight
// message queue. The Message shape is the intended seam for a future
// real-socket runtime: a transport that delivers the same (From, To,
// Seg, ArrivalMS) tuples over real links slots into the same transit
// phase.
package netmodel
