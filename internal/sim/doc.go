// Package sim is the gossip-based P2P streaming simulator the paper's
// evaluation (Section 5) runs on: a deterministic, time-stepped model of
// pull-based mesh streaming with heterogeneous bandwidth, FIFO buffers,
// periodic buffer-map exchange, supplier-side contention, playback state
// machines, and scripted world events (source switches and crashes,
// churn bursts, flash crowds, bandwidth shifts — see Script).
//
// One tick runs the phase pipeline (events → arrivals → generate →
// refill → plan/serve rounds → deliver-or-transit → playback → churn →
// record); Config.Net swaps the instant deliver phase for the netmodel
// transport's sub-tick transit. A run is a pure function of its Config
// (including seeds): re-running reproduces every transfer and metric
// bit-for-bit at any Config.Workers setting, per the shard/merge
// determinism contract of internal/sim/engine. The full architecture —
// pipeline, determinism rule, extension recipes — is documented in
// docs/ARCHITECTURE.md.
//
// The protocol runs at the paper's one parameter set (Section 5.1): the
// constants Tau, Q, BufferCap, PerTick and ServeRounds beside
// bandwidth.PlayRate and bandwidth.SourceProfile. A Config sets only
// what a scenario varies: topology, seeds, Qs, the capacity substrate,
// the script, churn and the network model.
//
// The live runtime (internal/runtime) drives five pieces of this
// package instead of keeping its own: Planner and Server (peercore.go,
// the per-node planning and serving steps), Ledger (ledger.go, a
// requester's record of what it asked for), Window (window.go, the
// measurement window) and Resolver (resolve.go, which resolves scenario
// events and churn into directives). So one scenario runs one protocol,
// is measured one way and resolves to one experiment on both backends.
package sim
