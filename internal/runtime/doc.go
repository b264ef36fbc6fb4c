// Package runtime executes gossipstream scenarios as a live system:
// every node is a goroutine-backed peer exchanging real frames over a
// pluggable Transport, paced by a wall-clock scheduler in place of the
// simulator's tick loop. It is the second execution backend of the
// repository — same protocol, same scenarios, same metrics, different
// clock.
//
// # Architecture
//
//	scenario.Scenario ──FromScenario──▶ Runner
//	                                      │ control plane (channels)
//	                      ┌───────────────┼───────────────┐
//	                   peer 0          peer 1   ...    peer N-1     (goroutines)
//	                      └───────┬───────┴───────┬───────┘
//	                          Transport (Frame = netmodel.Message + map/request/deny)
//	                       ChanTransport         UDPTransport
//	                       (in-process)          (one loopback socket)
//
// The peers run the exact protocol core the simulator runs: request
// planning is the same core.Algorithm, playback and session discovery
// are the same sim.Playback state machine, and the capacity substrate
// uses the same bandwidth.Budget arithmetic. What changes is the
// substrate of truth: neighbor knowledge comes from decoded buffer-map
// frames instead of same-tick shared memory, grants arrive as data
// frames whenever the transport delivers them, and a supplier that
// cannot serve answers with a deny — the requester's bounded retry at
// an alternate supplier replaces the simulator's retry rounds.
//
// # The transit seam
//
// Data frames carry the netmodel.Message shape, and the shaped
// transports consult the same netmodel LinkPolicy (delay, loss,
// partition) the simulator's transit phase drains from its heaps —
// scenario events mutate one Model and both backends obey it. See
// internal/netmodel/transport.go and docs/RUNTIME.md.
//
// # Determinism
//
// None, at the bit level: goroutine scheduling and the wall clock
// replace the engine's seeded phase pipeline. Structure stays seeded
// (topology, profiles, stagger, successor picks), so repeated runs are
// statistically alike, and the parity tests in this package pin live
// results against the simulator within stated tolerances. Scenario
// timing in results is reported in scenario seconds (periods × τ)
// regardless of Options.TimeScale.
package runtime
