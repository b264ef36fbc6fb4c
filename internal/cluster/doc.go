// Package cluster is the distributed control plane of the live
// runtime: it lets one scenario span many OS processes. Each process
// has one UDP socket, shared by its shard's peers and its control link.
// Peers bootstrap from a starter node, learn every shard's socket
// address from the sealed welcome and start payloads, and receive
// scenario events as resolved runtime.Directives over an authenticated
// control transport — with retry and acknowledgement, because the
// control frames cross the same lossy, partitionable network the data
// plane does.
//
// Topology: the starter process runs the Coordinator (which embeds
// shard 0 of the peer population) plus one Agent loop per joining
// process (`cmd/live -join`). Every process compiles the identical
// scenario (the text travels in the welcome), so graph, profiles and
// start ticks agree by construction; everything nondeterministic —
// successor picks, churn draws, join wiring, partition seeds — is
// resolved once at the coordinator and shipped explicitly. Routing
// needs nothing more: a node lives on the shard Runner.OwnerOf names
// (id mod shards, or a failover reassignment every process applies),
// so its address is that shard's entry in the shard table.
package cluster
