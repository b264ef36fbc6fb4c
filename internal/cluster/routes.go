package cluster

import (
	"sync/atomic"

	"gossipstream/internal/overlay"
	"gossipstream/internal/runtime"
)

// shardTable is the socket address of every shard's process, by shard
// ("" while unknown). Only sealed control payloads fill it: the
// coordinator records each worker's hello, and a worker installs the
// table its welcome and its start carry. So no datagram from outside the
// run can change where a process sends. The table is copied on write
// (one writer, the process's control loop) and read from the link's
// goroutines and every peer's.
type shardTable struct {
	addrs atomic.Pointer[[]string]
}

// addr answers a shard's socket address.
func (t *shardTable) addr(shard int) (string, bool) {
	addrs := t.snapshot()
	if shard < 0 || shard >= len(addrs) || addrs[shard] == "" {
		return "", false
	}
	return addrs[shard], true
}

// snapshot returns the table as it stands; the caller must not modify it.
func (t *shardTable) snapshot() []string {
	if p := t.addrs.Load(); p != nil {
		return *p
	}
	return nil
}

// store installs a table the coordinator shipped.
func (t *shardTable) store(addrs []string) { t.addrs.Store(&addrs) }

// set records one shard's address.
func (t *shardTable) set(shard int, addr string) {
	old := t.snapshot()
	addrs := make([]string, max(shard+1, len(old)))
	copy(addrs, old)
	addrs[shard] = addr
	t.store(addrs)
}

// peerRoutes is the transport's address book in a cluster: a node's
// address is the address of the shard that owns it.
type peerRoutes struct {
	table *shardTable
	r     *runtime.Runner
}

func (p peerRoutes) Resolve(id overlay.NodeID) (string, bool) {
	return p.table.addr(p.r.OwnerOf(id))
}
