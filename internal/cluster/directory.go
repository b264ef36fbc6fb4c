// Package cluster is the distributed control plane of the live
// runtime: it lets one scenario span many OS processes. Peers bootstrap
// from a starter node, learn the address directory via anti-entropy
// gossip piggybacked on the existing map exchange, and receive scenario
// events as resolved runtime.Directives over an authenticated control
// transport — with retry and acknowledgement, because the control
// frames cross the same lossy, partitionable network the data plane
// does.
//
// Topology: the starter process runs the Coordinator (which embeds
// shard 0 of the peer population) plus one Agent loop per joining
// process (`cmd/live -join`). Every process compiles the identical
// scenario (the text travels in the welcome), so graph, profiles and
// start ticks agree by construction; everything nondeterministic —
// successor picks, churn draws, join wiring, partition seeds — is
// resolved once at the coordinator and shipped explicitly.
package cluster

import (
	"slices"
	"sync"

	"gossipstream/internal/overlay"
	"gossipstream/internal/runtime"
)

// CtrlIDBase offsets agent control endpoints in the shared address
// directory: the control endpoint of shard k is directory entry
// CtrlIDBase+k. Far outside any scenario's node id range, so peer and
// agent addresses gossip through one epidemic.
const CtrlIDBase overlay.NodeID = 1 << 20

// Directory is the gossiped address book: node id → newest known
// socket address, versioned per id so rebinds win over stale gossip.
// It implements runtime.AddrBook, plugging into the UDP transport's
// resolve/publish/piggyback seam, and additionally hands out rotating
// delta batches for the agent-to-agent anti-entropy rounds.
type Directory struct {
	mu       sync.Mutex
	entries  map[overlay.NodeID]runtime.DirEntry
	order    []overlay.NodeID // insertion order, the rotation ring
	piggyPos int
	deltaPos int
}

// NewDirectory returns an empty directory.
func NewDirectory() *Directory {
	return &Directory{entries: make(map[overlay.NodeID]runtime.DirEntry)}
}

// Publish announces a locally bound socket: the entry's version bumps
// past anything previously known for the id, so the new binding
// outruns stale gossip.
func (d *Directory) Publish(id overlay.NodeID, addr string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	old, ok := d.entries[id]
	ver := uint32(1)
	if ok {
		ver = old.Ver + 1
	}
	d.put(runtime.DirEntry{ID: id, Ver: ver, Addr: addr}, ok)
}

// put stores an entry, extending the rotation ring for new ids. Caller
// holds the lock.
func (d *Directory) put(e runtime.DirEntry, known bool) {
	d.entries[e.ID] = e
	if !known {
		d.order = append(d.order, e.ID)
	}
}

// Resolve answers the newest known address for a node.
func (d *Directory) Resolve(id overlay.NodeID) (string, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	e, ok := d.entries[id]
	return e.Addr, ok
}

// Len is the number of known bindings.
func (d *Directory) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.entries)
}

// MergeWire folds received entries in, newest version per id winning.
func (d *Directory) MergeWire(entries []runtime.DirEntry) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, e := range entries {
		old, ok := d.entries[e.ID]
		if !ok || e.Ver > old.Ver {
			d.put(e, ok)
		}
	}
}

// Piggyback appends up to max entries to dst for a map-frame piggyback,
// advancing a rotation cursor so successive advertisements spread
// different slices of the directory.
func (d *Directory) Piggyback(dst []runtime.DirEntry, max int) []runtime.DirEntry {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.rotate(dst, &d.piggyPos, max)
}

// DeltaBatch returns up to max entries for an anti-entropy push round,
// on its own rotation cursor.
func (d *Directory) DeltaBatch(max int) []runtime.DirEntry {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.rotate(nil, &d.deltaPos, max)
}

// rotate appends max live entries starting at *pos on the ring to dst.
// Caller holds the lock.
func (d *Directory) rotate(dst []runtime.DirEntry, pos *int, max int) []runtime.DirEntry {
	if len(d.order) == 0 || max <= 0 {
		return dst
	}
	if max > len(d.order) {
		max = len(d.order)
	}
	dst = slices.Grow(dst, max)
	for want := len(dst) + max; len(dst) < want; {
		if *pos >= len(d.order) {
			*pos = 0
		}
		if e, ok := d.entries[d.order[*pos]]; ok {
			dst = append(dst, e)
		}
		*pos++
	}
	return dst
}

// Snapshot copies up to max entries (the welcome's directory seed).
func (d *Directory) Snapshot(max int) []runtime.DirEntry {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]runtime.DirEntry, 0, min(max, len(d.order)))
	for _, id := range d.order {
		if len(out) >= max {
			break
		}
		if e, ok := d.entries[id]; ok {
			out = append(out, e)
		}
	}
	return out
}

var _ runtime.AddrBook = (*Directory)(nil)
