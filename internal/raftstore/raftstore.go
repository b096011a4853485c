// Package raftstore is the per-node entry point to Raft group hosting: a
// thin facade over the MultiRaft manager in internal/multiraft, kept so
// that consumers (meta nodes, data nodes, the resource manager) configure
// group hosting in one place and receive per-group handles.
//
// The mechanics live in the manager (paper Section 2.1.2, the MultiRaft
// arrangement CFS adopts from CockroachDB): the shared clock, heartbeat
// coalescing per node pair, and one pinned stream per peer on which every
// other message leaves at once. There is nothing to tune but the Raft
// defaults. The effect is measured by BenchmarkMultiRaft_HeartbeatScaling
// and BenchmarkAblation_RaftSets.
package raftstore

import (
	"cfs/internal/multiraft"
	"cfs/internal/raft"
	"cfs/internal/transport"
)

// MessageBatch is the wire frame exchanged between stores; it is the
// manager's Batch (multiplexed messages plus coalesced heartbeats).
type MessageBatch = multiraft.Batch

// Config tunes a Store. The zero value is the shipped configuration.
type Config struct {
	// RaftDefaults are applied to every group created through the store
	// (ID, Peers, GroupID, Sender and SM are always overridden). Its
	// TickInterval becomes the node's shared MultiRaft clock period.
	RaftDefaults raft.Config
}

// Store hands out Raft groups hosted by one node. All mechanics live in
// the wrapped MultiRaft manager.
type Store struct {
	mgr *multiraft.Manager
}

// New creates a store for the node at addr. The owning node must route
// incoming proto.OpRaftMessage bodies to HandleBatch.
func New(addr string, nw transport.Network, cfg Config) *Store {
	return &Store{mgr: multiraft.New(addr, nw, multiraft.Config{RaftDefaults: cfg.RaftDefaults})}
}

// Addr returns the node address the store sends from.
func (s *Store) Addr() string { return s.mgr.Addr() }

// CreateGroup starts a Raft group with this node as member ID Addr().
func (s *Store) CreateGroup(groupID uint64, peers []string, sm raft.StateMachine) (*multiraft.Group, error) {
	return s.mgr.CreateGroup(groupID, peers, sm)
}

// Group returns the handle for groupID, or nil.
func (s *Store) Group(groupID uint64) *multiraft.Group { return s.mgr.Group(groupID) }

// RemoveGroup stops and forgets a group.
func (s *Store) RemoveGroup(groupID uint64) { s.mgr.RemoveGroup(groupID) }

// Reconcile hosts groupID if this node does not yet (attach receives the
// new group) and converges its Raft membership onto desired(), in the
// background (multiraft.Manager.Reconcile): how the control plane's view of
// a partition's replica set - the master's Members + ReplicaEpoch - is
// pushed into the consensus layer so the two views stay one.
func (s *Store) Reconcile(groupID uint64, sm raft.StateMachine, desired func() []string, attach func(*multiraft.Group)) {
	s.mgr.Reconcile(groupID, sm, desired, attach)
}

// GroupCount returns the number of hosted groups.
func (s *Store) GroupCount() int { return s.mgr.GroupCount() }

// Close stops the manager and every group.
func (s *Store) Close() { s.mgr.Close() }

// HandleBatch routes an incoming batch to its groups. Wire it to the
// node's transport handler for proto.OpRaftMessage.
func (s *Store) HandleBatch(batch *MessageBatch) { s.mgr.HandleBatch(batch) }

// Handler returns a transport.Handler fragment for OpRaftMessage, usable
// directly by nodes that host nothing else on the address.
func (s *Store) Handler() transport.Handler { return s.mgr.Handler() }
