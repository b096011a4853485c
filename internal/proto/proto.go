// Package proto defines the wire-level types shared by every CFS subsystem:
// inodes and dentries (Section 2.1.1), extent keys (Section 2.2), the
// fixed-size packet used on the data path (Section 2.7.1), and the typed
// request/response messages exchanged between clients, meta nodes, data
// nodes, and the resource manager.
package proto

import (
	"encoding/gob"
	"fmt"
	"os"
	"time"
)

// Inode types, mirroring the on-disk mode split the paper's client relies
// on. Only the distinctions CFS cares about are modeled.
const (
	TypeFile    uint32 = 0
	TypeDir     uint32 = 1
	TypeSymlink uint32 = 2
)

// RootInodeID is the inode id of a volume's root directory. Inode ids are
// allocated starting at RootInodeID+1 by the first meta partition.
const RootInodeID uint64 = 1

// Inode is the file metadata record stored in a meta partition's inodeTree
// (Section 2.1.1). Fields mirror the paper's struct.
//
// A *Inode you did not build is read-only, its LinkTarget and Extents
// included: a meta partition stores and hands out the same pointer, and a
// client caches the one it decoded. To change an inode, copy it.
type Inode struct {
	Inode      uint64 // inode id (the btree key)
	Type       uint32 // TypeFile, TypeDir, TypeSymlink
	LinkTarget []byte // symlink target name
	NLink      uint32 // number of links
	Flag       uint32 // FlagDeleteMark once the inode is marked deleted
	Size       uint64 // file size in bytes
	Gen        uint64 // bumped on every extent-list update
	CreateTime int64  // unix nanos
	ModifyTime int64  // unix nanos
	Extents    []ExtentKey
}

// Inode flags.
const (
	// FlagDeleteMark marks an inode whose nlink reached its threshold;
	// a background process frees its extents later (Section 2.7.3).
	FlagDeleteMark uint32 = 1 << 0
)

// IsDir reports whether the inode is a directory.
func (i *Inode) IsDir() bool { return i.Type == TypeDir }

// Mode converts the CFS inode type to an os.FileMode for the POSIX facade.
func (i *Inode) Mode() os.FileMode {
	switch i.Type {
	case TypeDir:
		return os.ModeDir | 0o755
	case TypeSymlink:
		return os.ModeSymlink | 0o777
	default:
		return 0o644
	}
}

// Dentry is a directory entry stored in a meta partition's dentryTree,
// keyed by (ParentID, Name) (Section 2.1.1).
type Dentry struct {
	ParentID uint64 // parent inode id
	Name     string // entry name
	Inode    uint64 // inode id the entry points to
	Type     uint32 // entry type (mirrors the inode type)
}

// ExtentKey locates one contiguous piece of file content: which data
// partition, which extent, where inside the extent, how long, and where the
// piece sits inside the file (Section 2.2.2).
type ExtentKey struct {
	PartitionID  uint64
	ExtentID     uint64
	ExtentOffset uint64 // offset within the extent
	FileOffset   uint64 // offset within the file
	Size         uint32 // length of the piece
	CRC          uint32
}

// End returns the file offset one past the last byte covered by the key.
func (k ExtentKey) End() uint64 { return k.FileOffset + uint64(k.Size) }

func (k ExtentKey) String() string {
	return fmt.Sprintf("ek{dp=%d ext=%d eoff=%d foff=%d len=%d}",
		k.PartitionID, k.ExtentID, k.ExtentOffset, k.FileOffset, k.Size)
}

// MetaPartitionInfo describes one meta partition to clients: its inode-id
// range [Start, End], its volume, and the replica addresses (index 0 is the
// preferred leader).
type MetaPartitionInfo struct {
	PartitionID uint64
	Volume      string
	Start       uint64 // lowest inode id this partition may allocate
	End         uint64 // highest inode id (inclusive); MaxUint64 = unbounded
	Members     []string
	LeaderAddr  string
	Status      PartitionStatus
	InodeCount  uint64
	MaxInodeID  uint64
	// ReplicaEpoch is the fencing version of Members, bumped by the master
	// on every meta-partition reconfiguration (replica removal after a
	// failure). Members at an older epoch ignore pushed updates out of
	// order; the Raft ConfChange driven under an epoch makes the quorum
	// view track it. Starts at 1.
	ReplicaEpoch uint64
	// Detached lists replicas removed from the member set after failures
	// (informational, mirrors DataPartitionInfo.Detached).
	Detached []string
}

// DataPartitionInfo describes one data partition to clients. The order of
// Members is the primary-backup replication order: Members[0] is the leader
// (Section 2.7.1).
type DataPartitionInfo struct {
	PartitionID uint64
	Volume      string
	Members     []string
	LeaderAddr  string
	Status      PartitionStatus
	Used        uint64
	Capacity    uint64
	ExtentCount uint64
	// ReplicaEpoch is the fencing version of the Members array (PacificA's
	// configuration version): the master bumps it on every reconfiguration
	// (leader failover, replica detach/re-attach), write-path requests and
	// replication hops carry it, and a replica holding a newer epoch
	// rejects stale-epoch frames. Starts at 1.
	ReplicaEpoch uint64
	// Detached lists replicas the master removed from the replication set
	// after failures; they re-attach (with realignment) when they
	// heartbeat again. Informational for clients.
	Detached []string
}

// PartitionStatus is the lifecycle state the resource manager tracks per
// partition (Section 2.3.3).
type PartitionStatus int32

const (
	PartitionReadWrite   PartitionStatus = iota // accepting new data
	PartitionReadOnly                           // full or a replica timed out
	PartitionUnavailable                        // multiple failures reported
)

func (s PartitionStatus) String() string {
	switch s {
	case PartitionReadWrite:
		return "read-write"
	case PartitionReadOnly:
		return "read-only"
	case PartitionUnavailable:
		return "unavailable"
	default:
		return fmt.Sprintf("status(%d)", int32(s))
	}
}

// VolumeView is what a client gets when it mounts a volume: the full set of
// partitions assigned to the volume. Clients cache it and refresh
// periodically (Section 2.4).
type VolumeView struct {
	Name           string
	MetaPartitions []MetaPartitionInfo
	DataPartitions []DataPartitionInfo
	Epoch          uint64 // bumped whenever the partition set changes
}

// NodeInfo is the liveness/utilization record the resource manager keeps
// per storage node (Section 2).
type NodeInfo struct {
	Addr          string
	IsMeta        bool
	Total         uint64 // bytes of memory (meta) or disk (data)
	Used          uint64
	PartitionCnt  int
	RaftSet       int // raft-set index (Section 2.5.1)
	LastHeartbeat time.Time
	Active        bool
	FailureCount  int // consecutive failures reported against this node
}

// Ratio returns Used/Total, the utilization driving placement (Section
// 2.3.1). A node with Total == 0 is treated as full.
func (n *NodeInfo) Ratio() float64 {
	if n.Total == 0 {
		return 1
	}
	return float64(n.Used) / float64(n.Total)
}

// RaftHeartbeat is one Raft group's slot inside a coalesced heartbeat.
// MultiRaft (Section 2.1.2) exchanges heartbeats per node pair, not per
// group: every group led by node A with a replica on node B contributes one
// of these to the single batched message A sends B per heartbeat interval,
// so idle Raft traffic grows with the node count, not the group count.
type RaftHeartbeat struct {
	GroupID uint64
	Term    uint64
	// Commit is the leader's commit index capped at what this follower has
	// acked, so the follower can advance without a log-consistency check.
	Commit uint64
}

// RaftHeartbeatResp is one group's slot in the coalesced reply batch.
type RaftHeartbeatResp struct {
	GroupID uint64
	Term    uint64
}

// Now returns the current unix-nano timestamp. Split out so deterministic
// tests can shadow time handling where needed.
func Now() int64 { return time.Now().UnixNano() }

// RegisterGob registers every type that crosses the TCP transport as a
// gob frame's body. gob needs a registration only for a value sent as an
// interface, and a frame's body is one; a type that travels only as a
// field of another (Inode, VolumeView, ...), inside the MultiRaft batch's
// own codec (RaftHeartbeat) or as a kindPacket frame (Packet) needs none.
// The metadata RPCs normally cross in their binary layout (metawire.go);
// they stay registered because a body sent under another op's number goes
// gob, so that the handler can refuse it. Calling it twice is harmless.
func RegisterGob() {
	for _, v := range []any{
		&CreateInodeReq{}, &CreateInodeResp{},
		&UnlinkInodeReq{}, &UnlinkInodeResp{},
		&EvictInodeReq{}, &EvictInodeResp{},
		&LinkInodeReq{}, &LinkInodeResp{},
		&CreateDentryReq{}, &CreateDentryResp{},
		&DeleteDentryReq{}, &DeleteDentryResp{},
		&UpdateDentryReq{}, &UpdateDentryResp{},
		&LookupReq{}, &LookupResp{},
		&InodeGetReq{}, &InodeGetResp{},
		&BatchInodeGetReq{}, &BatchInodeGetResp{},
		&ReadDirReq{}, &ReadDirResp{},
		&SetAttrReq{}, &SetAttrResp{},
		&AppendExtentKeysReq{}, &AppendExtentKeysResp{},
		&SplitMetaPartitionReq{}, &SplitMetaPartitionResp{},
		&MetaSnapshotReq{}, &MetaSnapshotResp{},
		&CreateVolumeReq{}, &CreateVolumeResp{},
		&GetVolumeReq{}, &GetVolumeResp{},
		&RegisterNodeReq{}, &RegisterNodeResp{},
		&HeartbeatReq{}, &HeartbeatResp{},
		&CreateMetaPartitionReq{}, &CreateMetaPartitionResp{},
		&CreateDataPartitionReq{}, &CreateDataPartitionResp{},
		&UpdateDataPartitionReq{}, &UpdateDataPartitionResp{},
		&UpdateMetaPartitionReq{}, &UpdateMetaPartitionResp{},
		&RecoverPartitionReq{}, &RecoverPartitionResp{},
		&ReportFailureReq{}, &ReportFailureResp{},
		&ClusterStatsReq{}, &ClusterStatsResp{},
		&ExtentInfoReq{}, &ExtentInfoResp{},
	} {
		gob.Register(v)
	}
}
