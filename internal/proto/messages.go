package proto

// Op identifies an RPC operation. One flat space is shared by the meta,
// data, and master planes so a transport handler can dispatch on it.
type Op uint8

// Meta-node operations (Section 2.6).
const (
	OpMetaCreateInode Op = iota + 1
	OpMetaUnlinkInode
	OpMetaEvictInode
	OpMetaLinkInode
	OpMetaCreateDentry
	OpMetaDeleteDentry
	OpMetaUpdateDentry
	OpMetaLookup
	OpMetaInodeGet
	OpMetaBatchInodeGet
	OpMetaReadDir
	OpMetaSetAttr
	OpMetaAppendExtentKeys
	OpMetaSplitPartition
	OpMetaSnapshot

	// Data-node operations (Section 2.7).
	OpDataCreateExtent
	OpDataAppend    // sequential write, primary-backup replicated
	OpDataOverwrite // random in-place write, Raft replicated
	OpDataRead
	OpDataMarkDelete // delete extent / punch hole
	OpDataFlush
	OpDataExtentInfo // replica alignment during failure recovery

	// Resource-manager operations (Section 2.3).
	OpMasterCreateVolume
	OpMasterGetVolume
	OpMasterRegisterNode
	OpMasterHeartbeat
	OpMasterReportFailure
	OpMasterClusterStats

	// Master -> node admin tasks.
	OpAdminCreateMetaPartition
	OpAdminCreateDataPartition

	// Raft traffic (consensus messages ride the same transport).
	OpRaftMessage

	// Data-path streams. Appended after the original ops so existing wire
	// numbering is untouched (the op space is append-only, like the error
	// sentinel table). OpDataWriteStream opens a pipelined replication
	// session: packets flow leader-ward without per-packet round trips and
	// acks stream back as the all-replica window drains (Figure 4 run as a
	// pipeline instead of stop-and-wait).
	OpDataWriteStream

	// Session-lifecycle frames (append-only, like everything above).
	//
	// OpDataPing is a keepalive that rides a replication session in window
	// order: the client pings an idle pooled session to prove the leader is
	// alive, and the leader pings idle per-follower forward chains so a
	// half-open replica is detected before the next write blocks on it.
	// A ping is never replicated and never advances any offset.
	OpDataPing
	// OpDataCommitted gossips the all-replica committed offset of one
	// extent from the leader to its followers (Section 2.2.5): piggybacked
	// on every forward hop and broadcast when a window drains, it is what
	// lets a follower enforce the committed clamp on its own reads instead
	// of trusting its local watermark.
	OpDataCommitted

	// Failover orchestration (append-only, like everything above).
	//
	// OpAdminUpdateDataPartition is the master -> datanode reconfiguration
	// task: adopt a new Members order under a bumped ReplicaEpoch. A node
	// that becomes leader through it re-runs the quiesce-gated alignment
	// pass before accepting writes.
	OpAdminUpdateDataPartition
	// OpAdminRecoverPartition tasks a partition's leader with a targeted
	// Recover (Section 2.2.5) - how the master reacts to a follower's
	// re-registration instead of waiting for the leader's own next pass.
	OpAdminRecoverPartition
	// OpDataTruncate is a leader -> follower alignment hop discarding a
	// follower's divergent uncommitted tail (or a whole extent the new
	// leader does not know). Only possible after a promotion: the old
	// leader may have forwarded frames some followers applied and the
	// promoted one never saw.
	OpDataTruncate

	// OpDataReadStream opens a pipelined read session (append-only, like
	// everything above): the read-side twin of OpDataWriteStream. The
	// client pushes OpDataRead request frames without waiting for replies
	// (ReqID is the session sequence, FileOffset carries the requested
	// length) and the data node answers strictly in request order with
	// chunked, CRC-framed OpDataRead responses - each chunk's FileOffset
	// holds the bytes remaining after it, so the final chunk of a request
	// carries zero. Any replica serves the stream, clamped at its known
	// all-replica committed offset (Section 2.2.5), which is what makes
	// follower read offload safe.
	OpDataReadStream

	// Membership-change orchestration (append-only, like everything above).
	//
	// OpAdminUpdateMetaPartition is the master -> metanode reconfiguration
	// task, the meta twin of OpAdminUpdateDataPartition: adopt a new
	// Members set under a bumped ReplicaEpoch and drive the partition's
	// Raft configuration to match (the surviving leader proposes the
	// AddNode/RemoveNode diff). It is what turns a dead meta replica into
	// a removed one instead of a read-only escalation (Section 2.3.3).
	OpAdminUpdateMetaPartition
)

func (o Op) String() string {
	switch o {
	case OpMetaCreateInode:
		return "MetaCreateInode"
	case OpMetaUnlinkInode:
		return "MetaUnlinkInode"
	case OpMetaEvictInode:
		return "MetaEvictInode"
	case OpMetaLinkInode:
		return "MetaLinkInode"
	case OpMetaCreateDentry:
		return "MetaCreateDentry"
	case OpMetaDeleteDentry:
		return "MetaDeleteDentry"
	case OpMetaUpdateDentry:
		return "MetaUpdateDentry"
	case OpMetaLookup:
		return "MetaLookup"
	case OpMetaInodeGet:
		return "MetaInodeGet"
	case OpMetaBatchInodeGet:
		return "MetaBatchInodeGet"
	case OpMetaReadDir:
		return "MetaReadDir"
	case OpMetaSetAttr:
		return "MetaSetAttr"
	case OpMetaAppendExtentKeys:
		return "MetaAppendExtentKeys"
	case OpMetaSplitPartition:
		return "MetaSplitPartition"
	case OpMetaSnapshot:
		return "MetaSnapshot"
	case OpDataCreateExtent:
		return "DataCreateExtent"
	case OpDataAppend:
		return "DataAppend"
	case OpDataOverwrite:
		return "DataOverwrite"
	case OpDataRead:
		return "DataRead"
	case OpDataMarkDelete:
		return "DataMarkDelete"
	case OpDataFlush:
		return "DataFlush"
	case OpDataExtentInfo:
		return "DataExtentInfo"
	case OpMasterCreateVolume:
		return "MasterCreateVolume"
	case OpMasterGetVolume:
		return "MasterGetVolume"
	case OpMasterRegisterNode:
		return "MasterRegisterNode"
	case OpMasterHeartbeat:
		return "MasterHeartbeat"
	case OpMasterReportFailure:
		return "MasterReportFailure"
	case OpMasterClusterStats:
		return "MasterClusterStats"
	case OpAdminCreateMetaPartition:
		return "AdminCreateMetaPartition"
	case OpAdminCreateDataPartition:
		return "AdminCreateDataPartition"
	case OpRaftMessage:
		return "RaftMessage"
	case OpDataWriteStream:
		return "DataWriteStream"
	case OpDataPing:
		return "DataPing"
	case OpDataCommitted:
		return "DataCommitted"
	case OpAdminUpdateDataPartition:
		return "AdminUpdateDataPartition"
	case OpAdminRecoverPartition:
		return "AdminRecoverPartition"
	case OpDataTruncate:
		return "DataTruncate"
	case OpDataReadStream:
		return "DataReadStream"
	case OpAdminUpdateMetaPartition:
		return "AdminUpdateMetaPartition"
	default:
		return "Op(unknown)"
	}
}

// ---------------------------------------------------------------------------
// Meta-node messages. Every request names the target partition so a meta
// node hosting hundreds of partitions can route it (Section 2.1.1).

// CreateInodeReq allocates a fresh inode on the target partition. The
// partition picks the smallest unused inode id in its range (Section 2.6.1).
type CreateInodeReq struct {
	PartitionID uint64
	Type        uint32
	LinkTarget  []byte
}

type CreateInodeResp struct {
	Info *Inode
}

// UnlinkInodeReq decrements nlink; when it reaches the threshold (0 for
// files, 2 for directories) the inode is marked deleted (Section 2.6.3).
type UnlinkInodeReq struct {
	PartitionID uint64
	Inode       uint64
}

type UnlinkInodeResp struct {
	Info *Inode // post-decrement state
}

// EvictInodeReq removes a marked-deleted (orphan) inode from memory after
// the client's orphan list flushes (Section 2.6.1).
type EvictInodeReq struct {
	PartitionID uint64
	Inode       uint64
}

type EvictInodeResp struct{}

// LinkInodeReq increments nlink as the first step of link() (Section 2.6.2).
type LinkInodeReq struct {
	PartitionID uint64
	Inode       uint64
}

type LinkInodeResp struct {
	Info *Inode
}

// CreateDentryReq inserts (ParentID, Name) -> Inode into the partition
// owning the parent directory.
type CreateDentryReq struct {
	PartitionID uint64
	ParentID    uint64
	Name        string
	Inode       uint64
	Type        uint32
}

type CreateDentryResp struct{}

// DeleteDentryReq removes (ParentID, Name), returning the inode id it
// pointed at so the client can follow up with an unlink.
type DeleteDentryReq struct {
	PartitionID uint64
	ParentID    uint64
	Name        string
}

type DeleteDentryResp struct {
	Inode uint64
}

// UpdateDentryReq repoints (ParentID, Name) at a new inode (used by
// rename), returning the previous inode id.
type UpdateDentryReq struct {
	PartitionID uint64
	ParentID    uint64
	Name        string
	Inode       uint64
}

type UpdateDentryResp struct {
	OldInode uint64
}

// LookupReq resolves (ParentID, Name) to an inode id and type.
type LookupReq struct {
	PartitionID uint64
	ParentID    uint64
	Name        string
}

// LookupResp is the dentry's target. Info is the inode itself when the
// node that answered also leads the partition holding it (DESIGN.md §3):
// read from that leader's memory inside the request, so a stat or an open
// needs no second round trip. It is nil otherwise.
type LookupResp struct {
	Inode uint64
	Type  uint32
	Info  *Inode
}

// InodeGetReq fetches one inode.
type InodeGetReq struct {
	PartitionID uint64
	Inode       uint64
}

type InodeGetResp struct {
	Info *Inode
}

// BatchInodeGetReq fetches many inodes in one round trip; this is the
// readdir optimization the paper credits for the DirStat win (Section 4.2).
type BatchInodeGetReq struct {
	PartitionID uint64
	Inodes      []uint64
}

type BatchInodeGetResp struct {
	Infos []*Inode
}

// ReadDirReq lists the dentries under a directory inode.
type ReadDirReq struct {
	PartitionID uint64
	ParentID    uint64
}

type ReadDirResp struct {
	Children []Dentry
}

// SetAttrReq updates inode attributes (size for truncate, times, type
// bits). Zero-valued fields selected by Valid bits are applied.
type SetAttrReq struct {
	PartitionID uint64
	Inode       uint64
	Valid       uint32
	Size        uint64
	ModifyTime  int64
}

// SetAttr valid bits.
const (
	AttrSize uint32 = 1 << iota
	AttrModifyTime
)

type SetAttrResp struct{}

// AppendExtentKeysReq records newly written extents on the file's inode
// after the data path committed them (Section 2.7.1 step 8).
type AppendExtentKeysReq struct {
	PartitionID uint64
	Inode       uint64
	Extents     []ExtentKey
	Size        uint64 // new file size if larger than current
}

type AppendExtentKeysResp struct{}

// SplitMetaPartitionReq is the master->meta task from Algorithm 1: cut the
// partition's inode range at End.
type SplitMetaPartitionReq struct {
	PartitionID uint64
	End         uint64
}

type SplitMetaPartitionResp struct {
	MaxInodeID uint64
}

// MetaSnapshotReq asks a partition for a serialized snapshot (used by
// failure recovery and by fsck).
type MetaSnapshotReq struct {
	PartitionID uint64
}

type MetaSnapshotResp struct {
	Inodes   []*Inode
	Dentries []Dentry
}

// ---------------------------------------------------------------------------
// Master messages.

// CreateVolumeReq provisions a volume with the given number of meta and
// data partitions (Section 2).
type CreateVolumeReq struct {
	Name               string
	MetaPartitionCount int
	DataPartitionCount int
	Capacity           uint64
}

type CreateVolumeResp struct {
	View *VolumeView
}

// GetVolumeReq fetches the current volume view; clients poll this
// periodically over non-persistent connections (Sections 2.4, 2.5.2).
type GetVolumeReq struct {
	Name  string
	Epoch uint64 // client's cached epoch; 0 forces a full view
}

type GetVolumeResp struct {
	View      *VolumeView
	Unchanged bool // true when the client's epoch is current
}

// RegisterNodeReq announces a meta or data node to the resource manager.
type RegisterNodeReq struct {
	Addr   string
	IsMeta bool
	Total  uint64
}

type RegisterNodeResp struct {
	RaftSet int
}

// HeartbeatReq reports utilization and per-partition status (Section 2.3).
type HeartbeatReq struct {
	Addr       string
	IsMeta     bool
	Used       uint64
	Total      uint64
	Partitions []PartitionReport
}

// PartitionReport is one partition's status inside a heartbeat.
type PartitionReport struct {
	PartitionID uint64
	Used        uint64
	InodeCount  uint64
	ExtentCount uint64
	MaxInodeID  uint64
	IsLeader    bool
	Status      PartitionStatus
	// ReplicaEpoch is the epoch this replica holds (data partitions report
	// it since failover landed; meta partitions since membership change).
	// The master compares it against its record and re-pushes the
	// reconfiguration to members that missed an update.
	ReplicaEpoch uint64
}

type HeartbeatResp struct {
	// ReadLeaseMillis grants the reporting node a read lease: it may keep
	// serving reads for this many milliseconds past the heartbeat. A node
	// that cannot refresh (partitioned from the master, i.e. exactly the
	// deposed-leader case) stops serving reads when the lease lapses,
	// closing the stale-read window that epoch fencing alone cannot (a
	// zombie never learns the newer epoch). Zero means no lease discipline
	// (masterless deployments, old masters).
	ReadLeaseMillis int64
}

// ReportFailureReq tells the master a replica failed to respond; repeated
// failures mark the partition unavailable (Section 2.3.3).
type ReportFailureReq struct {
	PartitionID uint64
	Addr        string
	IsMeta      bool
}

type ReportFailureResp struct{}

// ClusterStatsReq asks for cluster-wide counters (used by tools and tests).
type ClusterStatsReq struct{}

type ClusterStatsResp struct {
	MetaNodes      []NodeInfo
	DataNodes      []NodeInfo
	Volumes        []string
	MetaPartitions int
	DataPartitions int
}

// ---------------------------------------------------------------------------
// Admin tasks (master -> nodes).

// CreateMetaPartitionReq instructs a meta node to host a new partition.
type CreateMetaPartitionReq struct {
	PartitionID uint64
	Volume      string
	Start       uint64
	End         uint64
	Members     []string
}

type CreateMetaPartitionResp struct{}

// ExtentInfoReq asks a replica for its per-extent summaries; the leader
// uses it to check and align extents during failure recovery (Section
// 2.2.5).
type ExtentInfoReq struct {
	PartitionID uint64
}

// ExtentSummary mirrors one extent's metadata across the wire.
type ExtentSummary struct {
	ID    uint64
	Size  uint64
	CRC   uint32
	Holed uint64
	// Committed is the replying replica's learned all-replica committed
	// offset for the extent. A crash-restarted leader adopts the max over
	// its followers: a follower's learned value never exceeds the true
	// committed offset, so adoption is safe even against live traffic.
	Committed uint64
	// OverwriteVer is the replying replica's APPLIED overwrite version for
	// the extent (count of Raft overwrite applies it has executed). The
	// leader's alignment pass compares it against its own version and
	// re-ships the extent's committed bytes when the replica trails -
	// healing a follower that missed overwrites while down (in-memory Raft
	// logs do not replay across restarts).
	OverwriteVer uint64
}

type ExtentInfoResp struct {
	Extents []ExtentSummary
	// ReplicaEpoch is the replying replica's config epoch. A restarted
	// leader only ADOPTS committed offsets from same-epoch followers: a
	// follower at a newer epoch belongs to a configuration that may have
	// committed different bytes than this replica stores (the replier is
	// telling the asker it has been deposed).
	ReplicaEpoch uint64
}

// CreateDataPartitionReq instructs a data node to host a new partition.
type CreateDataPartitionReq struct {
	PartitionID uint64
	Volume      string
	Capacity    uint64
	Members     []string
	// ReplicaEpoch seeds the partition's fencing epoch (zero means 1, for
	// pre-epoch callers and persisted metadata written before failover).
	ReplicaEpoch uint64
}

type CreateDataPartitionResp struct{}

// UpdateDataPartitionReq is the master -> datanode reconfiguration task:
// adopt Members as the new replication order under ReplicaEpoch. Nodes
// ignore updates whose epoch is not newer than what they hold, so replays
// and reordered deliveries are harmless. Volume and Capacity ride along so
// a member that LOST the partition (wiped disk between detach and
// re-attach) can re-create it empty and be refilled by the leader's
// alignment pass instead of wedging the reconfiguration.
type UpdateDataPartitionReq struct {
	PartitionID  uint64
	Volume       string
	Capacity     uint64
	Members      []string
	ReplicaEpoch uint64
}

type UpdateDataPartitionResp struct {
	// ReplicaEpoch echoes the epoch the node holds after the update.
	ReplicaEpoch uint64
}

// UpdateMetaPartitionReq is the master -> metanode reconfiguration task,
// mirroring UpdateDataPartitionReq: adopt Members under ReplicaEpoch.
// Nodes ignore updates whose epoch is not newer than what they hold. The
// receiving member drives the partition's Raft group toward Members by
// proposing the ConfChange diff once it is (or becomes) the Raft leader,
// so the master's epoch view and the Raft quorum view converge to one.
// Volume, Start and End ride along (what CreateMetaPartitionReq carries)
// so a member that does not host the partition - a replacement newcomer,
// a disk wiped between detach and re-attach - creates it empty and is
// filled through the Raft group.
type UpdateMetaPartitionReq struct {
	PartitionID  uint64
	Volume       string
	Start        uint64
	End          uint64
	Members      []string
	ReplicaEpoch uint64
}

type UpdateMetaPartitionResp struct {
	// ReplicaEpoch echoes the epoch the node holds after the update.
	ReplicaEpoch uint64
}

// RecoverPartitionReq tasks the partition's current leader with one
// Section 2.2.5 recovery pass (align followers, re-advance committed).
type RecoverPartitionReq struct {
	PartitionID uint64
}

type RecoverPartitionResp struct {
	Shipped uint64 // bytes shipped to lagging followers
}
