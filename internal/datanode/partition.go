package datanode

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"cfs/internal/multiraft"
	"cfs/internal/proto"
	"cfs/internal/raft"
	"cfs/internal/storage"
	"cfs/internal/util"
)

// Partition is one data partition: an extent store plus the two
// replication protocols of Section 2.2.4.
//
//   - Sequential writes (appends) use primary-backup replication: the
//     replica array order from the resource manager is the replication
//     order, Members[0] is the leader, and a write is committed once every
//     replica has acknowledged it (Figure 4).
//   - Overwrites replicate through the partition's Raft group (Figure 5),
//     accepting Raft's write amplification because overwrites are rare.
//
// During sequential writes, stale tails are allowed on replicas as long as
// they are never returned to a client: the leader tracks, per extent, the
// offset committed by ALL replicas and only exposes that (Section 2.2.5).
type Partition struct {
	ID       uint64
	Volume   string
	Capacity uint64

	node  *DataNode
	dir   string // partition directory (extent store + lifecycle metadata)
	store *storage.ExtentStore
	// raft is the overwrite group; set at create for multi-replica
	// partitions, or later by the reconcile loop when a single-replica
	// partition grows. Read through raftGroup() (mu-guarded) anywhere that
	// can race the reconcile goroutine's write. sm is the state machine it
	// runs, set with it: the read fence asks it what is logged.
	raft *multiraft.Group
	sm   *partitionSM

	mu sync.Mutex
	// Members is the replication order; Members[0] is the leader. Mutable
	// since master-driven failover (guarded by mu): a reconfiguration may
	// promote this node or detach a failed sibling mid-flight.
	Members []string
	// epoch is the fencing version of Members (the view's ReplicaEpoch).
	// Write requests and replication hops carry the sender's epoch; holders
	// of a newer one reject them, which is what stops a deposed leader from
	// ever assembling an all-replica commit again.
	epoch uint64
	// promoting gates writes on a node that just became leader through a
	// reconfiguration: until its alignment pass (Recover) has run, its
	// watermark and its followers' may diverge, so session binds are
	// refused retriably.
	promoting bool
	// hopEpoch is the highest epoch observed on an accepted replication
	// hop. A follower that misses the master's reconfiguration push still
	// learns "the world moved" from the new leader's first epoch-stamped
	// frame (promotion Recover pushes committed offsets to every
	// follower), and the fence then rejects the deposed leader's hops
	// even though the follower's own config epoch lags. Not persisted:
	// a restart reloads the config epoch, and the new leader's next
	// frame re-teaches the watermark.
	hopEpoch uint64
	// recoverWaiters counts recovery loops waiting for quiescence. While
	// any is pending, NEW session binds are refused retriably - without
	// the drain, a client that rebinds the instant
	// its session aborts could starve a master-tasked realignment
	// forever (bound sessions always beat the retry timer).
	recoverWaiters int
	committed      map[uint64]uint64 // extent id -> all-replica committed offset
	// Overwrite visibility (Section 2.2.4's Raft path meets follower read
	// offload): follower Raft apply is asynchronous, so a follower can hold
	// pre-overwrite bytes below its committed clamp. ovwApplied counts the
	// overwrites of each extent this replica has applied; replicas that
	// applied the same Raft prefix agree on it, and an overwrite's ack
	// carries the leader's count to the client, whose reads carry it back.
	// ovwSeen is the newest count this replica has evidence of without
	// having applied it: a snapshot install (the entries it skipped) or a
	// committed hop (window-drain gossip, Recover). overwriteFence refuses
	// reads of an extent that trails either, or that has a logged,
	// unapplied overwrite (partitionSM.logged); clients fall through to the
	// next replica, so no client needs to pin overwritten extents to the
	// leader.
	ovwApplied map[uint64]uint64 // extent id -> overwrite version applied locally
	ovwSeen    map[uint64]uint64 // extent id -> newest version known to exist
	status     proto.PartitionStatus
	// Recovery quiescence: Recover's promotion of the local watermark to
	// the committed offset is only sound when NO writer can have in-flight
	// un-acked bytes for its whole duration (Section 2.2.5). liveSessions
	// counts bound, unfailed leader write sessions - the only way a
	// client's bytes reach the store; recovering, while set, refuses new
	// sessions with a retriable error.
	liveSessions int
	recovering   bool

	// Debounced committed-snapshot state (persist.go), separate from mu
	// so the save timer never contends with the data path.
	saveMu      sync.Mutex
	savePending bool
	saveStopped bool
}

// isLeader reports whether this node is the partition's primary-backup
// leader (the first entry of the replica array).
func (p *Partition) isLeader() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.isLeaderLocked()
}

func (p *Partition) isLeaderLocked() bool {
	return len(p.Members) > 0 && p.Members[0] == p.node.addr
}

// followers returns every member except this node.
func (p *Partition) followers() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.Members) == 0 {
		return nil // guard: a negative cap below would panic
	}
	out := make([]string, 0, len(p.Members)-1)
	for _, m := range p.Members {
		if m != p.node.addr {
			out = append(out, m)
		}
	}
	return out
}

// Epoch returns the partition's current replica epoch.
func (p *Partition) Epoch() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.epoch
}

// fenceEpoch returns the newest epoch this replica has EVIDENCE of - its
// config epoch or the highest epoch observed on an accepted hop. This is
// what the fence compares against, and what extent-info replies advertise
// (so a restarted deposed leader learns it is deposed even from followers
// whose own config push was missed).
func (p *Partition) fenceEpoch() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.hopEpoch > p.epoch {
		return p.hopEpoch
	}
	return p.epoch
}

// applyReconfig adopts a master reconfiguration: a new Members order under
// a strictly newer epoch (stale or duplicate deliveries are ignored, and
// report applied=false). It reports the epoch now held and whether this
// node just became the leader - in which case the partition is write-gated
// (promoting) until the caller's alignment pass completes.
func (p *Partition) applyReconfig(members []string, epoch uint64) (held uint64, promoted, applied bool) {
	p.mu.Lock()
	if epoch <= p.epoch {
		held = p.epoch
		p.mu.Unlock()
		return held, false, false
	}
	wasLeader := p.isLeaderLocked()
	p.Members = append([]string(nil), members...)
	p.epoch = epoch
	isLeader := p.isLeaderLocked()
	promoted = !wasLeader && isLeader
	if promoted {
		p.promoting = true
	} else if !isLeader {
		p.promoting = false // deposed before its promotion pass finished
	}
	p.mu.Unlock()
	_ = p.saveMeta() // durable: a restart must not revive the old epoch
	return epoch, promoted, true
}

// markPromoting re-arms the promotion write gate on a partition restarted
// mid-promotion (the persisted flag said its alignment pass never
// completed).
func (p *Partition) markPromoting() {
	p.mu.Lock()
	p.promoting = true
	p.mu.Unlock()
}

// promotionPending reports whether the promotion write gate is held.
func (p *Partition) promotionPending() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.promoting
}

// endPromotion lifts the promotion write gate (the promoted leader's first
// successful Recover pass calls it) and persists the lift - the gate is
// durable, so a crash mid-promotion comes back gated.
func (p *Partition) endPromotion() {
	p.mu.Lock()
	p.promoting = false
	p.mu.Unlock()
	_ = p.saveMeta()
}

// recoverWait registers a pending recovery loop: new binds are refused
// until recoverDone, so already-bound sessions drain away (next abort,
// idle retire, or client close) instead of racing the retry timer.
func (p *Partition) recoverWait() {
	p.mu.Lock()
	p.recoverWaiters++
	p.mu.Unlock()
}

func (p *Partition) recoverDone() {
	p.mu.Lock()
	p.recoverWaiters--
	p.mu.Unlock()
}

// checkClientEpoch validates a client write request against the current
// replica epoch. Epoch zero (reads, legacy callers) always passes; any
// mismatch - older OR newer than this node's knowledge - is rejected
// retriably, since one of the two parties is behind the master and a
// refresh resolves it.
func (p *Partition) checkClientEpoch(pkt *proto.Packet) error {
	p.mu.Lock()
	cur := p.epoch
	p.mu.Unlock()
	if pkt.Epoch != 0 && pkt.Epoch != cur {
		return fmt.Errorf("datanode: partition %d at replica epoch %d, request carries %d: %w",
			p.ID, cur, pkt.Epoch, util.ErrStaleEpoch)
	}
	return nil
}

// checkHopEpoch is the follower half of the failover fence (GFS/PacificA-
// style): a hop from a replica epoch this node has already moved past is a
// deposed leader still forwarding. Rejecting it here is what makes the
// fence airtight - a stale leader can never collect the all-replica acks a
// commit needs, so no client of the old view can commit bytes through it.
// A NEWER epoch is accepted AND adopted as the fence watermark (the sender
// heard from the master before we did; adopting closes the window where a
// follower that missed the reconfiguration push would still take the
// deposed leader's same-epoch hops). Zero is unfenced.
func (p *Partition) checkHopEpoch(pkt *proto.Packet) error {
	if pkt.Epoch == 0 {
		return nil
	}
	p.mu.Lock()
	cur := p.epoch
	if p.hopEpoch > cur {
		cur = p.hopEpoch
	}
	if pkt.Epoch > p.hopEpoch {
		p.hopEpoch = pkt.Epoch
	}
	p.mu.Unlock()
	if pkt.Epoch < cur {
		return fmt.Errorf("datanode: partition %d: hop at replica epoch %d, local %d: %w",
			p.ID, pkt.Epoch, cur, util.ErrStaleEpoch)
	}
	return nil
}

// hopErrCode maps a replication-hop apply error to its wire result code.
func hopErrCode(err error) uint8 {
	if errors.Is(err, util.ErrStaleEpoch) {
		return proto.ResultErrStaleEpoch
	}
	return proto.ResultErrIO
}

// Status returns the partition's current lifecycle state.
func (p *Partition) Status() proto.PartitionStatus {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.status
}

func (p *Partition) setStatus(s proto.PartitionStatus) {
	p.mu.Lock()
	p.status = s
	p.mu.Unlock()
}

// Used returns the bytes stored in the partition's extent store.
func (p *Partition) Used() uint64 { return p.store.Used() }

// ExtentCount returns the number of extents in the partition.
func (p *Partition) ExtentCount() int { return p.store.ExtentCount() }

// committedOf returns the all-replica committed offset for an extent.
func (p *Partition) committedOf(extentID uint64) uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.committed[extentID]
}

// CommittedOf exposes the committed offset to tools and tests.
func (p *Partition) CommittedOf(extentID uint64) uint64 { return p.committedOf(extentID) }

func (p *Partition) advanceCommitted(extentID, end uint64) {
	p.mu.Lock()
	if end > p.committed[extentID] {
		p.committed[extentID] = end
	}
	p.mu.Unlock()
}

// ovwAppliedOf returns the extent's locally applied overwrite version.
func (p *Partition) ovwAppliedOf(extentID uint64) uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.ovwApplied[extentID]
}

// noteOvwSeen records the newest overwrite version known to exist for an
// extent (monotonic max).
func (p *Partition) noteOvwSeen(extentID, ver uint64) {
	if ver == 0 {
		return
	}
	p.mu.Lock()
	if ver > p.ovwSeen[extentID] {
		p.ovwSeen[extentID] = ver
	}
	p.mu.Unlock()
}

// adoptOvw marks the extent's local content as reflecting overwrite version
// ver - the alignment pass just re-shipped the leader's bytes wholesale, so
// the replica is current by construction even though it never applied the
// overwrites through Raft.
func (p *Partition) adoptOvw(extentID, ver uint64) {
	p.mu.Lock()
	if ver > p.ovwApplied[extentID] {
		p.ovwApplied[extentID] = ver
	}
	if ver > p.ovwSeen[extentID] || ver > 0 && p.ovwSeen[extentID] == ovwDiverged {
		p.ovwSeen[extentID] = ver
	}
	p.mu.Unlock()
}

// ovwDiverged in ovwSeen marks an extent whose overwrites this replica
// skipped through a snapshot install: its own count can never catch up
// with the content it lacks, so only an alignment re-ship (adoptOvw)
// lifts the fence.
const ovwDiverged = ^uint64(0)

// ovwCurrent reports whether this replica's content is as new as every
// overwrite version it knows of for the extent. Trivially true on the
// leader and on extents never overwritten.
func (p *Partition) ovwCurrent(extentID uint64) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.ovwApplied[extentID] >= p.ovwSeen[extentID]
}

// overwriteFence is admitRead's overwrite half, one denial constraint
// (DESIGN.md Section 5.5): no replica serves extent E below the version
// its reader was acked (acked, stamped on the request by the client), nor
// below a version it knows exists, nor while it holds a logged, unapplied
// overwrite of E. It returns the refusal, or "".
func (p *Partition) overwriteFence(extentID, acked uint64) string {
	p.mu.Lock()
	applied, seen := p.ovwApplied[extentID], p.ovwSeen[extentID]
	g := p.raft
	var logged uint64
	if p.sm != nil {
		logged = p.sm.logged[extentID]
	}
	p.mu.Unlock()
	switch {
	case applied < acked:
		return fmt.Sprintf("read of extent %d at overwrite version %d, below the %d its reader was acked: %v",
			extentID, applied, acked, util.ErrOutOfRange)
	case applied < seen:
		return fmt.Sprintf("read of extent %d behind announced overwrite version: %v", extentID, util.ErrOutOfRange)
	case logged > 0 && g != nil && g.Applied() < logged:
		return fmt.Sprintf("read of extent %d with an overwrite logged at raft index %d and not yet applied: %v",
			extentID, logged, util.ErrOutOfRange)
	}
	return ""
}

// membersCopy returns the current replica set.
func (p *Partition) membersCopy() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]string(nil), p.Members...)
}

// raftGroup returns the partition's overwrite Raft group (nil until one is
// attached), safely against the reconcile loop's late attach.
func (p *Partition) raftGroup() *multiraft.Group {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.raft
}

// attachRaft hands the partition its overwrite group and the state
// machine the group runs.
func (p *Partition) attachRaft(g *multiraft.Group, sm *partitionSM) {
	p.mu.Lock()
	p.raft, p.sm = g, sm
	p.mu.Unlock()
}

// RaftMembers reports the partition's committed Raft configuration, nil
// while the replica runs without a group. The membership-change invariant
// says this and the master's Members record converge to the SAME set after
// every reconfiguration - tests assert on it.
func (p *Partition) RaftMembers() []string { return p.RaftStatus().Peers }

// RaftStatus reports this replica's view of the partition's Raft group:
// the zero Status while it runs without one.
func (p *Partition) RaftStatus() raft.Status {
	if g := p.raftGroup(); g != nil {
		return g.Status()
	}
	return raft.Status{}
}

// MembersCopy returns the replica's own view of the member set.
func (p *Partition) MembersCopy() []string { return p.membersCopy() }

// sessionStart claims a live-session slot; refused while a recovery pass
// holds the partition quiesced or a promotion awaits its alignment pass
// (the caller rejects the bind retriably).
func (p *Partition) sessionStart() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.recovering || p.promoting || p.recoverWaiters > 0 {
		return false
	}
	p.liveSessions++
	return true
}

func (p *Partition) sessionEnd() {
	p.mu.Lock()
	p.liveSessions--
	p.mu.Unlock()
}

// beginRecover atomically checks quiescence and, if the partition is
// quiet, holds it quiet (new sessions are refused) until
// endRecover - closing the check-then-promote race a bare counter read
// would leave open.
func (p *Partition) beginRecover() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.recovering || p.liveSessions > 0 {
		return false
	}
	p.recovering = true
	return true
}

func (p *Partition) endRecover() {
	p.mu.Lock()
	p.recovering = false
	p.mu.Unlock()
}

// checkWritable fails writes once the partition is read-only or full
// (Section 2.3.1: a full partition can still be modified, not extended).
func (p *Partition) checkWritable() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.status != proto.PartitionReadWrite {
		return fmt.Errorf("datanode: partition %d: %w", p.ID, util.ErrReadOnly)
	}
	if p.Capacity > 0 && p.store.Used() >= p.Capacity {
		p.status = proto.PartitionReadOnly
		return fmt.Errorf("datanode: partition %d: %w", p.ID, util.ErrFull)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Sequential write: primary-backup replication (Figure 4). The leader half
// lives in stream.go (writeSession.leaderPacket); what follows is the
// follower half, shared by the stream hops and the Call-path hops that
// alignment and Recover send.

// resultHopFollower in a request's ResultCode marks a forwarded
// (leader -> follower) hop; requests from clients carry ResultOK.
const resultHopFollower uint8 = 0xF7

// applyFollowerHop applies one forwarded hop to the local store. Both the
// Call-path hops (dispatchPacket) and the streaming session path route
// through here, so the replication apply rules (small-file marker, watermark-checked
// appends, leader-assigned extent creation, epoch fencing) exist exactly
// once. Append hops piggyback the extent's all-replica committed offset,
// which is how a follower learns what its own read clamp may expose
// (Section 2.2.5).
func (p *Partition) applyFollowerHop(pkt *proto.Packet) error {
	if err := p.checkHopEpoch(pkt); err != nil {
		return err
	}
	switch pkt.Op {
	case proto.OpDataCreateExtent:
		return p.store.Create(pkt.ExtentID)
	case proto.OpDataAppend:
		var err error
		if pkt.FileOffset == smallFileMarker {
			err = p.store.SmallFileAt(pkt.ExtentID, pkt.ExtentOffset, pkt.Data)
		} else {
			// Every route here (dispatchPacket, stream followerPacket) ran
			// VerifyCRC on ingest, so the store can fold the verified
			// sum instead of re-scanning the payload.
			err = p.store.AppendAtSum(pkt.ExtentID, pkt.ExtentOffset, pkt.Data, pkt.CRC)
		}
		if err == nil {
			p.advanceCommitted(pkt.ExtentID, pkt.Committed)
		}
		return err
	case proto.OpDataCommitted:
		p.advanceCommitted(pkt.ExtentID, pkt.Committed)
		// The frame's FileOffset slot carries the sender's per-extent
		// overwrite version. An ExtentOffset marker distinguishes plain
		// announcements - the follower self-fences reads until its own
		// Raft apply catches up - from alignment adoption, where the leader
		// just re-shipped its bytes wholesale and the follower's content is
		// current by construction.
		if pkt.ExtentOffset == ovwAdoptMarker {
			p.adoptOvw(pkt.ExtentID, pkt.FileOffset)
		} else {
			p.noteOvwSeen(pkt.ExtentID, pkt.FileOffset)
		}
		// Persist the learned map so a crash-restarted follower on a
		// then-quiescent partition serves reads instead of reloading an
		// empty map - but debounced off the receive path: gossip can
		// arrive per window drain, and a full-map snapshot per frame would
		// put file I/O on the replication loop.
		p.saveCommittedSoon()
		return nil
	case proto.OpDataTruncate:
		// Promotion alignment: shed divergent state the sending leader
		// does not recognize. Hard safety rail regardless of epochs:
		// nothing at or below the locally known committed offset is ever
		// discarded - committed bytes exist on every replica of SOME
		// configuration and may already have been served.
		committed := p.committedOf(pkt.ExtentID)
		if pkt.FileOffset == smallFileMarker {
			// Whole-extent shed (the leader does not know this extent).
			// Only an uncommitted orphan may go; committed bytes here mean
			// the SENDER's extent view is the stale one.
			if committed > 0 {
				return fmt.Errorf("datanode: partition %d: refusing to shed extent %d with %d committed bytes: %w",
					p.ID, pkt.ExtentID, committed, util.ErrStaleEpoch)
			}
			return p.store.Delete(pkt.ExtentID)
		}
		target := pkt.ExtentOffset
		if target < committed {
			target = committed
		}
		return p.store.Truncate(pkt.ExtentID, target)
	default:
		return fmt.Errorf("datanode: op %s is not a replication hop: %w", pkt.Op, util.ErrInvalidArgument)
	}
}

// appendHopPacket builds the leader -> follower hop for an applied append:
// the client's payload and CRC with the leader-assigned extent placement,
// small-file aggregation signalled through the FileOffset marker, the
// extent's current all-replica committed offset piggybacked so followers
// keep their read clamp fresh at zero extra frames, and the leader's
// replica epoch so a deposed leader's hops are fenced off.
func appendHopPacket(partitionID uint64, pkt *proto.Packet, extentID, off uint64, small bool, committed, epoch uint64) *proto.Packet {
	fwd := &proto.Packet{
		Op:           pkt.Op,
		ResultCode:   resultHopFollower,
		ReqID:        pkt.ReqID,
		PartitionID:  partitionID,
		ExtentID:     extentID,
		ExtentOffset: off,
		FileOffset:   pkt.FileOffset,
		Committed:    committed,
		Epoch:        epoch,
		CRC:          pkt.CRC,
		Data:         pkt.Data,
	}
	if small {
		fwd.FileOffset = smallFileMarker
	}
	// The hop aliases pkt.Data; if the payload came off the buffer pool the
	// hop co-owns it (no-op for unpooled unary packets).
	fwd.SharePool(pkt)
	return fwd
}

// createHopPacket builds the leader -> follower hop that replicates a
// leader-assigned extent id.
func createHopPacket(partitionID, reqID, extentID, epoch uint64) *proto.Packet {
	return &proto.Packet{
		Op:          proto.OpDataCreateExtent,
		ResultCode:  resultHopFollower,
		ReqID:       reqID,
		PartitionID: partitionID,
		ExtentID:    extentID,
		Epoch:       epoch,
	}
}

// ovwAdoptMarker in a committed hop's ExtentOffset tells the follower to
// ADOPT the carried overwrite version as its own applied version (alignment
// re-shipped the leader's content), not merely to fence on it.
const ovwAdoptMarker = ^uint64(0)

// smallFileMarker in FileOffset tells a follower hop to use the small-file
// write path (extent created on demand).
const smallFileMarker = ^uint64(0)

// ---------------------------------------------------------------------------
// Overwrite: Raft replication (Figure 5).

// overwriteCmd is the Raft log payload for in-place writes:
// extentID(8) offset(8) data.
func encodeOverwrite(extentID, off uint64, data []byte) []byte {
	buf := make([]byte, 16+len(data))
	binary.BigEndian.PutUint64(buf[0:], extentID)
	binary.BigEndian.PutUint64(buf[8:], off)
	copy(buf[16:], data)
	return buf
}

func decodeOverwrite(cmd []byte) (extentID, off uint64, data []byte, err error) {
	if len(cmd) < 16 {
		return 0, 0, nil, fmt.Errorf("datanode: overwrite cmd of %d bytes: %w", len(cmd), util.ErrInvalidArgument)
	}
	return binary.BigEndian.Uint64(cmd[0:]), binary.BigEndian.Uint64(cmd[8:]), cmd[16:], nil
}

func (p *Partition) handleOverwrite(pkt *proto.Packet) (*proto.Packet, error) {
	if !pkt.VerifyCRC() {
		return pkt.ErrResponse(proto.ResultErrCRC, "payload crc mismatch"), nil
	}
	if pkt.ResultCode == resultHopFollower {
		// Alignment raw-write hop: the leader is re-shipping an extent whose
		// overwrite version trails (content below the watermark, where
		// append alignment never looks). Applied directly to the store,
		// epoch-fenced like every hop; the adopting committed hop that
		// follows marks the content current.
		if err := p.checkHopEpoch(pkt); err != nil {
			return pkt.ErrResponse(hopErrCode(err), err.Error()), nil
		}
		if err := p.store.WriteAt(pkt.ExtentID, pkt.ExtentOffset, pkt.Data); err != nil {
			return pkt.ErrResponse(proto.ResultErrIO, err.Error()), nil
		}
		return pkt.OKResponse(nil), nil
	}
	// Any replica can receive the request, but only the Raft leader can
	// propose; others redirect the client.
	g := p.raftGroup()
	if g == nil || !g.IsLeader() {
		return pkt.ErrResponse(proto.ResultErrNotLeader, "not raft leader"), nil
	}
	ver, err := g.Propose(encodeOverwrite(pkt.ExtentID, pkt.ExtentOffset, pkt.Data))
	if err != nil {
		if errors.Is(err, raft.ErrProposalDropped) || errors.Is(err, raft.ErrNotLeader) {
			// Leadership moved between the check above and the commit. An
			// overwrite is idempotent bytes-at-offset, so the client safely
			// walks on to the new Raft leader and retries there.
			return pkt.ErrResponse(proto.ResultErrNotLeader, err.Error()), nil
		}
		return pkt.ErrResponse(proto.ResultErrIO, err.Error()), nil
	}
	// The ack carries the extent's overwrite version after this write, in
	// the Committed slot: the client stamps it on its reads of the extent,
	// and a replica that has not applied this far refuses them.
	resp := pkt.OKResponse(nil)
	resp.Committed, _ = ver.(uint64)
	return resp, nil
}

// partitionSM applies committed overwrite commands to the extent store.
// One is made per Raft group, so logged shares the group's index space.
//
// Every field is guarded by p.mu.
type partitionSM struct {
	p *Partition
	// logged maps an extent to the highest Raft index at which this replica
	// has logged an overwrite of it (raft.LogObserver); the read fence holds
	// the extent until the group's applied index reaches it.
	logged map[uint64]uint64
	// applied is the index of the last overwrite entry applied: the entries
	// a snapshot's versions count are exactly those at or below it.
	applied uint64
	// trail is what the last snapshot this replica installed said about the
	// extents it trailed: the version each had at index trailAt. Apply
	// checks it at the extent's first overwrite past trailAt.
	trail   map[uint64]uint64
	trailAt uint64
}

// Logged implements raft.LogObserver. A follower logs an overwrite before
// it acks the append, so once the leader can commit it - and ack the
// client - this replica refuses reads of the extent until it has applied
// whatever now sits at index (the same entry, or a leader's replacement).
func (sm *partitionSM) Logged(index uint64, cmd []byte) {
	extentID, _, _, err := decodeOverwrite(cmd)
	if err != nil {
		return
	}
	sm.p.mu.Lock()
	if sm.logged == nil {
		sm.logged = make(map[uint64]uint64)
	}
	if index > sm.logged[extentID] {
		sm.logged[extentID] = index
	}
	sm.p.mu.Unlock()
}

// Apply implements raft.StateMachine. It returns the extent's overwrite
// version after this write, which the leader's ack carries to the client.
func (sm *partitionSM) Apply(index uint64, cmd []byte) (any, error) {
	extentID, off, data, err := decodeOverwrite(cmd)
	if err != nil {
		return nil, err
	}
	if err := sm.p.store.WriteAt(extentID, off, data); err != nil {
		// A replica missing the extent tail cannot apply; surfacing the
		// error fails the proposal on the leader, which is correct: the
		// client retries and recovery realigns the replica.
		return nil, err
	}
	p := sm.p
	p.mu.Lock()
	sm.applied = index
	if want, ok := sm.trail[extentID]; ok && index > sm.trailAt {
		// The snapshot's version counts every overwrite up to trailAt, and
		// this replica has now applied all of them it ever will: short of
		// it, it skipped some, and the content they wrote is missing here.
		if p.ovwApplied[extentID] < want {
			p.ovwSeen[extentID] = ovwDiverged
		}
		delete(sm.trail, extentID)
	}
	// Every replica applies the same Raft log, so the counters agree across
	// replicas for the same applied prefix.
	p.ovwApplied[extentID]++
	ver := p.ovwApplied[extentID]
	if sm.logged[extentID] <= index {
		delete(sm.logged, extentID)
	}
	p.mu.Unlock()
	p.saveCommittedSoon()
	return ver, nil
}

// Snapshot implements raft.StateMachine. A data partition's snapshot is
// its per-extent overwrite versions, as uvarints: the index of the last
// overwrite they count, then (extent id, version) pairs. Extents themselves
// are already on disk, and a replica that falls behind is realigned by the
// primary-backup recovery pass (Section 2.2.5), so the snapshot carries no
// bulk data.
func (sm *partitionSM) Snapshot() ([]byte, error) {
	p := sm.p
	p.mu.Lock()
	defer p.mu.Unlock()
	buf := binary.AppendUvarint(make([]byte, 0, 8+4*len(p.ovwApplied)), sm.applied)
	for id, ver := range p.ovwApplied {
		buf = binary.AppendUvarint(binary.AppendUvarint(buf, id), ver)
	}
	return buf, nil
}

// Restore implements raft.StateMachine. The follower skips the entries
// below the snapshot's index, and the leader re-sends those above it, so
// on each extent whose version it trails it raises the fence (ovwSeen):
// its reads of the extent are refused until re-sent entries bring it level
// - or, if it skipped overwrites of the extent, until an alignment re-ship
// does (Apply marks those extents diverged).
func (sm *partitionSM) Restore(data []byte) error {
	vals := make([]uint64, 0, 1+len(data)/2)
	for len(data) > 0 {
		v, n := binary.Uvarint(data)
		if n <= 0 {
			return fmt.Errorf("datanode: partition %d: bad snapshot: %w", sm.p.ID, util.ErrInvalidArgument)
		}
		vals, data = append(vals, v), data[n:]
	}
	if len(vals)%2 != 1 {
		return fmt.Errorf("datanode: partition %d: bad snapshot: %w", sm.p.ID, util.ErrInvalidArgument)
	}
	p := sm.p
	p.mu.Lock()
	sm.trail, sm.trailAt = make(map[uint64]uint64), vals[0]
	for i := 1; i < len(vals); i += 2 {
		id, ver := vals[i], vals[i+1]
		if p.ovwApplied[id] < ver {
			sm.trail[id] = ver
			p.ovwSeen[id] = max(p.ovwSeen[id], ver)
		}
	}
	p.mu.Unlock()
	p.saveCommittedSoon()
	return nil
}

// ---------------------------------------------------------------------------
// Read (Section 2.7.4).

// admitRead is the one list of read fences: the unary OpDataRead handler
// below and the read stream (readSession.serve) both ask it whether the
// range pkt names may be served: length pkt.FileOffset bytes from
// pkt.ExtentOffset, one request format on both paths. It returns nil, or
// the refusal to send back.
func (p *Partition) admitRead(pkt *proto.Packet) *proto.Packet {
	off, length := pkt.ExtentOffset, pkt.FileOffset
	if length > proto.MaxReadLen {
		return pkt.ErrResponse(proto.ResultErrArg, fmt.Sprintf("read of %d bytes exceeds the %d limit", length, proto.MaxReadLen))
	}
	// Counted before the fences: refusals are served requests too.
	p.node.reads.Add(1)
	// Lease fence: a node whose master-granted lease ran out (missed
	// heartbeats) may be on the losing side of a partition the master has
	// already failed over - it must not keep serving reads to clients that
	// still hold its address.
	if !p.node.readLeaseValid() {
		return pkt.ErrResponse(proto.ResultErrLeaseExpired, "read lease lapsed: node has missed master heartbeats")
	}
	// Epoch fence: a client whose cached view predates (or outruns) a
	// reconfiguration is told to refresh retriably. Unlike the write path
	// this fences nothing durable - it maps a failover observed mid-read
	// onto the client's refresh -> re-dial -> retry path instead of letting
	// it read from a view the master has moved past. Epoch zero (the unary
	// client) passes.
	if err := p.checkClientEpoch(pkt); err != nil {
		return pkt.ErrResponse(proto.ResultErrStaleEpoch, err.Error())
	}
	// Section 2.2.5 invariant: EVERY replica only exposes the offset
	// committed by ALL replicas. The leader's map is authoritative (it
	// advances as windows drain); a follower's is learned from the
	// committed offsets piggybacked on forward hops, gossiped on window
	// drains, and promoted by alignment - so a follower holding a
	// replicated-but-not-yet-committed tail refuses it rather than serving
	// bytes some other replica may be missing. The refusal carries this
	// replica's committed horizon so the client can stop offloading
	// hot-tail reads here until the follower catches up, instead of
	// bouncing off the same clamp on every retry.
	committed := p.committedOf(pkt.ExtentID)
	if end := off + length; end < off || end > committed {
		refusal := pkt.ErrResponse(proto.ResultErrClamped, fmt.Sprintf(
			"read [%d,%d) of extent %d beyond committed offset %d: %v",
			off, end, pkt.ExtentID, committed, util.ErrOutOfRange))
		refusal.Committed = committed
		return refusal
	}
	// Overwrite fence: the committed clamp cannot see in-place writes (they
	// land below the watermark), so a replica that may hold pre-overwrite
	// bytes refuses the whole extent. The request's Committed slot carries
	// the overwrite version its client was acked. Clients fall through to
	// the next replica, ultimately the leader, which applies an overwrite
	// before it acks it.
	if why := p.overwriteFence(pkt.ExtentID, pkt.Committed); why != "" {
		return pkt.ErrResponse(proto.ResultErrIO, why)
	}
	return nil
}

func (p *Partition) handleRead(pkt *proto.Packet) (*proto.Packet, error) {
	if refusal := p.admitRead(pkt); refusal != nil {
		return refusal, nil
	}
	buf, err := p.store.ReadAt(pkt.ExtentID, pkt.ExtentOffset, uint32(pkt.FileOffset))
	if err != nil {
		return pkt.ErrResponse(proto.ResultErrIO, err.Error()), nil
	}
	return pkt.OKResponse(buf), nil
}

// ---------------------------------------------------------------------------
// Delete / punch hole (Sections 2.2.3, 2.7.3).

// handleMarkDelete releases one contiguous run of a removed file's bytes.
// A client sends the run's range; the leader's store alone decides delete
// vs punch (ExtentStore.Release) and forwards what it did - a 0/0 hop
// deletes the extent, any other range punches it - so followers, whose
// stores do not know which extent aggregates small files, never decide.
func (p *Partition) handleMarkDelete(pkt *proto.Packet) (*proto.Packet, error) {
	if len(pkt.Data) < 8 {
		return pkt.ErrResponse(proto.ResultErrArg, "mark-delete request carries no length"), nil
	}
	length := binary.BigEndian.Uint64(pkt.Data)
	if pkt.ResultCode == resultHopFollower {
		// Same fence as every other hop: a deposed leader's delete hops
		// must not reach the store.
		if err := p.checkHopEpoch(pkt); err != nil {
			return pkt.ErrResponse(hopErrCode(err), err.Error()), nil
		}
		var err error
		if pkt.ExtentOffset == 0 && length == 0 {
			err = p.store.Delete(pkt.ExtentID)
		} else {
			err = p.store.PunchHole(pkt.ExtentID, pkt.ExtentOffset, length)
		}
		if err != nil {
			return pkt.ErrResponse(proto.ResultErrIO, err.Error()), nil
		}
		return pkt.OKResponse(nil), nil
	}
	if !p.isLeader() {
		return pkt.ErrResponse(proto.ResultErrNotLeader, "not primary"), nil
	}
	if length == 0 {
		return pkt.ErrResponse(proto.ResultErrArg, "mark-delete of an empty range"), nil
	}
	deleted, err := p.store.Release(pkt.ExtentID, pkt.ExtentOffset, length)
	if err != nil {
		return pkt.ErrResponse(proto.ResultErrIO, err.Error()), nil
	}
	// Deletes are asynchronous and best-effort on followers; a missed
	// delete leaves garbage that the next alignment pass clears.
	fwd := *pkt
	fwd.ResultCode = resultHopFollower
	fwd.Epoch = p.Epoch()
	fwd.Followers = nil
	if deleted {
		fwd.ExtentOffset, fwd.Data = 0, make([]byte, 8)
	}
	for _, f := range p.followers() {
		go func(addr string, pkt proto.Packet) {
			var resp proto.Packet
			_ = p.node.nw.Call(addr, uint8(pkt.Op), &pkt, &resp)
		}(f, fwd)
	}
	return pkt.OKResponse(nil), nil
}

// ---------------------------------------------------------------------------
// Failure recovery (Section 2.2.5): first align extents (primary-backup
// recovery), then let Raft recovery proceed on its own.

// AlignReplicas pushes extent content from this (leader) replica to the
// given follower so that every extent's watermark matches the leader's,
// and - since leaders can now change - sheds follower state this leader
// cannot vouch for first. The only prefix provably shared across
// configurations is the follower's own COMMITTED offset (committed bytes
// were stored identically by every replica of whatever configuration
// committed them, and are never truncated); everything a follower stores
// above it may have been applied under a different leader and can differ
// from ours byte-for-byte even below our own watermark. So each remote
// extent is truncated to its committed offset and re-shipped from there,
// and extents this leader does not know at all are deleted whole (or a
// later leader-assigned id would collide with the orphan). The receiver
// independently clamps both operations at its committed offset, so even a
// stale aligner cannot destroy committed bytes. Returns bytes shipped.
func (p *Partition) AlignReplicas(follower string) (uint64, error) {
	if !p.isLeader() {
		return 0, util.ErrNotLeader
	}
	epoch := p.Epoch()
	var infoResp proto.ExtentInfoResp
	err := p.node.nw.Call(follower, uint8(proto.OpDataExtentInfo),
		&proto.ExtentInfoReq{PartitionID: p.ID}, &infoResp)
	if err != nil {
		return 0, err
	}
	if infoResp.ReplicaEpoch > p.fenceEpoch() {
		// The follower is telling us we are deposed. Abort BEFORE any hop:
		// a fully-caught-up follower set would otherwise let this pass
		// complete hop-free (nothing for the per-hop fence to reject), and
		// Recover would then promote our divergent uncommitted tail to
		// committed - serving wrong bytes to stale-view readers.
		return 0, fmt.Errorf("datanode: partition %d: follower %s at replica epoch %d, local %d: %w",
			p.ID, follower, infoResp.ReplicaEpoch, p.fenceEpoch(), util.ErrStaleEpoch)
	}
	local := make(map[uint64]uint64)
	for _, info := range p.store.Infos() {
		local[info.ID] = info.Size
	}
	remote := make(map[uint64]uint64, len(infoResp.Extents))
	remoteOvw := make(map[uint64]uint64, len(infoResp.Extents))
	shed := false
	for _, e := range infoResp.Extents {
		remote[e.ID] = e.Size
		remoteOvw[e.ID] = e.OverwriteVer
		_, known := local[e.ID]
		safe := util.MinU64(e.Committed, e.Size) // the provably shared prefix
		if known && e.Size <= safe {
			continue // nothing above the committed prefix; ship-only
		}
		fix := &proto.Packet{
			Op:           proto.OpDataTruncate,
			ResultCode:   resultHopFollower,
			PartitionID:  p.ID,
			ExtentID:     e.ID,
			ExtentOffset: safe,
			Epoch:        epoch,
		}
		if !known {
			// Whole-extent shed (the marker selects delete). The receiver
			// refuses if it holds committed bytes for the extent - that
			// means WE are the stale side, and failing the pass loudly
			// beats destroying data.
			fix.FileOffset = smallFileMarker
		}
		if err := p.alignHop(follower, fix, "datanode: shed divergent extent %d on %s", e.ID, follower); err != nil {
			return 0, err
		}
		shed = true
	}
	if shed {
		// A truncation stops at the follower's committed offset when it
		// arrives, which a committed-offset gossip still in flight may have
		// raised past the one reported above: ship from what it kept.
		var kept proto.ExtentInfoResp
		if err := p.node.nw.Call(follower, uint8(proto.OpDataExtentInfo),
			&proto.ExtentInfoReq{PartitionID: p.ID}, &kept); err != nil {
			return 0, err
		}
		clear(remote)
		for _, e := range kept.Extents {
			remote[e.ID] = e.Size
		}
	}
	var shipped uint64
	for _, info := range p.store.Infos() {
		// Align to the leader's local watermark. A tail past the old
		// committed offset is "stale data" in the paper's sense - never
		// served to clients - but alignment may legitimately promote it:
		// once every replica stores it, it is committed by definition.
		target := info.Size
		have, exists := remote[info.ID]
		if !exists && target > 0 {
			// The follower does not have the extent at all - a replica
			// that missed the create hop, or one re-created empty after
			// losing its disk. Create it first; AppendAt never does.
			if err := p.alignHop(follower, createHopPacket(p.ID, 0, info.ID, epoch),
				"datanode: align create extent %d on %s", info.ID, follower); err != nil {
				return shipped, err
			}
		}
		for have < target {
			chunk := util.MinU64(target-have, 128*util.KB)
			data, err := p.store.ReadAt(info.ID, have, uint32(chunk))
			if err != nil {
				return shipped, err
			}
			pkt := &proto.Packet{
				Op:           proto.OpDataAppend,
				ResultCode:   resultHopFollower,
				PartitionID:  p.ID,
				ExtentID:     info.ID,
				ExtentOffset: have,
				Epoch:        epoch,
				// Carry the CURRENT committed offset only. Aligning one
				// follower must not promote its read clamp to the shipped
				// watermark - other followers may still be missing these
				// bytes (a partial Recover run), and "committed by
				// definition" only holds once EVERY follower is aligned,
				// which is when Recover advances and pushes the offsets.
				Committed: p.committedOf(info.ID),
				CRC:       util.CRC(data),
				Data:      data,
			}
			if err := p.alignHop(follower, pkt, "datanode: align extent %d", info.ID); err != nil {
				return shipped, err
			}
			have += chunk
			shipped += chunk
		}
	}
	// Overwrite healing: in-place writes land BELOW the watermark, where the
	// append alignment above never looks - a follower that missed overwrites
	// (down past Raft log compaction, or re-created empty) can match the
	// leader's size byte-for-different-bytes. Any extent whose reported
	// overwrite version trails the leader's gets its full content re-shipped
	// as raw epoch-fenced writes, then an adopting committed hop marks the
	// follower current so its read fence lifts.
	for _, info := range p.store.Infos() {
		ovw := p.ovwAppliedOf(info.ID)
		if ovw == 0 || remoteOvw[info.ID] >= ovw {
			continue
		}
		for off := uint64(0); off < info.Size; {
			chunk := util.MinU64(info.Size-off, 128*util.KB)
			data, err := p.store.ReadAt(info.ID, off, uint32(chunk))
			if err != nil {
				return shipped, err
			}
			raw := &proto.Packet{
				Op:           proto.OpDataOverwrite,
				ResultCode:   resultHopFollower,
				PartitionID:  p.ID,
				ExtentID:     info.ID,
				ExtentOffset: off,
				Epoch:        epoch,
				CRC:          util.CRC(data),
				Data:         data,
			}
			if err := p.alignHop(follower, raw, "datanode: overwrite-heal extent %d on %s", info.ID, follower); err != nil {
				return shipped, err
			}
			off += chunk
			shipped += chunk
		}
		adopt := committedHopPacket(p.ID, info.ID, p.committedOf(info.ID), epoch, ovw)
		adopt.ExtentOffset = ovwAdoptMarker
		if err := p.alignHop(follower, adopt, "datanode: overwrite-adopt extent %d on %s", info.ID, follower); err != nil {
			return shipped, err
		}
	}
	return shipped, nil
}

// alignHop sends one alignment hop to follower. A reply that is not OK
// fails the pass: the error is what (a format, with args) and then the
// reply's text.
func (p *Partition) alignHop(follower string, hop *proto.Packet, what string, args ...any) error {
	var resp proto.Packet
	if err := p.node.nw.Call(follower, uint8(hop.Op), hop, &resp); err != nil {
		return err
	}
	if resp.ResultCode != proto.ResultOK {
		return fmt.Errorf(what+": %s", append(args, resp.Data)...)
	}
	return nil
}

// Recover runs the full failure-recovery sequence of Section 2.2.5 on the
// leader: first the primary-backup pass aligns every follower's extents,
// then the committed offsets advance to the aligned watermark (Raft
// recovery for the overwrite path proceeds on its own through snapshot
// installation) and are persisted. Returns total bytes shipped.
func (p *Partition) Recover() (uint64, error) {
	if !p.isLeader() {
		return 0, util.ErrNotLeader
	}
	if !p.beginRecover() {
		// Live traffic maintains its own committed frontier, and
		// promoting a live window's un-acked tail would serve bytes no
		// follower acked. Surface the skip (ErrBusy) so callers retry at
		// a quiet moment instead of mistaking it for a completed pass.
		return 0, fmt.Errorf("datanode: partition %d has live writers: %w", p.ID, util.ErrBusy)
	}
	defer p.endRecover()
	var shipped uint64
	for _, f := range p.followers() {
		n, err := p.AlignReplicas(f)
		shipped += n
		if err != nil {
			return shipped, err
		}
	}
	infos := p.store.Infos()
	for _, info := range infos {
		p.advanceCommitted(info.ID, info.Size)
	}
	// Alignment hops only reach followers that were MISSING bytes; a
	// follower that already stored the full tail (it applied the forward
	// before the session aborted) never sees one, so push the promoted
	// offsets explicitly (best-effort) or its read clamp stays at the
	// pre-failure value forever.
	epoch := p.Epoch()
	for _, f := range p.followers() {
		for _, info := range infos {
			upd := committedHopPacket(p.ID, info.ID, p.committedOf(info.ID), epoch, p.ovwAppliedOf(info.ID))
			var resp proto.Packet
			_ = p.node.nw.Call(f, uint8(proto.OpDataCommitted), upd, &resp)
		}
	}
	_ = p.saveCommitted()
	return shipped, nil
}

func (p *Partition) handleExtentInfo(req *proto.ExtentInfoReq) (*proto.ExtentInfoResp, error) {
	infos := p.store.Infos()
	out := &proto.ExtentInfoResp{
		Extents:      make([]proto.ExtentSummary, len(infos)),
		ReplicaEpoch: p.fenceEpoch(),
	}
	for i, e := range infos {
		out.Extents[i] = proto.ExtentSummary{
			ID: e.ID, Size: e.Size, CRC: e.CRC, Holed: e.Holed,
			Committed:    p.committedOf(e.ID),
			OverwriteVer: p.ovwAppliedOf(e.ID),
		}
	}
	return out, nil
}

// adoptFollowerCommitted pulls each follower's learned committed map and
// merges it in (monotonic max). Unlike the full Recover pass this is safe
// against live traffic - a SAME-EPOCH follower only ever learns offsets
// this leader had committed - so a crash-restarted leader whose own
// snapshot lags can re-serve bytes it acked before the crash without
// waiting for a quiet moment. Followers at a NEWER epoch are skipped: they
// belong to a configuration that committed bytes this replica may not even
// store (a deposed leader restarting on a stale partition.json would
// otherwise mark its own divergent tail committed and serve wrong data).
// Best-effort per follower.
func (p *Partition) adoptFollowerCommitted() {
	if !p.isLeader() {
		return
	}
	myEpoch := p.fenceEpoch()
	for _, f := range p.followers() {
		var resp proto.ExtentInfoResp
		if err := p.node.nw.Call(f, uint8(proto.OpDataExtentInfo),
			&proto.ExtentInfoReq{PartitionID: p.ID}, &resp); err != nil {
			continue
		}
		if resp.ReplicaEpoch > myEpoch {
			continue // we are the deposed one; adoption is poison here
		}
		for _, e := range resp.Extents {
			p.advanceCommitted(e.ID, e.Committed)
		}
	}
	p.saveCommittedSoon()
}

func (p *Partition) reportFailure(addr string) {
	go func() {
		_ = p.node.nw.Call(p.node.masterAddr, uint8(proto.OpMasterReportFailure),
			&proto.ReportFailureReq{PartitionID: p.ID, Addr: addr}, nil)
	}()
}
