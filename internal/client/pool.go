package client

import (
	"fmt"

	"cfs/internal/proto"
	"cfs/internal/util"
)

// The write user of the session engine (transport.Session): one pinned
// OpDataWriteStream per partition leader, shared by every ExtentWriter the
// client opens on that partition - extent creates, appends and small-file
// writes all multiplex over it. One ack frame completes one in-flight
// packet and frees a slot of its writer's window (ExtentWriter.handleAck).
//
// Per-sequence error acks (CRC reject, extent full, read-only) poison only
// the owning writer; the session and its other writers are fine. A
// ResultErrAborted ack is session-fatal on top of the engine's own list:
// the server aborted the whole session, so its remaining acks are all
// rejections.

// writeSession returns dp's pooled replication session, keyed by partition
// and pinned to the leader and replica epoch the view names: when either
// moves, the pool retires the session and writers still on it replay
// their tails on the replacement.
func (d *DataClient) writeSession(dp proto.DataPartitionInfo) (*session, error) {
	if len(dp.Members) == 0 {
		return nil, fmt.Errorf("client: data partition %d has no members: %w", dp.PartitionID, util.ErrNoAvailableNode)
	}
	return d.pool.get(dp.PartitionID, sessionPin{addr: dp.Members[0], epoch: dp.ReplicaEpoch, pid: dp.PartitionID})
}

// Reply implements transport.Request: the one ack a packet gets.
func (sp *streamPkt) Reply(ack *proto.Packet) (bool, error) {
	sp.w.handleAck(sp, ack)
	if ack.ResultCode == proto.ResultErrAborted {
		// Fail fast and let every writer on the session replay.
		return true, fmt.Errorf("session aborted by server: %s: %w", ack.Data, util.ErrTimeout)
	}
	return true, nil
}

// Abort implements transport.Request: the session died under the writer (transport
// error, ack deadline, server abort). The packet stays in the writer's
// window so Drain reports it for replay; packets whose acks were lost are
// over-reported as uncommitted, which is safe - the old extent's copy
// just becomes unreferenced bytes.
func (sp *streamPkt) Abort(err error) { sp.w.fail(err) }
