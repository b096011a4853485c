package main

import (
	"cfs/internal/proto"
)

// layerDef declares one per-layer metric: its unit and which way is better.
// BENCHMARK.json's per_layer list is generated from (and tested against)
// this table plus probeDecl.
type layerDef struct {
	name   string
	unit   string
	better string
}

// layerDecl lists every per-layer metric a traced run reports. README.md
// says, for each, which end-to-end metric it should move.
var layerDecl = append([]layerDef{
	// core+client self time per root kind: root span minus the union of
	// its child spans.
	{"core.self_us.create", "us", "lower"},
	{"core.self_us.stat", "us", "lower"},
	{"core.self_us.remove", "us", "lower"},
	{"core.self_us.randread", "us", "lower"},
	{"core.self_us.randwrite", "us", "lower"},
	{"core.self_us.smallfile_write", "us", "lower"},
	// RPC counts per core call.
	{"client.meta_rpcs_per_create", "count", "lower"},
	{"client.meta_rpcs_per_stat", "count", "lower"},
	{"client.meta_rpcs_per_remove", "count", "lower"},
	{"client.meta_rpcs_per_smallfile_write", "count", "lower"},
	{"client.data_rpcs_per_smallfile_write", "count", "lower"},
	{"client.master_rpcs", "count", "lower"},
	// RPC latency as the client saw it.
	{"client.meta_rpc_us.p50", "us", "lower"},
	{"client.meta_rpc_us.p99", "us", "lower"},
	{"client.data_rpc_us.p50", "us", "lower"},
	{"client.data_rpc_us.p99", "us", "lower"},
	// Streams.
	{"client.stream_dials", "count", "lower"},
	{"client.stream_frames_per_mib", "count", "lower"},
	{"client.write_ack_us", "us", "lower"},
	{"client.read_first_chunk_us", "us", "lower"},
	{"client.rpc_retry_ratio", "ratio", "lower"},
	// Metanode.
	{"meta.handle_us.mutate", "us", "lower"},
	{"meta.handle_us.read", "us", "lower"},
	{"meta.busy_share", "ratio", "lower"},
	// Datanode.
	{"datanode.handle_us.read", "us", "lower"},
	{"datanode.handle_us.overwrite", "us", "lower"},
	{"datanode.handle_us.smallfile", "us", "lower"},
	{"datanode.repl_hop_us", "us", "lower"},
	{"datanode.busy_share", "ratio", "lower"},
	{"datanode.leader_read_share", "ratio", "lower"},
	// Raft, counted on the wire.
	{"raft.msgs_per_commit", "count", "lower"},
	{"raft.bytes_per_commit", "B", "lower"},
	{"raft.batch_msgs", "count", "higher"},
	// Amplification.
	{"transport.wire_bytes_per_user_byte", "ratio", "lower"},
	{"transport.read_wire_bytes_per_user_byte", "ratio", "lower"},
	{"storage.disk_bytes_per_user_byte", "ratio", "lower"},
	// Process cost over the unrecorded cycles.
	{"proc.peak_rss_mb", "MiB", "lower"},
	{"proc.cpu_s_per_gib", "s", "lower"},
	{"proc.cpu_us_per_op", "us", "lower"},
	{"proc.allocs_per_op", "count", "lower"},
	{"proc.alloc_kb_per_op", "KiB", "lower"},
	{"proc.gc_pause_ms", "ms", "lower"},
	// Recorded over unrecorded throughput, the worse of the two phases.
	{"trace.overhead_ratio", "ratio", "higher"},
	// The issue's workload-specific names, from the unrecorded cycles.
	{"e2e.create_ops_s", "1/s", "higher"},
	{"e2e.stat_ops_s", "1/s", "higher"},
	{"e2e.readdir_entries_s", "1/s", "higher"},
	{"e2e.remove_ops_s", "1/s", "higher"},
	{"e2e.create_p99_ms", "ms", "lower"},
	{"e2e.write_mb_s", "MiB/s", "higher"},
	{"e2e.read_mb_s", "MiB/s", "higher"},
	{"e2e.randread_iops", "1/s", "higher"},
	{"e2e.randwrite_iops", "1/s", "higher"},
	{"e2e.randwrite_p99_ms", "ms", "lower"},
	{"e2e.smallfile_write_ops_s", "1/s", "higher"},
	{"e2e.smallfile_read_ops_s", "1/s", "higher"},
}, probeDecl...)

// layerUnit maps every declared per-layer metric to its unit.
var layerUnit = func() map[string]string {
	m := make(map[string]string, len(layerDecl))
	for _, d := range layerDecl {
		m[d.name] = d.unit
	}
	return m
}()

// setLayer files v under a declared per-layer name; an undeclared name is a
// bug in the benchmark.
func setLayer(out map[string]metricValue, name string, v float64) {
	unit, ok := layerUnit[name]
	if !ok {
		panic("undeclared layer metric " + name)
	}
	out[name] = metricValue{v, unit}
}

func metaMutates(op proto.Op) bool {
	switch op {
	case proto.OpMetaCreateInode, proto.OpMetaUnlinkInode, proto.OpMetaEvictInode, proto.OpMetaLinkInode,
		proto.OpMetaCreateDentry, proto.OpMetaDeleteDentry, proto.OpMetaUpdateDentry,
		proto.OpMetaSetAttr, proto.OpMetaAppendExtentKeys:
		return true
	}
	return false
}

func metaReads(op proto.Op) bool {
	switch op {
	case proto.OpMetaLookup, proto.OpMetaInodeGet, proto.OpMetaBatchInodeGet, proto.OpMetaReadDir:
		return true
	}
	return false
}

// Nominal size of a message whose encoding the wrapper cannot see: gob
// control messages and the Raft batch envelope. Packets are counted exactly.
const gobNominalBytes = 64

// layerMetrics derives the per-layer numbers from the recorded spans and
// the per-cycle process snapshots.
func layerMetrics(out map[string]metricValue, tr *tracer, wl *workload, cycles []*cycleStats) {
	set := func(name string, v float64) { setLayer(out, name, v) }
	med := func(v []float64, name string) {
		if len(v) > 0 {
			set(name, median(v))
		}
	}

	// Wall time and user bytes of the recorded cycles.
	var recWall, recBytes, recCycles float64
	for _, c := range cycles {
		if !c.traced {
			continue
		}
		recCycles++
		for _, ps := range c.phases {
			recWall += ps.wall.Seconds()
			recBytes += float64(ps.bytes)
		}
	}

	for _, kind := range []string{"create", "stat", "remove", "randread", "randwrite", "smallfile_write"} {
		med(tr.selfTimes(kind), "core.self_us."+kind)
	}

	// Client side: what each mount sent, grouped under its root spans.
	type rootAgg struct{ roots, meta, data float64 }
	byRoot := map[uint8]*rootAgg{}
	var metaRPC, dataRPC, writeAck, firstChunk []float64
	var clientSpans, clientFails, dials, masterRPCs, clientFrames float64
	for _, sh := range tr.shards {
		if sh.role != roleClient {
			continue
		}
		for i := range sh.spans {
			sp := &sh.spans[i]
			if sp.kind == spanRoot {
				if byRoot[sp.name] == nil {
					byRoot[sp.name] = &rootAgg{}
				}
				byRoot[sp.name].roots++
				continue
			}
			if sp.phase == 0 {
				continue // background traffic between phases
			}
			if sp.kind == spanDial {
				dials++
				continue
			}
			clientSpans++
			if sp.fail {
				clientFails++
			}
			var agg *rootAgg
			if sp.parent >= 0 {
				agg = byRoot[sh.spans[sp.parent].name]
			}
			switch {
			case sp.kind == spanCall && sp.peer == roleMeta:
				metaRPC = append(metaRPC, durUS(sp))
				if agg != nil {
					agg.meta++
				}
			case sp.kind == spanCall && sp.peer == roleData:
				dataRPC = append(dataRPC, durUS(sp))
				if agg != nil {
					agg.data++
				}
			case sp.kind == spanCall && sp.peer == roleMaster:
				masterRPCs++
			case sp.kind == spanFrame:
				clientFrames++
				if agg != nil {
					agg.data++
				}
				switch proto.Op(sp.op) {
				case proto.OpDataAppend:
					writeAck = append(writeAck, durUS(sp))
				case proto.OpDataRead:
					firstChunk = append(firstChunk, durUS(sp))
				}
			}
		}
	}
	perRoot := func(kind string, f func(*rootAgg) float64, name string) {
		if id, ok := tr.byName[kind]; ok {
			if a := byRoot[id]; a != nil && a.roots > 0 {
				set(name, f(a)/a.roots)
			}
		}
	}
	for _, kind := range []string{"create", "stat", "remove", "smallfile_write"} {
		perRoot(kind, func(a *rootAgg) float64 { return a.meta }, "client.meta_rpcs_per_"+kind)
	}
	perRoot("smallfile_write", func(a *rootAgg) float64 { return a.data }, "client.data_rpcs_per_smallfile_write")
	set("client.master_rpcs", masterRPCs)
	if len(metaRPC) > 0 {
		set("client.meta_rpc_us.p50", percentile(metaRPC, 0.5))
		set("client.meta_rpc_us.p99", percentile(metaRPC, 0.99))
	}
	if len(dataRPC) > 0 {
		set("client.data_rpc_us.p50", percentile(dataRPC, 0.5))
		set("client.data_rpc_us.p99", percentile(dataRPC, 0.99))
	}
	if recCycles > 0 {
		set("client.stream_dials", dials/recCycles)
	}
	if recBytes > 0 {
		set("client.stream_frames_per_mib", clientFrames/(recBytes/(1<<20)))
	}
	med(writeAck, "client.write_ack_us")
	med(firstChunk, "client.read_first_chunk_us")
	if clientSpans > 0 {
		set("client.rpc_retry_ratio", clientFails/clientSpans)
	}

	// Server side, attributed to the running phase.
	var metaMut, metaRead, dnRead, dnOvw, dnSmall, replHop []float64
	var metaBusy, dataBusy, reads, leaderReads float64
	var raftMsgs, raftBytes, raftBatches, commits float64
	tr.each(func(sh *shard, sp *span) {
		if sp.phase == 0 || sp.end <= sp.start {
			return
		}
		op := proto.Op(sp.op)
		switch {
		case sp.kind == spanRaft:
			if sp.aux > 0 {
				raftMsgs += float64(sp.aux)
				raftBytes += float64(sp.bytes) + gobNominalBytes
				raftBatches++
			}
		case sp.kind == spanHandle && sh.role == roleMeta && op != proto.OpRaftMessage:
			metaBusy += durUS(sp)
			if metaMutates(op) {
				metaMut = append(metaMut, durUS(sp))
				if !sp.fail {
					commits++
				}
			} else if metaReads(op) {
				metaRead = append(metaRead, durUS(sp))
			}
		case sp.kind == spanHandle && sh.role == roleData && op != proto.OpRaftMessage:
			dataBusy += durUS(sp)
			switch {
			case op == proto.OpDataRead:
				dnRead = append(dnRead, durUS(sp))
				reads++
				if sp.leader {
					leaderReads++
				}
			case op == proto.OpDataOverwrite:
				dnOvw = append(dnOvw, durUS(sp))
				if !sp.fail {
					commits++
				}
			case op == proto.OpDataAppend && sp.aux == 1 && sp.leader:
				dnSmall = append(dnSmall, durUS(sp))
			}
		case sp.kind == spanFrame && sh.role == roleData && op == proto.OpDataAppend:
			replHop = append(replHop, durUS(sp))
		}
	})
	med(metaMut, "meta.handle_us.mutate")
	med(metaRead, "meta.handle_us.read")
	med(dnRead, "datanode.handle_us.read")
	med(dnOvw, "datanode.handle_us.overwrite")
	med(dnSmall, "datanode.handle_us.smallfile")
	med(replHop, "datanode.repl_hop_us")
	if recWall > 0 {
		set("meta.busy_share", metaBusy/1e6/(recWall*numMetaNodes))
		set("datanode.busy_share", dataBusy/1e6/(recWall*numDataNodes))
	}
	if reads > 0 {
		set("datanode.leader_read_share", leaderReads/reads)
	}
	if commits > 0 {
		set("raft.msgs_per_commit", raftMsgs/commits)
		set("raft.bytes_per_commit", raftBytes/commits)
	}
	if raftBatches > 0 {
		set("raft.batch_msgs", raftMsgs/raftBatches)
	}

	// Amplification: bytes handed to the wire in the workload's write and
	// read phases over the user bytes those phases moved.
	amp := func(phase, name string) {
		id, ok := tr.byName[phase]
		if !ok {
			return
		}
		var user float64
		for _, c := range cycles {
			if ps := c.phases[phase]; c.traced && ps != nil {
				user += float64(ps.bytes)
			}
		}
		if user > 0 {
			set(name, float64(tr.wire[id].Load())/user)
		}
	}
	amp(wl.writePhase, "transport.wire_bytes_per_user_byte")
	amp(wl.readPhase, "transport.read_wire_bytes_per_user_byte")
	var disk []float64
	for _, c := range cycles {
		if c.diskRatio > 0 {
			disk = append(disk, c.diskRatio)
		}
	}
	med(disk, "storage.disk_bytes_per_user_byte")

	// Process cost, from the unrecorded cycles only, so span bookkeeping
	// is not charged to the product.
	var cpu, mallocs, allocB, pause, ops, bytes float64
	for _, c := range cycles {
		if c.traced {
			continue
		}
		cpu += c.procAfter.cpu - c.procBefore.cpu
		mallocs += float64(c.procAfter.mallocs - c.procBefore.mallocs)
		allocB += float64(c.procAfter.allocBytes - c.procBefore.allocBytes)
		pause += float64(c.procAfter.gcPauseNS - c.procBefore.gcPauseNS)
		for _, ps := range c.phases {
			ops += float64(ps.ops)
			bytes += float64(ps.bytes)
		}
	}
	set("proc.peak_rss_mb", peakRSSMiB())
	if bytes > 0 {
		set("proc.cpu_s_per_gib", cpu/(bytes/(1<<30)))
	}
	if ops > 0 {
		set("proc.cpu_us_per_op", cpu*1e6/ops)
		set("proc.allocs_per_op", mallocs/ops)
		set("proc.alloc_kb_per_op", allocB/1024/ops)
	}
	set("proc.gc_pause_ms", pause/1e6)

	// Tracing overhead: recorded over unrecorded throughput of the same
	// run, the worse of the write and the read phase.
	ratio := 0.0
	for _, phase := range []string{wl.writePhase, wl.readPhase} {
		on := midmean(series(cycles, true, phase, opsPerSec))
		off := midmean(series(cycles, false, phase, opsPerSec))
		if off > 0 && (ratio == 0 || on/off < ratio) {
			ratio = on / off
		}
	}
	set("trace.overhead_ratio", ratio)
}
