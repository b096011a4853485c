package datanode

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"cfs/internal/proto"
	"cfs/internal/util"
)

// Partition lifecycle persistence (ROADMAP "committed-offset durability"):
// two small JSON files live next to the extent files in each partition
// directory (the extent store only touches ext_* names).
//
//   - partition.json records what the master assigned - id, volume,
//     members, capacity - so a restarted node can re-host its partitions
//     without waiting for the master to re-issue create tasks.
//   - committed.json snapshots the per-extent all-replica committed
//     offsets, written on clean shutdown and after every Recover. The
//     snapshot may lag a crash; that only under-reports (reads of the gap
//     are refused until the leader's recovery pass or gossip re-advances
//     it), never serves uncommitted bytes, so staleness is safe.

const (
	partitionMetaName = "partition.json"
	committedName     = "committed.json"
)

// partitionMeta is the durable identity of a hosted partition.
type partitionMeta struct {
	ID       uint64
	Volume   string
	Members  []string
	Capacity uint64
	// ReplicaEpoch survives restarts so a crashed replica comes back
	// knowing how recent its view of Members is; zero (pre-epoch files)
	// loads as 1. A deposed leader restarting on a stale file is still
	// fenced by its followers' newer epochs until the master re-attaches
	// it under the current one.
	ReplicaEpoch uint64
	// Promoting persists the promotion write-gate: a leader that crashes
	// between its promotion and the completing alignment pass must come
	// back gated, or clients could bind before the divergence its
	// predecessor left behind is shed.
	Promoting bool
}

// committedEntry is one extent's persisted committed offset plus its
// overwrite-version pair (applied locally / known to exist). Persisting
// BOTH keeps the fence consistent across a restart: reloading a seen
// version without the matching applied one would self-fence a replica
// whose on-disk content is in fact current.
type committedEntry struct {
	ExtentID   uint64
	Committed  uint64
	OvwApplied uint64 `json:",omitempty"`
	OvwSeen    uint64 `json:",omitempty"`
}

func (p *Partition) saveMeta() error {
	p.mu.Lock()
	meta := partitionMeta{
		ID: p.ID, Volume: p.Volume,
		Members:      append([]string(nil), p.Members...),
		Capacity:     p.Capacity,
		ReplicaEpoch: p.epoch,
		Promoting:    p.promoting,
	}
	p.mu.Unlock()
	data, err := json.Marshal(meta)
	if err != nil {
		return err
	}
	return util.WriteFileAtomic(filepath.Join(p.dir, partitionMetaName), data)
}

// saveDebounce is the trailing-edge delay for saveCommittedSoon: bursts
// of gossip collapse into one snapshot, and the last update in a burst is
// always persisted within this bound (a crash loses at most this window,
// which only under-reports - the safe direction).
const saveDebounce = 500 * time.Millisecond

// saveCommittedSoon schedules a debounced committed snapshot off the
// caller's (hot) path. No-op once the partition is closing - a stale
// timer must never overwrite the final snapshot Close writes (or one a
// restarted instance already wrote to the same directory).
func (p *Partition) saveCommittedSoon() {
	p.saveMu.Lock()
	if p.savePending || p.saveStopped {
		p.saveMu.Unlock()
		return
	}
	p.savePending = true
	p.saveMu.Unlock()
	time.AfterFunc(saveDebounce, func() {
		p.saveMu.Lock()
		p.savePending = false
		stopped := p.saveStopped
		p.saveMu.Unlock()
		if stopped {
			return
		}
		_ = p.saveCommitted()
	})
}

// stopSaves fences the debounced saver ahead of the partition's final
// synchronous snapshot at shutdown.
func (p *Partition) stopSaves() {
	p.saveMu.Lock()
	p.saveStopped = true
	p.saveMu.Unlock()
}

// saveCommitted snapshots the committed map. Called on clean shutdown,
// after Recover, and (debounced) when gossip advances a follower's map;
// between snapshots the map lives in memory only.
func (p *Partition) saveCommitted() error {
	p.mu.Lock()
	ids := make(map[uint64]struct{}, len(p.committed)+len(p.ovwApplied))
	for id := range p.committed {
		ids[id] = struct{}{}
	}
	for id := range p.ovwApplied {
		ids[id] = struct{}{}
	}
	for id := range p.ovwSeen {
		ids[id] = struct{}{}
	}
	entries := make([]committedEntry, 0, len(ids))
	for id := range ids {
		entries = append(entries, committedEntry{
			ExtentID:   id,
			Committed:  p.committed[id],
			OvwApplied: p.ovwApplied[id],
			OvwSeen:    p.ovwSeen[id],
		})
	}
	p.mu.Unlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].ExtentID < entries[j].ExtentID })
	data, err := json.Marshal(entries)
	if err != nil {
		return err
	}
	return util.WriteFileAtomic(filepath.Join(p.dir, committedName), data)
}

// loadCommitted merges a persisted snapshot into the committed map (a
// monotonic max, so replaying an old snapshot can never un-commit bytes).
func (p *Partition) loadCommitted() error {
	data, err := os.ReadFile(filepath.Join(p.dir, committedName))
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	var entries []committedEntry
	if err := json.Unmarshal(data, &entries); err != nil {
		// Corrupt snapshot: discard it rather than refuse to boot. A
		// missing/stale committed map only under-reports (reads of the
		// gap are refused until the leader's recovery pass or gossip
		// re-advances it); a node that cannot start serves nothing at all.
		return nil
	}
	for _, e := range entries {
		p.advanceCommitted(e.ExtentID, e.Committed)
		p.adoptOvw(e.ExtentID, e.OvwApplied)
		p.noteOvwSeen(e.ExtentID, e.OvwSeen)
	}
	return nil
}

// scanPartitionDirs returns the create requests persisted under dir, one
// per dp_* subdirectory with a readable partition.json, plus the set of
// partitions whose promotion write-gate was held when the node went down.
func scanPartitionDirs(dir string) ([]*proto.CreateDataPartitionReq, map[uint64]bool, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	var reqs []*proto.CreateDataPartitionReq
	promoting := make(map[uint64]bool)
	for _, e := range entries {
		if !e.IsDir() || !strings.HasPrefix(e.Name(), "dp_") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name(), partitionMetaName))
		if err != nil {
			continue // pre-persistence directory or torn create; skip
		}
		var meta partitionMeta
		if err := json.Unmarshal(data, &meta); err != nil {
			continue
		}
		reqs = append(reqs, &proto.CreateDataPartitionReq{
			PartitionID:  meta.ID,
			Volume:       meta.Volume,
			Capacity:     meta.Capacity,
			Members:      meta.Members,
			ReplicaEpoch: meta.ReplicaEpoch,
		})
		if meta.Promoting {
			promoting[meta.ID] = true
		}
	}
	sort.Slice(reqs, func(i, j int) bool { return reqs[i].PartitionID < reqs[j].PartitionID })
	return reqs, promoting, nil
}
