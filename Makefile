GO ?= go

# Per-package test timeouts: a wedged replication session (the bug family
# this codebase's liveness deadlines exist to prevent) must fail the run
# in minutes, not hang it until the CI job limit.
TEST_TIMEOUT ?= 120s
RACE_TIMEOUT ?= 300s

.PHONY: all build test vet fmt-check fmt bench bench-smoke bench-pairs loc fuzz race race-raft race-failover race-reconfig race-read stress verify check

all: verify

# Tier-1 verify: what CI runs and what every PR must keep green.
verify: build vet fmt-check test

# check is the pre-push gate; alias of verify so the two can never diverge.
check: verify

build:
	$(GO) build ./...

test:
	$(GO) test -timeout $(TEST_TIMEOUT) ./...

vet:
	$(GO) vet ./...

# Race detector over the whole tree; the pipelined write path is heavily
# concurrent (window acks, forward chains, session watchdogs), so this
# must stay clean.
race:
	$(GO) test -race -timeout $(RACE_TIMEOUT) ./...

# The named -race suites. Each regex lives HERE and only here; CI calls the
# targets, so the two cannot drift. They run first and by name so a hang
# fails fast and identifiably under the per-package timeout instead of
# hiding inside the full run.

# The consensus stack, whole packages, twenty times: the lane's senders,
# the heartbeat clock and every group's event loop interleave differently
# on each run, and an election or conf-change test that passes "usually" is
# a bug.
race-raft:
	$(GO) test -race -count=20 -timeout $(RACE_TIMEOUT) \
		./internal/raft/ ./internal/multiraft/ ./internal/raftstore/

# Failover/epoch: a promotion hang or a wedged recovery pass; and leaders
# that must NOT fail over, under two concurrent overwriters.
race-failover:
	$(GO) test -race -timeout $(RACE_TIMEOUT) \
		-run 'Failover|Reattach|StaleEpoch|TargetedRecover|ShedsDivergent|Debounced|MembershipLifecycle|ConcurrentOverwritersKeepLeaders' \
		./internal/master/ ./internal/datanode/ ./internal/core/

# Reconfiguration: membership ConfChanges, replacement placement,
# deposed-leader fencing, read leases, the liveness deadlines and the
# follower overwrite fence all interleave Raft applies with the master's
# maintenance scans, which is exactly where a data race would split the
# "one view" invariant.
race-reconfig:
	$(GO) test -race -timeout $(RACE_TIMEOUT) \
		-run 'ConfChange|RemovedNode|MetaLeaderFailover|Replacement|DeposedMeta|ReadLease|Liveness|OverwriteFence|OverwriteVersionGossip|HealsOverwrite|OverwriteLostLeadership|MembershipLifecycle' \
		./internal/raft/ ./internal/master/ ./internal/datanode/

# Read path and the client session engine: a hung read session, a window
# that admits too much or too little, a readahead depth that ignores the
# round trip, a broken offload fallback, a read fence the two read paths
# disagree on, or a watchdog that a wedged sender can block.
race-read:
	$(GO) test -race -timeout $(RACE_TIMEOUT) \
		-run 'ReadStream|StreamRead|StreamedRead|OffloadOrder|WindowBounds|ZeroConfigWindows|ReadDepth|ReadAdmission|ShortReadPacket|SessionEngine|MountRejects|WriteChunkPool' \
		./internal/datanode/ ./internal/client/ ./internal/core/

# Failure rates, not a gate (scripts/stress.sh): every test of STRESS_PKGS
# run STRESS_COUNT times in shuffled order, then again under -race (the
# packages `make race` covers), printed as k/n for each test that failed at
# least once. Nothing is skipped or retried, and it exits 0 whatever it
# finds; CI runs it on a nightly schedule and uploads the table.
STRESS_COUNT ?= 20
STRESS_PKGS ?= ./...
stress:
	bash scripts/stress.sh $(STRESS_COUNT) $(STRESS_PKGS)

# Ten seconds of fuzzing on each decoder of bytes a peer sent: the meta
# Raft command decoder (every replica decodes each log entry on its own),
# the MultiRaft batch decoder (every Raft frame on TCP) and the metadata
# RPC body decoder (every client metadata request and reply on TCP). A
# malformed input must be an error, never a panic. New crashers land in
# the package's testdata/fuzz/.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeCommand$$' -fuzztime $(FUZZTIME) ./internal/meta/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeBatch$$' -fuzztime $(FUZZTIME) ./internal/multiraft/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeMetaBody$$' -fuzztime $(FUZZTIME) ./internal/proto/

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

fmt:
	gofmt -w .

# One iteration of every paper-evaluation benchmark (see EXPERIMENTS.md),
# including the fio read patterns (BenchmarkReadPipeline_FIOPatterns runs
# the same experiment `cfs-bench readpipe` prints at larger scales).
bench:
	$(GO) test -run xxx -bench . -benchtime 1x .

# One-iteration perf floors: re-runs the TCP-loopback read/write
# pipelines at quick scale and asserts the speedup floors recorded in the
# BENCH_*.json acceptance blocks. Wall-clock numbers on a shared box are
# noisy, so CI runs this as a NON-BLOCKING step - a failure flags a
# possible perf regression without gating the merge.
bench-smoke:
	CFS_BENCH_SMOKE=1 $(GO) test -run TestBenchSmokeFloors -count=1 -v -timeout $(TEST_TIMEOUT) ./internal/bench/

# The evidence a product PR owes (ROADMAP): N interleaved parent/change pairs
# of benchmark/run.sh per workload - both medians, the win count and the
# parent's own spread per metric. `make bench-pairs PARENT=HEAD~1 N=10`.
PARENT ?= HEAD
N ?= 10
bench-pairs:
	bash scripts/bench-pairs.sh $(PARENT) $(N)

# Code lines per package (non-blank, non-comment, non-test) and the total:
# the count a simplicity PR quotes before and after.
loc:
	@bash scripts/loc.sh
