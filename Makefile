# Pre-commit loop: make lint test race

GO ?= go

# Packages whose -race runs are fast and deterministic; the experiments
# package replays paper-scale workloads and runs without -race in `make
# test` (its TestShapes), `make bench` and cmd/socrates-bench. Anything that touches cache admission,
# the ahead area or the install path (DESIGN §20) also wants
# `go test -race -count=3 ./internal/rbpex ./internal/compute`: the
# write-behind batches and the read-ahead installs are races by construction,
# and one pass sees one interleaving. The policy's own tests —
# TestReplayAdmissionPolicies (the offline replay the 3/4 split comes from)
# and TestScanDoesNotEvictHotSet — are pure and fast, and run with `make test`.
RACE_PKGS := ./internal/logwriter ./internal/compute ./internal/hadr ./internal/simdisk \
             ./internal/cluster ./internal/xlog ./internal/pageserver \
             ./internal/obs ./internal/netmux ./internal/rbio \
             ./internal/btree ./internal/fcb \
             ./internal/rbpex ./internal/engine ./internal/hekaton \
             ./internal/xstore ./internal/versionstore ./internal/recovery

.PHONY: all lint fmt vet test race chaos chaos-stress repl-stress allocs bench bench-probes cover clean

all: lint test

# socrates-vet: the seven passes, then every waiver that suppressed nothing.
lint: fmt vet
	$(GO) run ./cmd/socrates-vet ./...

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# go vet includes copylocks, the repo's gate against a lock copied by value
# (socrates-vet's deadlocklint covers the rest of the lock discipline).
vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -count=1 $(RACE_PKGS)

# Deterministic torture harness: seed matrix + schedule-hash replay tests
# under the race detector, then the oracle-sensitivity self-test (planted
# ack-before-harden bug behind the chaosfault build tag). Replay a failing
# seed with: go run ./cmd/socrates-chaos -seed N [-scenario s] [-v]
chaos:
	$(GO) test -race -count=1 -run TestChaos ./internal/chaos/
	$(GO) test -tags chaosfault -count=1 ./internal/chaos/

# The chaos matrix is a set of races: a window that opens in one run out of
# ten hides from a single pass. Rerun every seed and scenario 25 times; any
# oracle violation in any run fails. Slow (tens of minutes on a small host) —
# run it before merging anything that touches apply, fetch or failover order.
chaos-stress:
	$(GO) test -count=25 -timeout 120m -run 'TestChaosSeedMatrix|TestChaosScenarios|TestChaosCommitQuorum' ./internal/chaos/

# The replication-order tests of both stacks, 200 times: a replica applies a
# log prefix in LSN order (hadr: DESIGN §14.3) and WaitApplied means applied
# and visible (compute.Secondary). What they pin was a 1-in-40 loss of
# acknowledged writes; run it before merging anything that touches ship,
# hardenFeed, Failover or a secondary's apply order; with them, evictions
# racing misses on a compute node's page file, the one place its lock is
# held while the cache's is taken. Then the waits those
# consumers sit in: XLOG's long poll, the shared bounded wait and its form on
# a rung, and the online loop's failed-pull back-off (page server and
# secondary), 200 times, and the three stress loops (thousands of waits each)
# 5 times.
repl-stress:
	$(GO) test -count=200 -run 'TestApplyFollowsLogOrder|TestFailoverPromotesSecondary|TestSecondariesReplicate|TestStragglerCatchesUpOrLeaves' ./internal/hadr
	$(GO) test -count=200 -run 'TestSecondaryServesSnapshotReads|TestSecondaryScanRacesSplits' ./internal/cluster
	$(GO) test -count=200 -run 'TestSecondaryWaitAppliedMeansVisible|TestSecondaryAppliedBeforeVisible|TestSecondaryFetchFloorCoversThePullInFlight|TestRemotePageFileConcurrentEvictTracking' ./internal/compute
	$(GO) test -count=200 -run 'TestLongPoll|TestCondWait(ReadyWakesIt|CancelWakesIt|DeadlineWakesIt|FastPathRecordsNothing|NoneRecordsNothing)$$|TestAwaitLSN(PublishWakesIt|DropWakesIt)$$|TestFailedPullsBackOff|TestTripIsPublishedAfterItsDump' ./internal/xlog ./internal/obs ./internal/recovery
	$(GO) test -count=5 -run 'TestCondWaitDeadlineStress|TestAwaitLSNPublishStress|TestWaitDestagedMeetsItsDeadline' ./internal/obs ./internal/xlog

# Hot-path allocation contracts (AllocsPerRun budgets; they skip themselves
# under -race; rbpex: a memory hit 0 — segment moves included — and an
# evicting Put <= 9; versionstore: a walk three versions down the chain 0;
# engine: a point read with a visible head <= 2, a 200-row scan 0, a
# read-only Tx.Scan of 200 rows no more than one of 20;
# wal: encoding a 64-record block exactly 1, decoding it <= 4; pageserver:
# a served page redo built 2, one read off a device 1, redo of a pull's
# first record for a cached page 2, of each later record for that page 0
# while its payload has room; rbio: a Selector
# call no more than the Client call it makes, an untraced request's hop 0;
# obs: a wait on a rung already at its LSN 0, a Publish nobody waits for 0,
# a child span under a live span <= 2, three attributes on it included;
# sqlengine: parsing the bench's SELECT <= 6, UPDATE <= 7, INSERT <= 8,
# where copying every token cost 23, 28 and 32) and short fuzzes of the
# SQL lexer against the rune lexer it replaced (identical tokens,
# positions and errors), of the B-tree
# node view against the decoded node it replaced, of in-place redo against
# copy-on-write redo (identical payloads, LSNs and errors; a failed edit
# leaves the page as it was), of random multi-row commits against
# copy-on-write redo of their log from an empty store (identical pages and
# LSNs; no record changes after its append, so no page a logged image
# aliases is edited in place), of a page server's pulls against
# copy-on-write redo of their records (identical pages; a pull a redo
# failure drops publishes nothing, and no published version changes), of
# the log block decoder
# (never panics; a decode re-encodes to the bytes it consumed) and of the
# page decoder (never panics; an accepted image re-encodes to its header
# and payload). The contracts are the only allocation gate: every
# //socrates:hotpath function is reached by one, and its directive names
# which.
allocs:
	$(GO) test -count=1 -run 'Allocs$$' ./internal/wal ./internal/btree ./internal/versionstore ./internal/engine ./internal/pageserver ./internal/logwriter ./internal/compute ./internal/netmux ./internal/rbio ./internal/rbpex ./internal/obs ./internal/sqlengine
	$(GO) test -run '^$$' -fuzz=FuzzLex -fuzztime=10s ./internal/sqlengine
	$(GO) test -run '^$$' -fuzz=FuzzNodeView -fuzztime=10s ./internal/btree
	$(GO) test -run '^$$' -fuzz=FuzzRedoInPlace -fuzztime=10s ./internal/btree
	$(GO) test -run '^$$' -fuzz=FuzzCommitMatchesRedo -fuzztime=10s ./internal/engine
	$(GO) test -run '^$$' -fuzz=FuzzPullMatchesRedo -fuzztime=10s ./internal/recovery
	$(GO) test -run '^$$' -fuzz=FuzzDecodeBlock -fuzztime=10s ./internal/wal
	$(GO) test -run '^$$' -fuzz=FuzzPageDecode -fuzztime=10s ./internal/page

# Every experiment of internal/experiments (the paper's tables and figure)
# once, at reduced scale, as BenchmarkPaper/<name>.
bench:
	$(GO) test -bench=. -benchmem -run=^$$ .

# The standalone layer probes of bench/ (btree get/put, page and WAL codecs,
# RBPEX, landing zone, netmux, rbio, pageserver.GetPage) as Benchmark*.
bench-probes:
	$(GO) test -run '^$$' -bench . -benchmem ./bench

# Coverage floors for the commit-path and checkpoint-path packages, the
# engine, the log codec and the redo cursor (mirrors the CI cover job):
# future changes there cannot land untested.
cover:
	$(GO) test -cover ./internal/logwriter ./internal/compute ./internal/hadr ./internal/xlog ./internal/pageserver ./internal/xstore ./internal/engine ./internal/wal ./internal/recovery

clean:
	$(GO) clean ./...
