#!/usr/bin/env bash
# Repository check: build, vet, and run the full test suite under the race
# detector, plus a fixed-seed chaos smoke (fault-injected TPC-H queries) and
# the nested benchmark module (bench/ has its own go.mod, so ./... skips it).
# Run from the repository root before sending changes.
#
#   scripts/check.sh          # build + vet + race tests + chaos smoke +
#                             # split placement / driver cap ("no idle
#                             # core") + a spilled join finishes at every
#                             # split-concurrency target, in-process and on
#                             # HTTP workers + distributed control plane (request
#                             # classes of one statement, filters in time)
#                             # + point-read byte budget and written
#                             # tables + dictionary paths (guards, stats,
#                             # a panicking operator fails one query)
#                             # + borrowed-page poison run + non-race
#                             # allocation ceilings (page codec, group
#                             # table — presized from its estimate, a
#                             # wrong estimate changing no row — join
#                             # build and probe, dynamically filtered
#                             # scan, spill) and bench smokes
#                             # + configuration (one switch set: cluster vs
#                             # session twins, the switch headers, TaskConfig
#                             # and fragments on the wire, non-finite doubles
#                             # to HTTP workers and clients, dynamic filters
#                             # decided at planning) + lake (orcish and
#                             # hive under -race, fetched-bytes accounting,
#                             # a damaged file fails one query; no
#                             # encoding/gob)
#   scripts/check.sh -chaos   # additionally sweep the chaos suite over more
#                             # seeds (CHAOS_FULL), verbose
#   scripts/check.sh -fuzz    # additionally run 10s fuzz smokes over the
#                             # page codec, orcish footers and sections,
#                             # SQL parser, spill files and their index,
#                             # exchange segments,
#                             # dynamic-filter summary frames, and create
#                             # requests (fragments, compiled, plus task
#                             # config)
set -euo pipefail
cd "$(dirname "$0")/.."

chaos_full=0
fuzz=0
for arg in "$@"; do
  case "$arg" in
    -chaos) chaos_full=1 ;;
    -fuzz) fuzz=1 ;;
    *) echo "unknown flag: $arg" >&2; exit 2 ;;
  esac
done

echo "==> go build ./..."
go build ./...

echo "==> go vet ./..."
go vet ./...

echo "==> go test -race ./..."
go test -race ./...

echo "==> nested benchmark module (bench/ against the working tree)"
(cd bench && go vet . && go test -count=1 .)

echo "==> chaos smoke (seed 7)"
CHAOS_SEED=7 go test -race -count=1 -run 'TestChaos' .

echo "==> no idle core: splits are dealt evenly and the same way every run, a scan starts no more drivers than threads"
# The report lines are five warm passes of the scan_agg and join_local
# statement shapes on a 2-worker x 1-thread cluster: each statement's median
# time (h01, concat, like and q50 are the ones the dictionary paths carry),
# its scanning-stage skew (max/mean of per-task input rows; what
# TestScanSplitsBalanced bounds) and each worker's executor busy share.
go test -count=1 -run 'TestScanDriversCappedAtThreads' ./internal/exec/
go test -count=1 -v -run 'TestScanSplitsBalanced|TestPlacementStableAcrossRuns|TestNoIdleCoreReport' . | grep -E '^(---|ok|FAIL|panic)|skew|busy'

echo "==> a spilled join finishes: split-concurrency target 1 and 4, in-process and on HTTP workers"
# The probe of a spilled build waits until its scan can start no more drivers;
# the one scan scheduler (the morsel queue) must say so whatever the target.
go test -race -count=1 -run 'TestJoinUnderSpillFinishes' .

echo "==> distributed control plane: one create, one status channel and one delete per worker"
# The report lines are one three-join statement on two HTTP workers, split
# enumerations memoized: its requests by class (what the workers export as
# presto_task_api_requests_total), and a partitioned join whose build
# summaries cross processes in time to filter the probe scans.
go test -race -count=1 -run 'TestFetchBeforeProducerRegistered|TestCreateBatchIdempotent|TestStatusVersionMonotone' ./internal/httpapi/
go test -race -count=1 -run 'TestHTTPTaskBatchesSplits|TestSchedulerCreateFailureAbortsAndDrains' ./internal/coordinator/
go test -race -count=1 -v -run 'TestHTTPControlRequestsPerStatement|TestDistributedFilterArrivesBeforeProbe|TestCreateBatchPartialFailureDrains' . | grep -E '^(---|ok|FAIL|panic)|requests per statement|rows filtered'

echo "==> what a point read pays: byte budget (no -race: it skips under it), resident tables bypass the page cache, a written table stays worth scanning"
go test -count=1 -v -run 'TestPointReadByteBudget|TestResidentTablesBypassPageCache' . | grep -E '^(---|ok|FAIL|panic)|bytes per'
go test -race -count=1 -run 'TestInsertsMergeIntoTail|TestSplitReadsItsSnapshot' ./internal/connectors/memconn/

echo "==> what a low-cardinality string costs: stored under one dictionary a column, resolved by combination, guarded by rows >= entries; a panicking operator fails one query"
# The dict-rows figures are read off the statements' own stats: the pages
# whose group keys are all encoded are resolved by entry, the others are not.
go test -race -count=1 -run 'TestDictEncoder|TestCodecSmallPageWritesDictionaryFlat' ./internal/block/
go test -race -count=1 -run 'TestLoadTableEncodesLowCardinality' ./internal/connectors/memconn/
go test -race -count=1 -run 'TestDriverRecoversOperatorPanic' ./internal/exec/
go test -race -count=1 -run 'TestEncodedMultiKeyGroupBy|TestEncodedProjectionErrorsOnlyWhenReferenced|TestEncodedLoadedThenInserted|TestDictionaryPathsInExplainAnalyze|TestOperatorPanicFailsOneQuery' .

echo "==> configuration: a query's switches are one value, from the HTTP header to the task; a fragment is its own wire form"
# A cluster switch has its session twin's effect, and a deprecated cluster
# field only its alias's; each switch header sets its
# switch and nothing else; every TaskConfig field and every plan and
# expression field survives the create request, every node and expression
# type has a wire kind, and a fragment that decodes compiles without a panic;
# NaN, ±Infinity and −0.0 reach HTTP workers and statement-protocol clients;
# dynamic filters are decided at planning (materialized exchange plans none,
# creates no filter hub, keeps its own plan-cache entry and still recovers from
# a killed worker).
go test -race -count=1 -run 'TestClusterSwitchMatchesSession|TestDeprecatedClusterFields|TestMaterializedExchangeDecidedAtPlanning|TestElasticKillWorkerMidQuery|TestDistributedNonFiniteDoubles' .
go test -race -count=1 -run 'TestSwitchHeaders|TestStatementNonFiniteDoubles|TestWriteJSONFailureIs500' ./internal/httpapi/
go test -race -count=1 ./internal/wire/
go test -race -count=1 -run 'TestMaterializedExchangeCreatesNoFilterHub' ./internal/coordinator/

echo "==> lake: orcish sections and footers are page-codec frames, and nothing imports encoding/gob"
# One serialized form serves shuffle, spill, exchange and the lake; the gob
# format is gone, so an import of it anywhere in the module (tests included)
# fails the check.
if go list -f '{{.ImportPath}}: {{join .Imports " "}} {{join .TestImports " "}} {{join .XTestImports " "}}' ./... | grep -E '(^| )encoding/gob( |$)'; then
  echo "encoding/gob is imported by the packages above" >&2
  exit 1
fi
go test -race -count=1 ./internal/orcish/ ./internal/connectors/hive/
go test -race -count=1 -run 'TestScanBytesReadAreFetchedBytes|TestChaosDamagedLakeFile' .

echo "==> borrowed pages are never read late (poison linked on under the differential walls)"
# expr.poisonBorrowed makes an operator that lends its output — a page
# processor, a lookup join — overwrite the lent vectors before every page;
# only a linker flag (or expr's own tests) can set it. The walls that reach an
# aggregation or a join through a lender live in these four packages
# (TestJoinLentVectorsArePoisoned runs only here, over flat vectors and over
# the index vectors of dictionary probe and build columns; the root package's
# tables are stored dictionary-encoded, so its walls read a processor's lent
# index vectors; ./internal/exec holds the
# processor composed onto a dynamically filtered scan,
# TestDynFilteredScanGathersOnce, and the root package the dynamic-filter
# differentials that run it under every join type).
go test -count=1 -ldflags '-X repro/internal/expr.poisonBorrowed=on' . ./internal/exec ./internal/operators ./internal/expr

echo "==> kernel + morsel bench smoke (1 iteration per benchmark)"
go test -run '^$' -bench 'HashAggBigintKey|HashAggVarcharKey|HashAggDictVarcharKey|HashAggRLEKey|HashJoinBuildProbe|HashJoinDictKey|FilterSelectivity|MorselSkewScan|DynFilterFig6|ProjArithBigint|ProjArithDouble|ProjVarcharConcat|ProjTPCHQ1Proc|ProjTPCHQ6Proc' -benchtime 1x . > /dev/null

echo "==> page codec allocation ceilings + bench smoke (no -race: the ceilings skip under it)"
go test -count=1 -run 'TestCodecAllocationCeilings' ./internal/block/
go test -run '^$' -bench 'CodecEncodeRaw|CodecEncodeFlate|CodecDecodeRaw|CodecDecodeFlate' -benchtime 1x -benchmem ./internal/block/ > /dev/null

echo "==> what a group, a build row and a probe row cost: allocation ceilings, accounting vs heap, a group table sized from its estimate, bench smoke (no -race, same reason)"
go test -count=1 -v -run 'TestAggSpillAllocationCeiling|TestGroupTableBytesPerGroup|TestGroupTableAllocatesOnce|TestPresizedTableReservesWhatItHolds|TestPresizeIsAHint|TestFinishedAggregationDropsItsTable|TestJoinBuildBytesPerRow|TestJoinBuildAllocatesOnce|TestJoinProbeAllocationCeiling|TestHashAggAccountingMatchesHeap|TestJoinBuildAccountingMatchesHeap' ./internal/operators/ | grep -E '^(---|ok|FAIL|panic)|bytes'
go test -count=1 -run 'TestGroupsPerInstance' ./internal/exec/
go test -count=1 -run 'TestGroupEstimate' .
go test -run '^$' -bench 'AggSpillRevokeDrain|HashJoinProbeParallel' -benchtime 1x -benchmem ./internal/operators/ > /dev/null
go test -run '^$' -bench 'KeyTableFixed1' -benchtime 20x -benchmem ./internal/operators/ | grep '^Benchmark'
go test -run '^$' -bench 'HashJoinBuildParallel' -benchtime 5x -benchmem -cpu 1,2 ./internal/operators/ | grep '^Benchmark'
go test -run '^$' -bench 'HashAggBigintKey|HashJoinBuildProbe|HashJoinDictKey' -benchtime 5x -benchmem . | grep '^Benchmark'

echo "==> filter -> project -> aggregate (flat and dictionary group keys) and dynamically filtered scan -> join -> aggregate allocation ceilings + bench smoke (no -race, same reason)"
go test -count=1 -v -run 'TestFilterProjectAggAllocationCeiling|TestDynFilteredScanGathersOnce' ./internal/exec/ | grep -E '^(---|ok|FAIL|panic)|bytes'
go test -run '^$' -bench 'FilterProjectAgg' -benchtime 1x -benchmem ./internal/exec/ > /dev/null

if [ "$chaos_full" = 1 ]; then
  echo "==> chaos full sweep"
  CHAOS_SEED=7 CHAOS_FULL=1 go test -race -count=1 -v -run 'TestChaos' .
fi

if [ "$fuzz" = 1 ]; then
  echo "==> fuzz smoke: page codec decode (10s)"
  go test -fuzz '^FuzzPageCodecDecode$' -fuzztime 10s ./internal/block/
  echo "==> fuzz smoke: page codec round trip (10s)"
  go test -fuzz '^FuzzPageCodecRoundTrip$' -fuzztime 10s ./internal/block/
  echo "==> fuzz smoke: orcish footer and section decode (10s)"
  # Seeds are whole files; minimizing one takes longer than the smoke.
  go test -fuzz '^FuzzOrcishDecode$' -fuzztime 10s -fuzzminimizetime 1s ./internal/orcish/
  echo "==> fuzz smoke: SQL parser (10s)"
  go test -fuzz '^FuzzParser$' -fuzztime 10s ./internal/sqlparser/
  echo "==> fuzz smoke: spill file decode (10s)"
  go test -fuzz '^FuzzSpillFileDecode$' -fuzztime 10s ./internal/spill/
  echo "==> fuzz smoke: spill file index (10s)"
  go test -fuzz '^FuzzSpillIndex$' -fuzztime 10s ./internal/spill/
  echo "==> fuzz smoke: exchange segment decode (10s)"
  go test -fuzz '^FuzzExchangeSegmentDecode$' -fuzztime 10s ./internal/shuffle/
  echo "==> fuzz smoke: dynamic-filter summary decode (10s)"
  go test -fuzz '^FuzzSummaryDecode$' -fuzztime 10s ./internal/dynfilter/
  echo "==> fuzz smoke: task create request decode (10s)"
  go test -fuzz '^FuzzCreateRequestDecode$' -fuzztime 10s ./internal/wire/
fi

echo "OK"
