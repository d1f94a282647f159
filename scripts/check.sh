#!/usr/bin/env bash
# Repository check: build, vet, and run the full test suite under the race
# detector, plus a fixed-seed chaos smoke (fault-injected TPC-H queries) and
# the nested benchmark module (bench/ has its own go.mod, so ./... skips it).
# Run from the repository root before sending changes.
#
#   scripts/check.sh          # build + vet + race tests + chaos smoke
#   scripts/check.sh -chaos   # additionally sweep the chaos suite over more
#                             # seeds (CHAOS_FULL), verbose
#   scripts/check.sh -fuzz    # additionally run 10s fuzz smokes over the
#                             # page codec, SQL parser, spill files, and
#                             # exchange segments
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

echo "==> cache unit tests"
go test -race -count=1 ./internal/cache/

echo "==> cold/warm cache smoke"
go test -race -count=1 -run 'TestCacheColdWarmSmoke|TestCacheBytesShrinkUnderRevocation|TestCacheSessionToggle|TestMetadataCacheInvalidatedOnWrite' .

echo "==> chaos smoke (seed 7)"
CHAOS_SEED=7 go test -race -count=1 -run 'TestChaos' .

echo "==> distributed smoke (HTTP workers)"
go test -race -count=1 -run 'TestDistributedTPCHSmoke|TestDistributedDifferential' .

echo "==> vector kernel differential smoke"
go test -race -count=1 -run 'TestVecKernelsDifferential' .

echo "==> morsel ablation differential (vec x legacy x morsel x static, encoded/skewed data)"
go test -race -count=1 -run 'TestEncodedDifferentialMatrix|TestEncodedDictProbeFlatBuildJoin|TestEncodedDistributedDifferential' .

echo "==> morsel skew smoke (oversized split fans out across drivers)"
go test -race -count=1 -run 'TestEncodedSkewUsesAllDrivers' .
go test -race -count=1 -run 'TestMorselQueue' ./internal/exec/

echo "==> dynamic filter + HBO ablation differential (on x off, embedded x distributed, faulted)"
go test -race -count=1 ./internal/dynfilter/
go test -race -count=1 -run 'TestFilterSummaryWireRoundTrip|TestFragmentDynFilterRoundTrip|TestTaskConfigDynKnobsRoundTrip' ./internal/wire/
go test -race -count=1 -run 'TestDynamicFilter|TestHBOJoinOrderFeedback|TestChaosDynamicFilterDelayAndLoss|TestChaosMorselOpenFailure|TestDistributedDynamicFilterDifferential|TestChaosDistributedFilterPublishFaults' .

echo "==> serving tier: unit tests, differential suite, and QPS smoke"
go test -race -count=1 ./internal/serving/
go test -race -count=1 -run 'TestServing' .

echo "==> spill differential wall (capped pool, rows identical, artifacts deleted)"
go test -race -count=1 ./internal/spill/
go test -race -count=1 -run 'TestRevocationOrderCacheBeforeSpill|TestSpillDisabledReserveFailsClean' ./internal/memory/
go test -race -count=1 -run 'TestSpill|TestMaterializedExchangeDifferential|TestDistributedSpillDifferential' .

echo "==> elastic chaos (worker kill/join mid-query under materialized exchange)"
go test -race -count=1 -run 'TestStore|TestOutputBufferMaterialized|TestDecodeSegment' ./internal/shuffle/
go test -race -count=1 -run 'TestElastic' .

echo "==> projection differential (vec x interpreted, morsel x static, div-by-zero and double-modulo regressions)"
go test -race -count=1 -run 'TestVectorizedProjectionDifferential|TestProjectionCSE|TestCSEDoesNotHoistErrors|TestDivisionByZeroConsistency|TestDoubleModuloConsistency|TestDictProjectionErrorFallthrough|TestDictCacheBounded' ./internal/expr/
go test -race -count=1 -run 'TestVecProj' .

echo "==> kernel + morsel bench smoke (1 iteration per benchmark)"
go test -run '^$' -bench 'HashAggBigintKey|HashAggVarcharKey|HashAggDictVarcharKey|HashAggRLEKey|HashJoinBuildProbe|HashJoinDictKey|FilterSelectivity|MorselSkewScan|DynFilterFig6|ProjArithBigint|ProjArithDouble|ProjVarcharConcat|ProjTPCHQ1Proc|ProjTPCHQ6Proc' -benchtime 1x . > /dev/null

if [ "$chaos_full" = 1 ]; then
  echo "==> chaos full sweep"
  CHAOS_SEED=7 CHAOS_FULL=1 go test -race -count=1 -v -run 'TestChaos' .
fi

if [ "$fuzz" = 1 ]; then
  echo "==> fuzz smoke: page codec decode (10s)"
  go test -fuzz '^FuzzPageCodecDecode$' -fuzztime 10s ./internal/block/
  echo "==> fuzz smoke: page codec round trip (10s)"
  go test -fuzz '^FuzzPageCodecRoundTrip$' -fuzztime 10s ./internal/block/
  echo "==> fuzz smoke: SQL parser (10s)"
  go test -fuzz '^FuzzParser$' -fuzztime 10s ./internal/sqlparser/
  echo "==> fuzz smoke: spill file decode (10s)"
  go test -fuzz '^FuzzSpillFileDecode$' -fuzztime 10s ./internal/spill/
  echo "==> fuzz smoke: exchange segment decode (10s)"
  go test -fuzz '^FuzzExchangeSegmentDecode$' -fuzztime 10s ./internal/shuffle/
fi

echo "OK"
