#!/usr/bin/env bash
# Repository check: build, vet, and run the full test suite under the race
# detector (then print its ten slowest tests), plus a fixed-seed chaos smoke
# (fault-injected TPC-H queries) and the nested benchmark module (bench/ has
# its own go.mod, so ./... skips it).
# Run from the repository root before sending changes.
#
#   scripts/check.sh          # build + vet + race tests + chaos smoke +
#                             # split placement / driver cap ("no idle
#                             # core") + a spilled join finishes at every
#                             # split-concurrency target, in-process and on
#                             # HTTP workers, and its grace partitions
#                             # spread behind an exchange + task lifecycle (a delayed
#                             # task start loses no row, phased scheduling
#                             # without filters completes, no worker
#                             # ticker, a finished query's tasks are
#                             # collected) + executor wakeups (a parked
#                             # driver returns on a Kick only, ten runs
#                             # under -race) + distributed control plane (request
#                             # classes of one statement, filters in time;
#                             # a failed producer's stream fails its
#                             # readers, a parked one included, and a
#                             # read over HTTP reports its CPU time)
#                             # + dynamic filters (placement: row-tested or
#                             # prune-only; a task's own filter arrives
#                             # with its build; the effect tests on a
#                             # cross-fragment filter beside a direct feed)
#                             # + point-read and result-hit byte
#                             # budgets, a resident
#                             # table's scan line and written
#                             # tables + a cached result outliving the
#                             # appends it misses (a differential
#                             # against the cache off, under -race)
#                             # + dictionary paths (guards, stats,
#                             # a panicking operator fails one query)
#                             # + borrowed-page and released-scratch
#                             # poison run (lazy lake scans,
#                             # aggregations into hash sinks and pages
#                             # an aggregation reads through a
#                             # selection included) + non-race allocation
#                             # ceilings (page codec, group table —
#                             # presized from its estimate, a wrong
#                             # estimate changing no row under -race —
#                             # join build
#                             # and probe, dynamically filtered scan,
#                             # spill, a spilled drain's first page
#                             # after one partition, a second driver's
#                             # first page on leased scratch, a lazy
#                             # lake scan decoding into scratch, an
#                             # aggregation into a hash sink copying
#                             # once, masked sums) and bench smokes (the
#                             # predicated selection kernels, an
#                             # aggregation's runs and the h01/q09
#                             # filter -> aggregate drivers included)
#                             # + one predicate compiler (random
#                             # AND/OR/NOT trees as WHERE, boolean
#                             # SELECT column and CASE WHEN against the
#                             # interpreter, failing leaves included,
#                             # three runs under -race)
#                             # + one ledger (a reservation is the
#                             # capacity leased, in every state of an
#                             # aggregation (DISTINCT's too) and a join
#                             # bridge,
#                             # under -race; nothing to revoke in an
#                             # empty one; accounting vs heap; the
#                             # warm-pool ceilings twenty times each)
#                             # + configuration (one switch set: cluster vs
#                             # session twins, the switch headers, a session
#                             # switch on HTTP workers (DisableSpill:
#                             # spill, or the exceeded-limit error), TaskConfig
#                             # and fragments on the wire, non-finite doubles
#                             # to HTTP workers and clients, dynamic filters
#                             # decided at planning, a join residual filtered
#                             # as WHERE is: IEEE NaN, applied by an index
#                             # join; plan templates (a cached plan's rows,
#                             # on cached and cold compiled fragments, and
#                             # its EXPLAIN with the literals substituted
#                             # equal a fresh plan's, in process and on
#                             # HTTP workers; validity
#                             # across writes, DDL and growth); the
#                             # statement protocol: exactly one request
#                             # for a small statement, streaming, failure,
#                             # cancel, 410 for a forgotten query, documents
#                             # byte-equal to json.Marshal's) + lake (orcish and
#                             # hive under -race, a file cut at its stripes
#                             # read by both workers, fetched-bytes accounting,
#                             # a damaged file fails one query; no
#                             # encoding/gob) + subqueries (IN and NOT IN
#                             # keep the list form's rows; every plan
#                             # node kind is planned by some statement)
#                             # + one sort, one aggregate state, one row
#                             # gather (window aggregates equal GROUP BY
#                             # and its self-join, in process and on HTTP
#                             # workers; Sort, TopN and Window rows equal
#                             # the boxed reference gather's; three runs
#                             # under -race) + compiled fragments (one
#                             # compiled fragment serves tasks of other
#                             # literals on several goroutines, a
#                             # template's statements at once on one plan,
#                             # a cache hit and a cold compile return the
#                             # same rows, a worker's cache keys and kept
#                             # errors, a BIGINT = DOUBLE join keys on the
#                             # cast, under -race) + examples (every
#                             # program under examples/ runs to a zero exit)
#                             # + a small statement is one task (serving's
#                             # reads in process and on HTTP workers,
#                             # exactly four requests, ten runs under
#                             # -race; one decision for every
#                             # literal set; a large read stays parallel;
#                             # no leaf task without a split; a first run
#                             # placed like every run, under -race)
#   scripts/check.sh -chaos   # additionally sweep the chaos suite over more
#                             # seeds (CHAOS_FULL), verbose
#   scripts/check.sh -fuzz    # additionally run 10s fuzz smokes over the
#                             # page codec, orcish footers and sections
#                             # (decoded fresh and into an arena alike),
#                             # SQL parser, expression text (equal
#                             # exactly for equal parse trees), spill
#                             # files (both readers
#                             # agree, or both reject) and their index,
#                             # dynamic-filter summary frames, create
#                             # requests (fragments, compiled, plus task
#                             # config), statement documents (against
#                             # json.Marshal), plan-cache keys (a literal
#                             # of the same type or a comment keeps the
#                             # key, a changed kept token moves it),
#                             # append summaries (one called disjoint from
#                             # a domain holds no row it contains), and
#                             # the join position table
#                             # (random keys and page sizes, every join
#                             # type, with and without a residual, keyed
#                             # and keyless, against the per-row reference)
#   scripts/check.sh -coverage # only the coverage map: builds prestobench,
#                             # the benchmark and every examples/ program
#                             # with -cover, runs every paper experiment
#                             # (-quick), every workload (--seconds 1) and
#                             # every example under one GOCOVERDIR,
#                             # and prints the files that run
#                             # under 10% of their statements, then the
#                             # New... constructors none of them called
#                             # (0.0%): what nothing builds either earns
#                             # a measurement or leaves
set -euo pipefail
cd "$(dirname "$0")/.."

# A -run pattern runs only what it names, so a renamed test would drop out of
# its line unseen: every alternative of a -run pattern below must name a test
# of its packages (go test -list), or the check fails there.
go() {
  if [ "$1" = test ]; then
    local prev="" run="" a alt listed
    local -a pkgs=() alts=()
    for a in "${@:2}"; do
      [ "$prev" = -run ] && run="$a"
      [[ "$a" == .* ]] && pkgs+=("$a")
      prev="$a"
    done
    if [ -n "$run" ] && [ "$run" != '^$' ]; then
      listed="$(command go test -list "$run" "${pkgs[@]}" | grep -E '^(Test|Example|Fuzz)' || true)"
      IFS='|' read -ra alts <<< "$run"
      for alt in "${alts[@]}"; do
        if ! grep -Eq -- "$alt" <<< "$listed"; then
          echo "check.sh: -run '$alt' names no test in ${pkgs[*]}" >&2
          return 1
        fi
      done
    fi
  fi
  command go "$@"
}

chaos_full=0
fuzz=0
coverage=0
for arg in "$@"; do
  case "$arg" in
    -chaos) chaos_full=1 ;;
    -fuzz) fuzz=1 ;;
    -coverage) coverage=1 ;;
    *) echo "unknown flag: $arg" >&2; exit 2 ;;
  esac
done

if [ "$coverage" = 1 ]; then
  # What the experiments, the benchmark workloads and the examples run of the
  # engine, file by file: code that none of them reaches is a candidate for
  # removal unless a test prices it. -cover is a build flag; the benchmark's sources are
  # untouched.
  cov="$(mktemp -d)"
  trap 'rm -rf "$cov"' EXIT
  mkdir -p "$cov/data"
  echo "==> coverage builds: prestobench, the benchmark and the examples (-cover -coverpkg=repro/...)"
  go build -cover -coverpkg=repro/... -o "$cov/prestobench" ./cmd/prestobench
  (cd bench && go build -cover -coverpkg=repro/... -o "$cov/bench" .)
  for ex in examples/*/; do
    go build -cover -coverpkg=repro/... -o "$cov/example-$(basename "$ex")" "./$ex"
  done
  echo "==> prestobench -exp all -quick"
  GOCOVERDIR="$cov/data" "$cov/prestobench" -exp all -quick > "$cov/prestobench.log" 2>&1 ||
    { cat "$cov/prestobench.log" >&2; exit 1; }
  echo "==> benchmark, every workload, --seconds 1"
  GOCOVERDIR="$cov/data" "$cov/bench" --workload all --seconds 1 > "$cov/bench.log" 2>&1 ||
    { cat "$cov/bench.log" >&2; exit 1; }
  echo "==> examples"
  for ex in "$cov"/example-*; do
    GOCOVERDIR="$cov/data" "$ex" > "$ex.log" 2>&1 || { cat "$ex.log" >&2; exit 1; }
  done
  go tool covdata textfmt -i="$cov/data" -o "$cov/all.out"
  # The engine's files only: the benchmark module's own are not the map's.
  grep -v '^repro/bench/' "$cov/all.out" > "$cov/engine.out"
  go tool cover -func="$cov/engine.out" | tail -n 1
  echo "==> files run under 10% of their statements (covered/statements)"
  # A block may appear once per counter file; it counts as run if any run
  # reached it.
  awk -F'[: ]' 'NR > 1 { key = $1 ":" $2; stmts[key] = $3; file[key] = $1; if ($4 > 0) hit[key] = 1 }
    END {
      for (k in stmts) { total[file[k]] += stmts[k]; if (k in hit) run[file[k]] += stmts[k] }
      for (f in total) if (run[f] * 10 < total[f]) printf "%5.1f%%  %5d/%-5d  %s\n", 100 * run[f] / total[f], run[f], total[f], f
    }' "$cov/engine.out" | sort -n
  echo "==> constructors no experiment, workload or example called (0.0%)"
  # covdata merges the counter files itself: a function counts as called if
  # any run reached it.
  go tool covdata func -i="$cov/data" | awk '$1 !~ /^repro\/bench\// && $2 ~ /^New/ && $NF == "0.0%" { print $1, $2 }'
  exit 0
fi

echo "==> go build ./..."
go build ./...

echo "==> go vet ./..."
go vet ./...

echo "==> go test -race ./..."
# scripts/testreport prints what go test prints from its -json events, then
# the run's ten slowest tests: a test that grows slow shows the day it does.
go test -race -json ./... | go run ./scripts/testreport

echo "==> nested benchmark module (bench/ against the working tree)"
(cd bench && go vet . && go test -count=1 .)

echo "==> examples: every program under examples/ runs to a zero exit"
# go build ./... compiles them; this runs them: quickstart, the A/B test over
# a bucketed store, the ETL over a lake with writer scaling, and the
# federation join across a lake, a key-value store and a memory table.
for ex in examples/*/; do
  go run "./$ex" > /dev/null || { echo "example $ex failed" >&2; exit 1; }
done

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

echo "==> a spilled join finishes: split-concurrency target 1 and 4, in-process and on HTTP workers; its grace partitions spread behind a hash exchange"
# The probe of a spilled build waits until its scan can start no more drivers;
# the one scan scheduler (the morsel queue) must say so whatever the target.
go test -race -count=1 -run 'TestJoinUnderSpillFinishes' .
# A worker behind an exchange over 2 or 4 consumers holds one residue of the
# key hash; its spilled build still fills every spill partition evenly, and
# the keys behind consumer 0 of 2, 3, 4 or 8 fill every spill partition and
# every low-bit slot class of a key table, BIGINT, VARCHAR or mixed (the
# exchange, the spill partitions and the slots read disjoint bits of the one
# key hash). A revocation whose seal fails keeps the build in memory, and an
# index a revocation dropped is not counted. A group table over a dense
# integer key is direct and aggregates as a hashed one, spilled and drained
# too. A VARCHAR key is a cell whose bytes the table compares: two strings
# with equal cells stay two keys, and every encoding resolves to one entry.
go test -race -count=1 -run 'TestGraceJoinSpreadsAfterExchange|TestKeyHashBitsIndependent|TestJoinSealFailureKeepsBuildInMemory|TestJoinRevokedIndexNotCounted|TestDirectGroupTableMatchesHashed|TestVarcharCellKeys' ./internal/operators/

echo "==> task lifecycle: a task moves on events, not a clock"
# A task finishes when no driver runs and every pipeline has declared its last
# driver, so a task delayed 300 µs between its registration and its Start
# loses no row; a phased probe held on its build is released by the build
# finishing, with no dynamic filter to re-evaluate it (both ten runs under
# -race); a worker starts no goroutine beyond its executor threads; a drained
# in-process join's tasks are collected while its stats still answer; and the
# three ablations that ride on the lifecycle still pass their shape checks.
go test -race -count=10 -run 'TestDelayedTaskStartLosesNoRows|TestPhasedWithoutFiltersCompletes' .
go test -race -count=1 -run 'TestUnstartedTaskCannotFinish|TestWriterScaleFailureFailsTask|TestNewWorkerStartsOnlyItsThreads' ./internal/exec/
go test -race -count=1 -run 'TestFinishedQueryReleasesItsTasks' ./internal/coordinator/
go test -count=1 ./internal/experiments -run 'Phased|Writers|Backpressure'

echo "==> a parked driver comes back on a Kick and nothing else"
# The executor has no poll and no timed park: a driver that made no progress
# is parked and looked at again only after a Kick. It wakes on the Kick, is
# not looked at without one, does not spin when starved, yields the lock when
# turning blocked while parked, and a scan starved behind a sibling's busy
# source is woken when that source is freed (ten runs each under -race).
go test -race -count=10 -run 'TestExecutorWakeupOnKick|TestParkedDriverWaitsForKick|TestExecutorIdleNoBusyPoll|TestExecutorStarvedThenBlockedYieldsLock|TestStarvedDriverDoesNotBusySpin|TestStarvedQueueWakesWhenSourceFreed' ./internal/exec/

echo "==> distributed control plane: one create, one status channel and one delete per worker"
# The report lines are one three-join statement on two HTTP workers, its
# memory catalog's splits in hand at placement: its requests by class (what
# the workers export as presto_task_api_requests_total), and a partitioned
# join whose build summaries cross processes in time to filter the probe
# scans. A consumer
# reads a producer on its own worker in memory, through the checks an HTTP
# fetch makes (TestOneFetchPath), so those pages are shared by two tasks'
# goroutines: the shuffle chaos tests run on HTTP workers here too.
go test -race -count=1 -run 'TestFetchBeforeProducerRegistered|TestCreateBatchIdempotent|TestStatusVersionMonotone|TestOneFetchPath' ./internal/httpapi/
# A stream ends only when its producer finished: a destroyed buffer fails
# every reader with the producer's error (a parked long-poll at once), unless
# the reader had taken the whole finished stream; a failed root task fails the
# client's read with its own error.
go test -race -count=1 -run 'TestOutputBufferDestroy|TestDestroyAfterStreamTakenStaysComplete|TestDestroyWakesParkedFetch' ./internal/shuffle/
go test -race -count=1 -run 'TestHTTPTaskBatchesSplits|TestSchedulerCreateFailureAbortsAndDrains|TestSchedulerFailedTaskFailsItsReader' ./internal/coordinator/
# A statement's status requests all leave before its Close returns, so none
# is counted as the next statement's (ten runs under -race).
go test -race -count=10 -run 'TestStatusChannelEndsWithItsGroup' ./internal/coordinator/
go test -race -count=1 -v -run 'TestHTTPControlRequestsPerStatement|TestDistributedFilterArrivesBeforeProbe|TestCreateBatchPartialFailureDrains|TestChaosHTTPShuffleErrorsMasked|TestChaosHTTPShufflePartialPagesMasked|TestSmallReadReportsCPUOnHTTPWorkers' . | grep -E '^(---|ok|FAIL|panic)|requests per statement|rows filtered'

echo "==> a small statement is one task: serving reads in process and on HTTP workers, one decision a template, a large read and an expanding join parallel, no split-less leaf task"
# Every run of each serving read on two HTTP workers, the first included,
# sends one create, one status long-poll, one result fetch and one delete
# (ten runs under -race). A statement over tables whose connector lists its
# splits in memory is placed the same way on its first run as on every other.
go test -race -count=10 -run 'TestSmallStatementIsOneTask' .
go test -race -count=1 -v -run 'TestSmallPlanRuleIgnoresLiterals|TestLargeReadStaysParallel|TestExpandingJoinStaysParallel|TestLeafStageSkipsSplitlessTasks|TestFirstRunPlacedLikeEveryRun' . | grep -E '^(---|ok|FAIL|panic)'

echo "==> dynamic filters: where a filter tests rows, and when it arrives"
# A scan that feeds the publishing join through nothing but Filter/Project
# only prunes; one behind another join or a fragment boundary tests rows; a
# task's own filter is in place before its join's probes run (ten runs under
# -race). The root effect tests run a partitioned
# join, whose filter crosses fragments and tests rows, beside the broadcast
# join's direct feed, which tests none and still skips an empty build's
# splits; the chaos suite delays and loses the cross-fragment publications.
# The same partitioned join on an in-process cluster and on HTTP workers tests
# the same rows and narrows its probe splits to the same points: a summary is
# one Bloom filter and one point list, whatever carries it.
go test -race -count=10 -run 'TestDynFilterPlacement|TestDynFilterArrivesWithItsBuild' ./internal/exec/
go test -race -count=1 -run 'TestCollectCellsMatchesCollect|TestBoundedSummaryPrunesOnly' ./internal/dynfilter/
go test -race -count=1 -run 'TestDynamicFilterPrunesSelectiveJoin|TestDynamicFilterEmptyBuildShortCircuit|TestChaosDynamicFilterDelayAndLoss|TestDynamicFilterSameInProcessAndOverHTTP' .

echo "==> what a point read pays: byte budgets (no -race: they skip under it) of an executed read and of a result-cache hit on a template with other literals, a resident table's scan reads its one page, a written table stays worth scanning"
# A result-cache hit binds no plan: it is looked up on the unbound template.
go test -count=1 -v -run 'TestPointReadByteBudget|TestResultHitByteBudget|TestResidentTableScanLine' . | grep -E '^(---|ok|FAIL|panic)|bytes per'
go test -race -count=1 -run 'TestInsertsMergeIntoTail|TestSplitReadsItsSnapshot' ./internal/connectors/memconn/

echo "==> a cached result outlives the appends its scans could not read; every cache checks the versions it read"
# Seeded INSERT streams (single and multi-row, hot, cold and NULL keys, an
# INSERT ... SELECT, a DROP/CREATE) between point, IN-list, range, IS NULL,
# point-or-NULL, unconstrained and join reads, over memory, raptor and a hive
# lake (where a data file is also rewritten outside the engine): every answer
# equals the DisableResultCache one, some from re-stamped entries. A write
# still reaches every reader that must see it, and identifiers keep their
# spelling in the plan key. The same stream against a sharded-MySQL table,
# whose reads are cached through its binlog versions, answers as a cluster
# with the result cache off. A table changed through a connector's own API,
# or a file written into the lake, is seen through warm plan and metadata
# caches; a DDL statement that races a plan fails the plan's first lookup;
# IS NULL constrains the scan, and contradictory points read nothing; NULL
# and 'NULL' are two row keys, and an empty VARCHAR range reads nothing.
# Every writable connector's versions move, and its keys read back, as the
# conformance suite says. All under -race.
go test -race -count=1 -run 'TestResultCacheAppendsDifferential|TestResultCacheShardSQLDifferential|TestServingResultCacheInvalidation|TestServingConcurrentWriteWhileRead|TestPlanKeyKeepsIdentifierSpelling|TestCachesSeeConnectorChanges|TestIsNullConstrainsTheScan|TestContradictoryPointsReadNothing|TestNullAndNullStringAreTwoKeys|TestEmptyVarcharRangeReadsNothing' .
go test -race -count=1 ./internal/connector/ ./internal/serving/ ./internal/cache/
go test -race -count=1 -run 'TestDDLDuringPlanningFailsTheFirstLookup|TestWriteInvalidatesOnlyItsTable' ./internal/coordinator/
go test -race -count=1 -run 'TestConformance|TestConcurrentSinksFoldStats|TestRewrittenFileMissesItsFooter|TestFooterCacheConcurrentReads' ./internal/connectors/...
# shardsql's write batches commit, rows and version together, while its
# scans, index lookups and version reads run.
go test -race -count=10 -run 'TestConcurrentWritesAndReads' ./internal/connectors/shardsql/

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
# switch and nothing else; a session switch reaches HTTP workers inside
# TaskConfig, as it reaches in-process tasks (DisableSpill: under a per-node
# cap a default session spills and a DisableSpill one fails with the
# exceeded-limit error); every TaskConfig field and every plan and
# expression field survives the create request, every node and expression
# type has a wire kind, and a fragment that decodes compiles without a panic;
# NaN, ±Infinity and −0.0 reach HTTP workers and statement-protocol clients;
# dynamic filters are decided at planning (a session that disables them plans
# none, creates no filter hub and keeps its own plan-cache entry); a join residual is compiled as a WHERE clause is (NaN
# compares by IEEE, as in WHERE) and an index join applies it; a RIGHT/FULL
# probe finished with pairs still to emit counts as finished only once it has
# emitted them, and a SEMI/ANTI row puts its chain to a residual in rounds; a
# join build over a dense integer key indexed directly joins, and summarizes
# its keys, exactly as the same build hashed.
# A plan is a template: random literal sets run on a cached plan return a
# fresh plan's rows — on fragments the workers compiled before and on ones
# compiled cold after exec.Worker.DropCompiledFragments — and, where the shapes agree,
# its EXPLAIN with the literals substituted, in process and on HTTP workers
# (twenty sets a shape under -race). A template compiles once per worker: one
# compiled fragment serves tasks of other literals on several goroutines at
# once, statements of one template from several goroutines at once each get
# their own rows, a worker keys compiled fragments by digest and the settings
# compilation reads and keeps a fragment that does not compile as its error,
# and /v1/metrics sums the workers' lookups. A BIGINT = DOUBLE join keys on
# the cast and returns exactly the rows the comparison admits (NULL, -0.0,
# NaN, a BIGINT above 2^53). An INSERT keeps a plan, DDL
# and a hundredfold growth replace it; a comment's apostrophe opens no string
# in the key; a literal spelling random( is cached, a random() call is not.
# The statement protocol: a small statement costs exactly one request, its
# document ending the stream (an INSERT's or an aggregate's last page is held
# by the output sink until the task ends); a result larger than
# one fetch streams over several documents in order; a failure after the
# first pages is a FAILED document; a one-document drain commits to the
# result cache; a statement still open after its first document is
# cancellable; a forgotten query is 410 Gone; every document's bytes equal
# json.Marshal's.
go test -race -count=1 -run 'TestClusterSwitchMatchesSession|TestDeprecatedClusterFields|TestDistributedDisableSpill|TestDynamicFiltersDecidedAtPlanning|TestDistributedNonFiniteDoubles|TestJoinResidualNaNIsIEEE|TestKVIndexJoin|TestPlanTemplateMatchesFreshPlan|TestPlanValidity|TestPlanKeyCommentAlias|TestResultCacheDeterminismFromExpressions|TestTemplateLiteralsConcurrent|TestBigintDoubleJoinKey' .
go test -race -count=3 -run 'TestCompiledFragmentSharedByTasks|TestFragmentCacheKeysAndErrors' ./internal/exec/
go test -race -count=1 -run 'TestOuterJoinWaitsForPendingPairs|TestSemiResidualDecidesInRounds|TestDirectJoinIndexMatchesHashed' ./internal/operators/
go test -race -count=1 -run 'TestFragmentCacheMetrics|TestSwitchHeaders|TestStatementNonFiniteDoubles|TestWriteJSONFailureIs500|TestSmallStatementCostsOneRequest|TestLargeResultStreamsOverDocuments|TestFailureAfterFirstPagesIsFailedDocument|TestOneDocumentDrainCommitsToResultCache|TestQueryCancelEndpoint|TestCancel|TestForgottenQueryIsGone|TestStatementDocumentMatchesJSONMarshal' ./internal/httpapi/
go test -race -count=1 ./internal/wire/
go test -race -count=1 -run 'TestDisabledDynamicFiltersCreateNoFilterHub' ./internal/coordinator/

echo "==> a lost worker fails its query and the client retries (§IV-G)"
# Every shuffle fetch is delayed so the kill lands while the query is in
# flight (the test logs the victim's live tasks); the query fails with
# exec.ErrTaskLost, nothing leaks, and the retry on the survivors returns the
# baseline rows — for each of four victims, ten runs under -race.
go test -race -count=10 -run 'TestElasticKillWorkerMidQuery' .

echo "==> lake: orcish sections and footers are page-codec frames, nothing imports encoding/gob, and a file is cut at its stripes"
# One serialized form serves shuffle, spill and the lake; the gob
# format is gone, so an import of it anywhere in the module (tests included)
# fails the check. A lake file is one split per stripe
# (TestSplitsCutAtStripes, in the hive package), so a one-file table is
# scanned by both workers, whose drivers read the file through handles of
# their own and force lazy columns late (TestLakeFileReadByEveryWorker).
if go list -f '{{.ImportPath}}: {{join .Imports " "}} {{join .TestImports " "}} {{join .XTestImports " "}}' ./... | grep -E '(^| )encoding/gob( |$)'; then
  echo "encoding/gob is imported by the packages above" >&2
  exit 1
fi
go test -race -count=1 ./internal/orcish/ ./internal/connectors/hive/
go test -race -count=1 -run 'TestScanBytesReadAreFetchedBytes|TestChaosDamagedLakeFile|TestLakeFileReadByEveryWorker' .

echo "==> subqueries: IN and NOT IN keep the list form's rows; every plan node kind is planned"
# x IN (subquery) compares in the common type, as = does, and NOT IN is
# three-valued, its build replicated and its facts (a row, a NULL key) those
# of the whole build: checked against the list form in process, on HTTP
# workers that partition every other join, and with a build that spills, ten
# runs under -race. A fixed corpus planned through the coordinator meets every
# node type internal/plan declares.
go test -race -count=10 -run 'TestInSubqueryMatchesInList' .
go test -count=1 -run 'TestEveryPlanNodeIsPlanned' .

echo "==> one sort, one aggregate state, one row gather: Window, Sort and TopN"
# A window aggregate folds into the hash aggregation's state, so it equals
# GROUP BY k joined back (no ORDER BY) and the self-join grouped on (k, x)
# (ORDER BY x, the default RANGE frame) — BIGINT sums exact past 2^53 and
# near 2^63, NULLs, an all-NULL partition, -0.0, NaN, ±Inf, VARCHAR and DATE
# extremes, an empty input — in process and on HTTP workers. Sort, TopN and
# Window emit through the typed row gather the joins use, row for row what
# the boxed reference builds over flat, dictionary (shared and per page) and
# RLE pages with NULLs, an ARRAY column and an untyped all-NULL one.
go test -race -count=3 -run 'TestWindowAggregatesMatchGroupBy' .
go test -race -count=3 -run 'TestRowGatherMatchesReference' ./internal/operators/

echo "==> borrowed pages and released scratch are never read late (poison linked on under the differential walls; an aggregation lending to a hash sink included)"
# expr.poisonBorrowed makes every scratch arena poison the vectors it takes
# back: an operator that lends its output — a page processor, a lookup join,
# an aggregation — has its lent vectors overwritten before every page, and a
# finishing driver its every vector as it releases them; only a linker flag
# (or a test, for itself: TestJoinLentVectorsArePoisoned over flat vectors and
# over the index vectors of dictionary probe and build columns,
# TestAggregationLentVectorsArePoisoned over keys given back from the table's
# cells and kept beside it and every aggregate's result,
# TestFinishedDriverPoisonsItsScratch) can set it. A hash sink over more than
# one partition copies every row, so whatever feeds it lends:
# TestLentAggregationDifferential runs high-cardinality GROUP BYs whose partial
# aggregations lend to a two-partition hash shuffle against an interpreted
# one-worker cluster. The walls that reach an
# aggregation or a join through a lender live in these four packages (the
# root package's tables are stored dictionary-encoded, so its walls read a
# processor's lent index vectors; ./internal/exec holds the processor
# composed onto a dynamically filtered scan, TestDynFilteredScanGathersOnce,
# and the root package the dynamic-filter differentials that run it under
# every join type). A lazy lake scan lends too: TestLazyLakeLendingDifferential
# runs lake statements of every shape — released and kept, whole and sliced
# stripes, partitioned tables, dictionary columns with NULLs — against the
# eager read and a memory copy; ./internal/block holds the decode into an
# arena (TestDecodePageAtLeases). A processor lends an aggregation its
# pass-through columns under the filter's selection and a masked sum's values
# at its mask's rows: TestSelectionThroughAggregation (./internal/exec) runs
# flat, dictionary, RLE and lazy keys and arguments through it against
# gathered pages, and TestMaskedAggregates (the root package) masked sums
# against hand-worked rows. Hash tables give their arrays back to the
# table pool poisoned: TestReleasedTablesArePoisoned reads a released group
# table, join index and a DISTINCT closed unemitted, and
# TestOuterJoinEmitsAfterTheIndexGoesBack
# runs RIGHT and FULL joins' unmatched emission after the index went back.
go test -count=1 -ldflags '-X repro/internal/expr.poisonBorrowed=on' . ./internal/exec ./internal/operators ./internal/expr ./internal/block

echo "==> kernel + morsel bench smoke (1 iteration per benchmark)"
go test -run '^$' -bench 'HashAggBigintKey|HashAggVarcharKey|HashAggDictVarcharKey|HashAggRLEKey|HashJoinBuildProbe|HashJoinDictKey|HashPartitionPage|FilterSelectivity|MorselSkewScan|DynFilterFig6|ProjArithBigint|ProjArithDouble|ProjVarcharConcat|ProjTPCHQ1Proc|ProjTPCHQ6Proc' -benchtime 1x . ./internal/operators > /dev/null

echo "==> page codec allocation ceilings + bench smoke (no -race: the ceilings skip under it)"
go test -count=1 -run 'TestCodecAllocationCeilings' ./internal/block/
go test -run '^$' -bench 'CodecEncodeRaw|CodecEncodeFlate|CodecDecodeRaw|CodecDecodeFlate' -benchtime 1x -benchmem ./internal/block/ > /dev/null

echo "==> what a group, a build row and a probe row cost: allocation ceilings, accounting vs heap, a group table sized from its estimate (no -race, same reason), a wrong estimate changing no row (under -race), bench smoke"
# A fixed-layout key table stores no hash (it rehashes its cells as batchKeys
# hashes them), a join build indexes positions (a keyless one nothing), a
# keyless probe page allocates nothing per build row, and a CROSS join holds
# one output page of pairs at a time. Tables lease their arrays from the table
# pool: a second join build after the first one's probes ended, and a second
# presized aggregation after the first one emitted, allocate under a byte a
# row or group (warm-pool ceilings). A spilled aggregation's first page
# arrives having read at most a quarter of what it spilled: the drain emits a
# partition before it reads the next. Statistics a hundred times too large or
# too small change no row of h18, q78 or topk under a 2 MB per-node cap, in
# process and on HTTP workers, and reach the operators (under -race).
go test -count=1 -v -run 'TestSecondJoinBuildReusesItsIndex|TestSecondGroupTableReusesItsArrays|TestAggSpillAllocationCeiling|TestSpilledDrainEmitsAPartitionAtATime|TestGroupTableBytesPerGroup|TestGroupTableAllocatesOnce|TestPresizedTableReservesWhatItHolds|TestPresizeIsAHint|TestFinishedAggregationDropsItsTable|TestFixedTableRehashesAsBatchKeys|TestJoinBuildBytesPerRow|TestJoinBuildAllocatesOnce|TestJoinProbeAllocationCeiling|TestKeylessProbeAllocationFlat|TestCrossJoinOutputBounded' ./internal/operators/ | grep -E '^(---|ok|FAIL|panic)|bytes'
go test -count=1 -run 'TestGroupsPerInstance' ./internal/exec/
go test -race -count=1 -run 'TestGroupEstimate' .
go test -run '^$' -bench 'AggSpillRevokeDrain|HashJoinProbeParallel' -benchtime 1x -benchmem ./internal/operators/ > /dev/null
go test -run '^$' -bench 'KeyTableFixed1|KeyTableVarchar' -benchtime 20x -benchmem ./internal/operators/ | grep '^Benchmark'
go test -run '^$' -bench 'HashJoinBuildParallel' -benchtime 5x -benchmem -cpu 1,2 ./internal/operators/ | grep '^Benchmark'
go test -run '^$' -bench 'HashAggBigintKey|HashJoinBuildProbe|HashJoinDictKey' -benchtime 5x -benchmem . | grep '^Benchmark'

echo "==> filter -> project -> aggregate (flat and dictionary group keys; a second driver from its first page), dynamically filtered scan -> join -> aggregate, lazy lake scan -> filter -> aggregate and aggregate -> hash sink allocation ceilings, scratch leases + bench smoke (no -race, same reason)"
# Scratch is a lease (DESIGN.md "Scratch"): a driver's vectors go back to the
# pool when it finishes, so a second h01 driver and a fresh processor's
# selections allocate nothing for theirs on their first page; the arena's
# leases, rewinds, poison and lease check; one compiled program on two
# goroutines (-race: no kernel writes a slice it captured). A partial
# aggregation into a two-partition hash sink writes each group once: the
# sink's copy, from pages the aggregation lends it. The warm-pool ceilings
# hold the collector off from the warm-up's release to the end of the
# measurement (alloctest.HoldCollections): a collection in that window empties
# the pools they count on.
go test -count=1 -v -run 'TestFilterProjectAggAllocationCeiling|TestDynFilteredScanGathersOnce|TestLazyLakeScanAllocationCeiling|TestAggregationIntoHashSinkCopiesOnce|TestHashSinksTakeLentPages' ./internal/exec/ | grep -E '^(---|ok|FAIL|panic)|bytes'
go test -count=1 -run 'TestSelectionScratchSizedBySurvivors' ./internal/expr/
go test -count=1 -run 'TestArena' ./internal/block/
go test -race -count=10 -run 'TestProgramSharedByGoroutines|TestPredicatedProgramSharedByGoroutines' ./internal/expr/
# One predicate compiler: a predicate runs on the same selection kernels as a
# WHERE clause, a boolean SELECT column and a CASE WHEN condition under a
# filter's selection, and returns the interpreter's rows or error in each.
go test -race -count=3 -run 'TestPredicateTreesDifferential' ./internal/expr/
go test -run '^$' -bench 'FilterProjectAgg' -benchtime 1x -benchmem ./internal/exec/ > /dev/null
# An aggregation reads a processor's page through the filter's selection, and
# a masked sum its mask's rows only: h01's and q09's drivers over 300 000 rows
# report rows/s and B/row, once here so that the kernel-level figures can be
# taken again (-benchtime 20x) without the benchmark module.
go test -run '^$' -bench 'FilterAggregate' -benchtime 1x ./internal/exec/ > /dev/null

echo "==> kernels that do not stall: predicated selection at every pass ratio, an aggregation's runs (bench smoke)"
# A selection kernel appends by predication, so it costs the same per row at
# a 0.3 % and a 50 % pass ratio; a no-key aggregation folds each page as one
# group's run. Both benchmarks run once here so that they keep building; read
# their ns/row with -benchtime 20000x.
go test -run '^$' -bench 'SelectionKernel' -benchtime=1x ./internal/expr/ > /dev/null
go test -run '^$' -bench 'AggregateRun' -benchtime=1x ./internal/operators/ > /dev/null

echo "==> one ledger: what an operator reserves is the capacity it leased (§IV-F2)"
# Every table array is leased through its operator's memory context and given
# back through it, growth included. In every state of an aggregation (presized,
# grown, spilled, emitted; DISTINCT's, with no aggregates, too) and a join
# bridge (mid-build, built, probed, revoked after built, each grace-drain
# partition, cancelled),
# the context counts exactly the live arrays' capacity and the reservation is
# that plus what is kept beside them; a join index goes back once, after the
# last of four probes ending in random order on goroutines, and never after a
# cancellation (ten runs under -race). An aggregation that has spilled or seen
# no page leases nothing, so a reservation the pool cannot make fails instead
# of revoking it forever. The reservation tracks the heap within
# 1.25x, and the table ceilings hold, without -race (the allocation tests skip
# under it). The warm-pool ceilings once flaked on a loaded machine when the
# test's goroutine changed P between a give-back and a lease
# (alloctest.HoldCollections holds one P now): twenty runs each.
go test -race -count=10 -run 'TestReservationIsLeasedCapacity|TestJoinIndexGoesBackAfterTheLastProbe|TestEmptyAggregationHasNothingToRevoke' ./internal/operators/
go test -count=1 -run 'TestHashAggAccountingMatchesHeap|TestJoinBuildAccountingMatchesHeap|TestGroupTableBytesPerGroup|TestGroupTableAllocatesOnce|TestJoinBuildBytesPerRow|TestJoinBuildAllocatesOnce|TestPresizedTableReservesWhatItHolds|TestPresizeIsAHint' ./internal/operators/
go test -count=20 -run 'TestSecondGroupTableReusesItsArrays|TestSecondJoinBuildReusesItsIndex' ./internal/operators/
go test -count=20 -run 'TestLazyLakeScanAllocationCeiling' ./internal/exec/

if [ "$chaos_full" = 1 ]; then
  echo "==> chaos full sweep"
  CHAOS_SEED=7 CHAOS_FULL=1 go test -race -count=1 -v -run 'TestChaos' .
fi

if [ "$fuzz" = 1 ]; then
  echo "==> fuzz smoke: join position table, every join type with and without a residual, keyed and keyless, two probe operators finished as drivers finish them, against the per-row reference (10s)"
  go test -run '^$' -fuzz '^FuzzJoinIndex$' -fuzztime 10s ./internal/operators/
  echo "==> fuzz smoke: page codec decode (10s)"
  go test -fuzz '^FuzzPageCodecDecode$' -fuzztime 10s ./internal/block/
  echo "==> fuzz smoke: page codec round trip (10s)"
  go test -fuzz '^FuzzPageCodecRoundTrip$' -fuzztime 10s ./internal/block/
  echo "==> fuzz smoke: orcish footer and section decode (10s)"
  # Seeds are whole files; minimizing one takes longer than the smoke.
  go test -fuzz '^FuzzOrcishDecode$' -fuzztime 10s -fuzzminimizetime 1s ./internal/orcish/
  echo "==> fuzz smoke: SQL parser (10s)"
  go test -fuzz '^FuzzParser$' -fuzztime 10s ./internal/sqlparser/
  echo "==> fuzz smoke: two parsed expressions have one key exactly when their trees are equal (10s)"
  go test -run '^$' -fuzz '^FuzzExprKey$' -fuzztime 10s ./internal/sqlparser/
  echo "==> fuzz smoke: spill file decode (10s)"
  go test -fuzz '^FuzzSpillFileDecode$' -fuzztime 10s ./internal/spill/
  echo "==> fuzz smoke: spill file index (10s)"
  go test -fuzz '^FuzzSpillIndex$' -fuzztime 10s ./internal/spill/
  echo "==> fuzz smoke: dynamic-filter summary decode (10s)"
  go test -fuzz '^FuzzSummaryDecode$' -fuzztime 10s ./internal/dynfilter/
  echo "==> fuzz smoke: task create request decode (10s)"
  go test -fuzz '^FuzzCreateRequestDecode$' -fuzztime 10s ./internal/wire/
  echo "==> fuzz smoke: plan-cache keys: same-type literals and comments keep a key, a changed kept token moves it (10s)"
  go test -run '^$' -fuzz '^FuzzPlanKey$' -fuzztime 10s ./internal/serving/
  echo "==> fuzz smoke: an appended batch its summary calls disjoint from a domain holds no row the domain contains (10s)"
  go test -run '^$' -fuzz '^FuzzAppendDisjoint$' -fuzztime 10s ./internal/connector/
  echo "==> fuzz smoke: statement documents, random pages of every type and block encoding, against json.Marshal of the boxed rendering (10s)"
  go test -run '^$' -fuzz '^FuzzStatementDocument$' -fuzztime 10s ./internal/httpapi/
fi

echo "OK"
