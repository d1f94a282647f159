package presto

// Larger-than-memory benchmark (PR 9): a memory-cap sweep over the spill
// query shapes (uncapped vs 1/4 vs 1/16 of the measured working set) and a
// worker-kill recovery-latency measurement under materialized exchange.
// Writes git-SHA-stamped JSON to BENCH9_OUT (scripts/bench.sh sets it) so
// `go test ./...` stays fast.

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/shuffle"
	"repro/internal/spill"
	"repro/internal/workload"
)

type bench9Cap struct {
	Name              string  `json:"name"`
	CapBytes          int64   `json:"cap_bytes"` // 0 = uncapped
	WallMs            float64 `json:"wall_ms"`
	SpillFiles        int64   `json:"spill_files"`
	SpillBytesWritten int64   `json:"spill_bytes_written"`
	SpillBytesRead    int64   `json:"spill_bytes_read"`
	SlowdownVsUncap   float64 `json:"slowdown_vs_uncapped"`
}

type bench9Recovery struct {
	Workers         int     `json:"workers"`
	Runs            int     `json:"runs"`
	BaselineWallMs  float64 `json:"baseline_wall_ms"`
	KillWallMs      float64 `json:"kill_wall_ms"`
	RecoveryOverMs  float64 `json:"recovery_overhead_ms"`
	ReplayHits      int64   `json:"replay_hits"`
	SegmentsCreated int64   `json:"segments_created"`
}

type bench9Doc struct {
	Bench    string         `json:"bench"`
	SHA      string         `json:"sha"`
	Go       string         `json:"go"`
	Scale    float64        `json:"tpch_scale"`
	Sweep    []bench9Cap    `json:"memory_cap_sweep"`
	Recovery bench9Recovery `json:"worker_kill_recovery"`
}

// bench9SweepPhase runs every spill query against a cluster with the given
// per-node cap (0 = uncapped) and returns wall time plus spill-stat deltas.
// Rows are verified against the uncapped baseline — a benchmark that returns
// wrong answers measures nothing.
func bench9SweepPhase(t *testing.T, name string, capBytes int64, base map[string][]string) bench9Cap {
	t.Helper()
	cfg := ClusterConfig{Workers: 2, ThreadsPerWorker: 2,
		DisablePlanCache: true, DisableResultCache: true}
	if capBytes > 0 {
		cfg.SpillEnabled = true
		cfg.SpillDir = t.TempDir()
		cfg.PerNodeQueryMemoryBytes = capBytes
	}
	c := NewCluster(cfg)
	defer c.Close()
	c.Register(workload.LoadTPCHMemory("tpch", spillScale))

	sp0 := spill.CurrentStats()
	start := time.Now()
	for _, q := range spillQueries {
		rows, err := c.Query(q)
		if err != nil {
			t.Fatalf("%s %q: %v", name, q, err)
		}
		assertRows(t, fmt.Sprintf("%s: %s", name, q), roundedRows(rows), base[q])
	}
	wall := time.Since(start)
	sp1 := spill.CurrentStats()
	return bench9Cap{
		Name:              name,
		CapBytes:          capBytes,
		WallMs:            float64(wall.Microseconds()) / 1000,
		SpillFiles:        sp1.FilesCreated - sp0.FilesCreated,
		SpillBytesWritten: sp1.BytesWritten - sp0.BytesWritten,
		SpillBytesRead:    sp1.BytesRead - sp0.BytesRead,
	}
}

// bench9RecoveryRun executes the shuffle-heavy grouped aggregate on a fresh
// 4-worker materialized-exchange cluster, optionally killing one worker
// mid-query, and returns the wall time.
func bench9RecoveryRun(t *testing.T, base map[string][]string, kill bool) time.Duration {
	t.Helper()
	q := chaosQueries[1]
	c := NewCluster(ClusterConfig{Workers: 4, ThreadsPerWorker: 2, SpillDir: t.TempDir(),
		DisablePlanCache: true, DisableResultCache: true})
	defer c.Close()
	c.Register(workload.LoadTPCHMemory("tpch", chaosScale))

	start := time.Now()
	res, err := c.ExecuteSession(q, Session{Switches: exec.MaterializedExchange})
	if err != nil {
		t.Fatal(err)
	}
	if kill {
		go func() {
			time.Sleep(5 * time.Millisecond)
			c.KillWorker(1)
		}()
	}
	rows, err := res.All()
	if err != nil {
		t.Fatalf("recovery run (kill=%v): %v", kill, err)
	}
	wall := time.Since(start)
	assertRows(t, q, stringifyRows(rows), base[q])
	return wall
}

// TestSpillElasticBench writes BENCH9_OUT: the memory-cap sweep quantifies
// what running larger-than-memory costs (spill bytes and slowdown at 1/4 and
// 1/16 of the working set), and the recovery phase measures how much wall
// time a mid-query worker kill adds under materialized exchange versus a
// full restart (which would roughly double the baseline).
func TestSpillElasticBench(t *testing.T) {
	out := os.Getenv("BENCH9_OUT")
	if out == "" {
		t.Skip("set BENCH9_OUT=<file> to run the larger-than-memory benchmark")
	}
	base, peak := spillBaselineRows(t)
	chaosBase := baselineRows(t)

	floor := func(b int64) int64 {
		if b < 32<<10 {
			return 32 << 10
		}
		return b
	}
	sweep := []bench9Cap{
		bench9SweepPhase(t, "uncapped", 0, base),
		bench9SweepPhase(t, "cap-1/4", floor(peak/4), base),
		bench9SweepPhase(t, "cap-1/16", floor(peak/16), base),
	}
	for i := range sweep {
		if sweep[0].WallMs > 0 {
			sweep[i].SlowdownVsUncap = sweep[i].WallMs / sweep[0].WallMs
		}
	}

	const runs = 5
	sg0 := shuffle.CurrentSegmentStats()
	var baseWall, killWall time.Duration
	for i := 0; i < runs; i++ {
		baseWall += bench9RecoveryRun(t, chaosBase, false)
	}
	for i := 0; i < runs; i++ {
		killWall += bench9RecoveryRun(t, chaosBase, true)
	}
	sg1 := shuffle.CurrentSegmentStats()
	rec := bench9Recovery{
		Workers:         4,
		Runs:            runs,
		BaselineWallMs:  float64(baseWall.Microseconds()) / 1000 / runs,
		KillWallMs:      float64(killWall.Microseconds()) / 1000 / runs,
		ReplayHits:      sg1.ReplayHits - sg0.ReplayHits,
		SegmentsCreated: sg1.SegmentsCreated - sg0.SegmentsCreated,
	}
	rec.RecoveryOverMs = rec.KillWallMs - rec.BaselineWallMs

	doc := bench9Doc{
		Bench:    "larger-than-memory: spill cap sweep (uncapped vs 1/4 vs 1/16 working set) and worker-kill recovery latency under materialized exchange",
		SHA:      firstNonEmpty(os.Getenv("GIT_SHA"), "unknown"),
		Go:       runtime.Version(),
		Scale:    spillScale,
		Sweep:    sweep,
		Recovery: rec,
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, s := range sweep {
		t.Logf("%-9s wall=%.1fms spill=%d files %d bytes written (%.2fx uncapped)",
			s.Name, s.WallMs, s.SpillFiles, s.SpillBytesWritten, s.SlowdownVsUncap)
	}
	t.Logf("recovery: baseline=%.1fms kill=%.1fms overhead=%.1fms replayHits=%d",
		rec.BaselineWallMs, rec.KillWallMs, rec.RecoveryOverMs, rec.ReplayHits)

	if sweep[2].SpillFiles == 0 {
		t.Error("1/16 cap never spilled — sweep measured nothing")
	}
}
