package experiments

import (
	"fmt"
	"os"
	"strings"
	"time"

	"repro"
	"repro/internal/workload"
)

// LazyResult compares lazy vs eager column materialization (§V-D). The
// paper reports that lazy loading on a Batch ETL production sample reduced
// data fetched by 78%, cells loaded by 22%, and total CPU by 14%.
type LazyResult struct {
	EagerBytes, LazyBytes int64
	EagerCPU, LazyCPU     time.Duration
	EagerWall, LazyWall   time.Duration
}

// RunLazy measures a selective filter over a wide warehouse table with lazy
// materialization on and off. The query touches all columns in the
// projection but the filter passes few rows, so most cells of most stripes
// need never be fetched or decoded when lazy loading is on.
func RunLazy(opt Options) (*LazyResult, error) {
	opt = opt.Defaults()
	res := &LazyResult{}
	// A highly selective, non-sargable filter over a wide projection: the
	// predicate cannot be pushed into stripe statistics (it is a modular
	// expression), so every stripe's filter columns load — but in lazy mode
	// the seven projection-only columns load only for stripes where some
	// row survives, which is rare at ~1/4000 selectivity.
	query := `SELECT l_orderkey, l_quantity, l_extendedprice,
	                 l_tax, l_returnflag, l_shipinstruct, l_shipmode, l_shipdate
	          FROM lake.lineitem
	          WHERE mod(l_partkey * 37 + l_suppkey, 4001) = 0`

	for _, lazy := range []bool{false, true} {
		dir, err := os.MkdirTemp("", "presto-lazy-")
		if err != nil {
			return nil, err
		}
		cluster := presto.NewCluster(presto.ClusterConfig{Workers: opt.Workers, ThreadsPerWorker: 2})
		conn, err := workload.LoadTPCHHiveLazy("lake", dir, opt.Scale, lazy)
		if err != nil {
			cluster.Close()
			os.RemoveAll(dir)
			return nil, err
		}
		cluster.Register(conn)

		start := time.Now()
		r, err := cluster.Execute(query)
		if err == nil {
			_, err = r.All()
		}
		wall := time.Since(start)
		// The query's own stats: CPU, and the bytes its scans' sources fetched.
		var st presto.QueryStats
		if err == nil {
			st, _ = cluster.QueryStats(r.QueryID)
		}
		cluster.Close()
		os.RemoveAll(dir)
		if err != nil {
			return nil, err
		}
		bytes, cpu := st.BytesRead, time.Duration(st.CPUNanos)

		if lazy {
			res.LazyBytes, res.LazyCPU, res.LazyWall = bytes, cpu, wall
		} else {
			res.EagerBytes, res.EagerCPU, res.EagerWall = bytes, cpu, wall
		}
	}
	return res, nil
}

// Report renders paper-vs-measured savings.
func (r *LazyResult) Report() string {
	var sb strings.Builder
	sb.WriteString("§V-D — lazy data loading ablation (paper: -78% bytes, -22% cells, -14% CPU)\n")
	fmt.Fprintf(&sb, "%-10s %14s %14s %14s\n", "mode", "bytes read", "cpu", "wall")
	fmt.Fprintf(&sb, "%-10s %14d %14s %14s\n", "eager", r.EagerBytes, r.EagerCPU.Round(time.Millisecond), r.EagerWall.Round(time.Millisecond))
	fmt.Fprintf(&sb, "%-10s %14d %14s %14s\n", "lazy", r.LazyBytes, r.LazyCPU.Round(time.Millisecond), r.LazyWall.Round(time.Millisecond))
	if r.EagerBytes > 0 {
		fmt.Fprintf(&sb, "bytes saved: %.0f%%\n", 100*(1-float64(r.LazyBytes)/float64(r.EagerBytes)))
	}
	fmt.Fprintf(&sb, "shape check: lazy reads fewer bytes → %v\n", r.LazyBytes < r.EagerBytes)
	return sb.String()
}
