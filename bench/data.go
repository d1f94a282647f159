package main

import (
	"repro/internal/connectors/hive"
	"repro/internal/connectors/tpch"
)

// Positions of the lineitem columns the generator-side checks read.
const (
	liOrderKey   = 0
	liPartKey    = 1
	liQuantity   = 4
	liReturnFlag = 8
	liShipDate   = 9
)

// tpchPageRows is the page size workload.LoadTPCHMemory and
// workload.LoadTPCHHiveConfig generate with. The generator is deterministic
// in (table, scale, page size), so the pages the benchmark generates for its
// own checks hold the rows the catalogs were loaded with; the seed never
// reaches the data, only the statements.
const tpchPageRows = 4096

// lakeConfig is the hive catalog of spill_etl and the connector probe. No
// simulated read latency: sleeps would only add idle time to what the
// benchmark measures.
func lakeConfig(dir string) hive.Config {
	return hive.Config{Dir: dir, CollectStats: true, LazyReads: true, StripeRows: 4096}
}

// partCount is the size of the part table at a scale: lineitem's l_partkey
// is drawn from [0, partCount).
func partCount(scale float64) int { return int(float64(tpch.Sizes()["part"]) * scale) }

// lineitemFacts are totals over the generated lineitem rows with
// l_shipdate >= since, computed from the pages alone. Quantities are whole
// numbers, so their sum is exact in any summation order.
type lineitemFacts struct {
	rows           int64
	sumQuantity    int64
	distinctOrders int64
	// partFlagGroups counts distinct (l_partkey, l_returnflag) pairs.
	partFlagGroups int64
}

func generatedLineitemFacts(scale float64, since int64) lineitemFacts {
	var f lineitemFacts
	orders := map[int64]struct{}{}
	type pf struct {
		part int64
		flag string
	}
	groups := map[pf]struct{}{}
	for _, p := range tpch.Generate("lineitem", scale, tpchPageRows) {
		ok, pk, qty := p.Col(liOrderKey), p.Col(liPartKey), p.Col(liQuantity)
		flag, ship := p.Col(liReturnFlag), p.Col(liShipDate)
		for i := 0; i < p.RowCount(); i++ {
			if ship.Long(i) < since {
				continue
			}
			f.rows++
			f.sumQuantity += int64(qty.Double(i))
			orders[ok.Long(i)] = struct{}{}
			groups[pf{pk.Long(i), flag.Str(i)}] = struct{}{}
		}
	}
	f.distinctOrders = int64(len(orders))
	f.partFlagGroups = int64(len(groups))
	return f
}
