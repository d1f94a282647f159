package main

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/types"
)

// stmtKind says how a statement's output is checked.
type stmtKind int

const (
	// kindRead compares the rows with the oracle's rows for RefSQL.
	kindRead stmtKind = iota
	// kindRowCount expects one bigint row: the number of rows RefSQL yields
	// on the oracle (CREATE TABLE AS and INSERT report rows written).
	kindRowCount
	// kindDDL expects success and no particular rows (DROP TABLE).
	kindDDL
)

// stmt is one benchmark statement. The benchmark owns its SQL: every
// ORDER BY ... LIMIT sorts on exact-typed keys (bigint, date, varchar) with a
// unique tiebreaker, so every configuration of the engine returns the same
// row set and the checker can compare row for row.
type stmt struct {
	ID  string
	SQL string
	// RefSQL is what the oracle runs to produce the reference ("" = SQL).
	RefSQL string
	Kind   stmtKind
	// Ordered marks a result with a total order; others compare as sorted
	// multisets.
	Ordered bool
}

func (s stmt) refSQL() string {
	if s.RefSQL != "" {
		return s.RefSQL
	}
	return s.SQL
}

// tpchBaseDate is 1994-01-01 in days since the epoch, and tpchDateSpan the
// number of days the generator spreads ship and order dates over.
const (
	tpchBaseDate = 8766
	tpchDateSpan = 2557
)

func dateLit(days int) string { return "DATE '" + types.FormatDate(int64(days)) + "'" }

func pick(r *rand.Rand, vals []string) string { return vals[r.Intn(len(vals))] }

func between(r *rand.Rand, lo, hi int) int { return lo + r.Intn(hi-lo+1) }

var (
	shipModes = []string{"AIR", "FOB", "MAIL", "RAIL", "REG AIR", "SHIP", "TRUCK"}
	segments  = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"}
	regions   = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}
)

// scanAggStatements is the scan_agg list: nine single-table lineitem
// statements whose cost is scan -> filter -> project -> partial aggregation.
// The seed moves literals so that the rows each statement touches change
// from seed to seed while the amount of work does not: windows and bands keep
// their width and only slide, thresholds move by under a percent of the rows. partN is the generated part-table size (for the key range).
func scanAggStatements(seed int64, partN int) []stmt {
	r := rand.New(rand.NewSource(seed))
	li := "tpch.lineitem"

	cutoff := tpchBaseDate + tpchDateSpan - between(r, 80, 100)
	year := tpchBaseDate + 365*between(r, 0, 5) + between(r, 0, 30)
	disc := between(r, 2, 8)
	qty := between(r, 23, 25)
	band := between(r, 0, 3)
	qcap := between(r, 24, 26)
	skipLine := between(r, 1, 7)
	since := tpchBaseDate + between(r, 200, 230)
	modes := append([]string(nil), shipModes...)
	r.Shuffle(len(modes), func(i, j int) { modes[i], modes[j] = modes[j], modes[i] })
	modeList := "'" + strings.Join(modes[:3], "', '") + "'"
	keyLo := between(r, 0, partN-40)
	after := tpchBaseDate + between(r, 720, 740)

	return []stmt{
		{ID: "h01", Ordered: true, SQL: fmt.Sprintf(`
			SELECT l_returnflag, l_shipmode,
			       sum(l_quantity), sum(l_extendedprice),
			       sum(l_extendedprice * (1 - l_discount)),
			       sum(l_extendedprice * (1 - l_discount) * (1 + l_tax)),
			       avg(l_quantity), avg(l_extendedprice), avg(l_discount), count(*)
			FROM %s
			WHERE l_shipdate <= %s
			GROUP BY l_returnflag, l_shipmode
			ORDER BY l_returnflag, l_shipmode`, li, dateLit(cutoff))},
		{ID: "h06", SQL: fmt.Sprintf(`
			SELECT sum(l_extendedprice * l_discount), count(*)
			FROM %s
			WHERE l_shipdate >= %s AND l_shipdate < %s
			  AND l_discount BETWEEN %.2f AND %.2f AND l_quantity < %d`,
			li, dateLit(year), dateLit(year+365), float64(disc-1)/100, float64(disc+1)/100, qty)},
		// q09 carries the totals the benchmark recomputes from the generator.
		{ID: "q09", SQL: fmt.Sprintf(`
			SELECT count(*), sum(l_quantity),
			  sum(CASE WHEN l_quantity BETWEEN %d AND %d THEN l_extendedprice ELSE 0 END),
			  sum(CASE WHEN l_quantity BETWEEN %d AND %d THEN l_extendedprice ELSE 0 END),
			  sum(CASE WHEN l_quantity BETWEEN %d AND %d THEN l_extendedprice ELSE 0 END),
			  sum(CASE WHEN l_quantity BETWEEN %d AND %d THEN l_extendedprice ELSE 0 END),
			  sum(CASE WHEN l_quantity BETWEEN %d AND %d THEN l_extendedprice ELSE 0 END)
			FROM %s`,
			1, 10+band, 11+band, 20+band, 21+band, 30+band, 31+band, 40+band, 41+band, 50, li)},
		{ID: "q28", SQL: fmt.Sprintf(`
			SELECT count(*), avg(l_extendedprice), min(l_extendedprice), max(l_extendedprice)
			FROM %s
			WHERE l_discount BETWEEN 0.02 AND 0.06 AND l_quantity < %d`, li, qcap)},
		{ID: "topk", Ordered: true, SQL: fmt.Sprintf(`
			SELECT l_partkey, count(*) AS c
			FROM %s
			WHERE l_linenumber <> %d
			GROUP BY l_partkey
			ORDER BY c DESC, l_partkey
			LIMIT 100`, li, skipLine)},
		{ID: "concat", Ordered: true, SQL: fmt.Sprintf(`
			SELECT l_shipmode || '-' || l_shipinstruct AS k, count(*), sum(l_quantity)
			FROM %s
			WHERE l_shipdate >= %s
			GROUP BY l_shipmode || '-' || l_shipinstruct
			ORDER BY k`, li, dateLit(since))},
		{ID: "like", SQL: fmt.Sprintf(`
			SELECT count(*)
			FROM %s
			WHERE l_shipinstruct LIKE '%%BACK%%' AND l_shipmode IN (%s)`, li, modeList)},
		{ID: "point", SQL: fmt.Sprintf(`
			SELECT l_orderkey, l_partkey, l_linenumber, l_quantity, l_extendedprice, l_shipdate
			FROM %s
			WHERE l_partkey BETWEEN %d AND %d`, li, keyLo, keyLo+33)},
		{ID: "q50", Ordered: true, SQL: fmt.Sprintf(`
			SELECT l_returnflag, l_shipmode, count(*)
			FROM %s
			WHERE l_shipdate > %s
			GROUP BY l_returnflag, l_shipmode
			ORDER BY l_returnflag, l_shipmode`, li, dateLit(after))},
	}
}

// joinStatements is the list join_local and join_http share: nine join
// statements where hash build/probe, dynamic filters, join reordering and
// the shuffle dominate. Fig. 6 q64 (lineitem, supplier, nation and part with a
// top-n) is left out: it hangs now and then (README, engine defect 2); q80
// stands in, at about the same cost, so the median statement stays where it was.
func joinStatements(seed int64) []stmt {
	r := rand.New(rand.NewSource(seed))
	c := "tpch"

	seg := pick(r, segments)
	q3date := tpchBaseDate + between(r, 1250, 1300)
	region := pick(r, regions)
	q5year := tpchBaseDate + 365*between(r, 1, 5)
	q18qty := between(r, 275, 290)
	acct := between(r, -50, 50)
	price := between(r, 195, 205) * 1000
	flag := pick(r, []string{"A", "N", "R"})
	q80since := tpchBaseDate + between(r, 0, 30)
	sizeLo := between(r, 40, 44)
	qtyBand := between(r, 1, 45)

	return []stmt{
		{ID: "h03", Ordered: true, SQL: fmt.Sprintf(`
			SELECT l_orderkey, count(*) AS lines, sum(l_extendedprice * (1 - l_discount))
			FROM %[1]s.customer
			JOIN %[1]s.orders ON c_custkey = o_custkey
			JOIN %[1]s.lineitem ON l_orderkey = o_orderkey
			WHERE c_mktsegment = '%[2]s' AND o_orderdate < %[3]s AND l_shipdate > %[3]s
			GROUP BY l_orderkey
			ORDER BY lines DESC, l_orderkey
			LIMIT 10`, c, seg, dateLit(q3date))},
		{ID: "h05", Ordered: true, SQL: fmt.Sprintf(`
			SELECT n_name, count(*), sum(l_extendedprice * (1 - l_discount))
			FROM %[1]s.customer
			JOIN %[1]s.orders ON c_custkey = o_custkey
			JOIN %[1]s.lineitem ON l_orderkey = o_orderkey
			JOIN %[1]s.supplier ON l_suppkey = s_suppkey
			JOIN %[1]s.nation ON s_nationkey = n_nationkey
			JOIN %[1]s.region ON n_regionkey = r_regionkey
			WHERE r_name = '%[2]s' AND c_nationkey = s_nationkey
			  AND o_orderdate >= %[3]s AND o_orderdate < %[4]s
			GROUP BY n_name
			ORDER BY n_name`, c, region, dateLit(q5year), dateLit(q5year+365))},
		{ID: "h18", Ordered: true, SQL: fmt.Sprintf(`
			SELECT c_name, c_custkey, o_orderkey, o_orderdate, count(*), sum(l_quantity)
			FROM %[1]s.customer
			JOIN %[1]s.orders ON c_custkey = o_custkey
			JOIN %[1]s.lineitem ON o_orderkey = l_orderkey
			WHERE o_orderkey IN (
				SELECT l_orderkey FROM %[1]s.lineitem GROUP BY l_orderkey HAVING sum(l_quantity) > %[2]d)
			GROUP BY c_name, c_custkey, o_orderkey, o_orderdate
			ORDER BY o_orderdate, o_orderkey
			LIMIT 100`, c, q18qty)},
		{ID: "q26", Ordered: true, SQL: fmt.Sprintf(`
			SELECT p_brand, count(*), avg(l_quantity), avg(l_extendedprice)
			FROM %[1]s.lineitem
			JOIN %[1]s.part ON l_partkey = p_partkey
			JOIN %[1]s.supplier ON l_suppkey = s_suppkey
			WHERE s_acctbal > %[2]d
			GROUP BY p_brand
			ORDER BY p_brand`, c, acct)},
		{ID: "q35", Ordered: true, SQL: fmt.Sprintf(`
			SELECT c_mktsegment, count(*)
			FROM %[1]s.customer
			WHERE c_custkey IN (SELECT o_custkey FROM %[1]s.orders WHERE o_totalprice > %[2]d)
			GROUP BY c_mktsegment
			ORDER BY c_mktsegment`, c, price)},
		{ID: "q54", Ordered: true, SQL: fmt.Sprintf(`
			SELECT c_mktsegment, count(*), sum(l_extendedprice * (1 - l_discount))
			FROM %[1]s.customer
			JOIN %[1]s.orders ON c_custkey = o_custkey
			JOIN %[1]s.lineitem ON o_orderkey = l_orderkey
			GROUP BY c_mktsegment
			ORDER BY c_mktsegment`, c)},
		{ID: "q80", Ordered: true, SQL: fmt.Sprintf(`
			SELECT p_brand, count(*),
			       sum(CASE WHEN l_returnflag = '%[2]s' THEN 0 ELSE l_extendedprice END),
			       sum(CASE WHEN l_returnflag = '%[2]s' THEN l_extendedprice ELSE 0 END)
			FROM %[1]s.lineitem JOIN %[1]s.part ON l_partkey = p_partkey
			WHERE l_shipdate >= %[3]s
			GROUP BY p_brand
			ORDER BY p_brand`, c, flag, dateLit(q80since))},
		// q78 carries the totals the benchmark recomputes from the generator.
		{ID: "q78", Ordered: true, SQL: fmt.Sprintf(`
			SELECT o_orderstatus, count(*), sum(total_lines)
			FROM %[1]s.orders JOIN (
				SELECT l_orderkey, count(*) AS total_lines FROM %[1]s.lineitem GROUP BY l_orderkey
			) l ON o_orderkey = l.l_orderkey
			GROUP BY o_orderstatus
			ORDER BY o_orderstatus`, c)},
		{ID: "q82", Ordered: true, SQL: fmt.Sprintf(`
			SELECT p_name, p_size, count(*)
			FROM %[1]s.part JOIN %[1]s.lineitem ON p_partkey = l_partkey
			WHERE p_size BETWEEN %[2]d AND %[3]d AND l_quantity BETWEEN %[4]d AND %[5]d
			GROUP BY p_name, p_size
			ORDER BY p_name
			LIMIT 40`, c, sizeLo, sizeLo+4, qtyBand, qtyBand+4)},
	}
}

// spillSince is the seeded ship-date floor of the spill_etl transform; the
// generator-side check applies the same floor.
func spillSince(seed int64) int {
	return tpchBaseDate + between(rand.New(rand.NewSource(seed)), 60, 80)
}

// spillStatements is the spill_etl list: a CREATE TABLE AS whose aggregation
// spills and whose output lands as orcish files in the lake, a read of the new
// table, an aggregating scan of the lake, a second spilling aggregation, and
// the DROP. The list runs in this order every pass (the table must exist
// before it is read). Three statements are heavy and two light, so the
// median statement is the lake scan and not a millisecond read.
func spillStatements(seed int64) []stmt {
	since := dateLit(spillSince(seed))
	summary := fmt.Sprintf(`
		SELECT l_partkey, l_returnflag,
		       sum(l_quantity) AS qty,
		       sum(l_extendedprice * (1 - l_discount)) AS revenue,
		       count(*) AS line_count
		FROM lake.lineitem
		WHERE l_shipdate >= %s
		GROUP BY l_partkey, l_returnflag`, since)
	return []stmt{
		{ID: "ctas", Kind: kindRowCount, SQL: "CREATE TABLE lake.summ AS " + summary, RefSQL: summary},
		// totals carries the numbers the benchmark recomputes from the generator.
		{ID: "totals",
			SQL:    `SELECT count(*), sum(line_count), sum(qty), sum(revenue) FROM lake.summ`,
			RefSQL: `SELECT count(*), sum(line_count), sum(qty), sum(revenue) FROM (` + summary + `) summ`},
		{ID: "lakescan", Ordered: true, SQL: fmt.Sprintf(`
			SELECT l_returnflag, l_shipmode, count(*), sum(l_quantity), min(l_shipdate), max(l_shipdate)
			FROM lake.lineitem
			WHERE l_shipdate >= %s
			GROUP BY l_returnflag, l_shipmode
			ORDER BY l_returnflag, l_shipmode`, since)},
		{ID: "byorder", Ordered: true, SQL: `
			SELECT l_orderkey, count(*) AS c, sum(l_quantity)
			FROM lake.lineitem
			GROUP BY l_orderkey
			ORDER BY c DESC, l_orderkey
			LIMIT 100`},
		{ID: "drop", Kind: kindDDL, SQL: "DROP TABLE lake.summ"},
	}
}

// listHash fingerprints a statement list, so a test can show that the same
// seed gives the same inputs and another seed gives others.
func listHash(list []stmt) string {
	h := sha256.New()
	for _, s := range list {
		fmt.Fprintf(h, "%s\x00%s\x00%s\x00%d\x00%v\x01", s.ID, s.SQL, s.RefSQL, s.Kind, s.Ordered)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}
