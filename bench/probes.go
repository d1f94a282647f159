package main

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	presto "repro"
	"repro/internal/block"
	"repro/internal/connector"
	"repro/internal/connectors/tpch"
	"repro/internal/expr"
	"repro/internal/httpapi"
	"repro/internal/orcish"
	"repro/internal/plan"
	"repro/internal/shuffle"
	"repro/internal/spill"
	"repro/internal/wire"
	engineworkload "repro/internal/workload"
)

// The layer probes time single layers through their public functions, from
// outside, over one small fixed dataset (scale 1: 60 000 lineitem rows).
// They do a fixed amount of work, run once per traced run after the
// workload's own counters are read, and are the same on every workload.
const probeRounds = 5 // each probe reports the median of this many rounds

// medianOf runs fn rounds times and returns the median of what it reports.
func medianOf(rounds int, fn func() (float64, error)) (float64, error) {
	vals := make([]float64, 0, rounds)
	for i := 0; i < rounds; i++ {
		v, err := fn()
		if err != nil {
			return 0, err
		}
		vals = append(vals, v)
	}
	return median(vals), nil
}

func rawMB(pages []*block.Page) float64 {
	var n int64
	for _, p := range pages {
		n += p.SizeBytes()
	}
	return float64(n) / mb
}

func perSec(amount float64, start time.Time) float64 {
	return ratio(amount, time.Since(start).Seconds())
}

// runProbes fills in every probe metric. scratch is a directory inside the
// checkout for the files the disk probes write.
func runProbes(seed int64, scale float64, scratch string, out map[string]float64) error {
	dir, err := os.MkdirTemp(scratch, "probes-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	mem := engineworkload.LoadTPCHMemory("tpch", scale)
	eng := newLocalEngine(presto.ClusterConfig{DisableResultCache: true}, mem)
	defer eng.Close()
	lineitem := tpch.Generate("lineitem", scale, tpchPageRows)

	probes := []func() error{
		func() error { return probeExpr(eng, lineitem, scanAggStatements(seed, partCount(scale)), out) },
		func() error { return probeBlock(lineitem, out) },
		func() error { return probeWire(eng, seed, out) },
		func() error { return probeShuffle(lineitem, out) },
		func() error { return probeSpill(lineitem, dir, out) },
		func() error { return probeConnectors(lineitem, mem, scale, dir, out) },
		func() error { return probeHTTPAPI(eng, out) },
	}
	for _, p := range probes {
		if err := p(); err != nil {
			return err
		}
	}
	return nil
}

// liftProcessor finds the filter and projections the engine fuses into one
// page processor above the statement's scan, the way exec's pipeline
// compiler does, and returns them with the scan's column names.
func liftProcessor(n plan.Node) (filter expr.Expr, proj []expr.Expr, scan *plan.Scan) {
	if p, ok := n.(*plan.Project); ok {
		in := p.Input
		if f, ok := in.(*plan.Filter); ok {
			filter, in = f.Predicate, f.Input
		}
		if s, ok := in.(*plan.Scan); ok {
			return filter, p.Exprs, s
		}
	}
	for _, c := range n.Children() {
		if f, p, s := liftProcessor(c); s != nil {
			return f, p, s
		}
	}
	return nil, nil, nil
}

// probeExpr runs the page processor of scan_agg's h01 and h06 over the
// lineitem pages, single-threaded.
func probeExpr(eng *engine, lineitem []*block.Page, stmts []stmt, out map[string]float64) error {
	for _, id := range []string{"h01", "h06"} {
		var sql string
		for _, s := range stmts {
			if s.ID == id {
				sql = s.SQL
			}
		}
		logical, _, err := eng.coord.Plan(sql, presto.Session{})
		if err != nil {
			return fmt.Errorf("plan %s: %w", id, err)
		}
		filter, proj, scan := liftProcessor(logical)
		if scan == nil {
			return fmt.Errorf("%s: no Project over Scan in the optimized plan", id)
		}
		colIndex := map[string]int{}
		for i, c := range tpch.Columns("lineitem") {
			colIndex[c.Name] = i
		}
		var pages []*block.Page
		var rows float64
		for _, p := range lineitem {
			cols := make([]block.Block, len(scan.Columns))
			for i, name := range scan.Columns {
				cols[i] = p.Col(colIndex[name])
			}
			pages = append(pages, block.NewPage(cols...))
			rows += float64(p.RowCount())
		}
		pp := expr.NewPageProcessor(filter, proj)
		v, err := medianOf(probeRounds, func() (float64, error) {
			start := time.Now()
			for i := 0; i < 4; i++ {
				for _, p := range pages {
					if _, err := pp.Process(p); err != nil {
						return 0, err
					}
				}
			}
			return perSec(4*rows, start), nil
		})
		if err != nil {
			return fmt.Errorf("process %s: %w", id, err)
		}
		out["expr."+id+"_proc_rows_per_s"] = v
	}
	return nil
}

// probeBlock times the page codec both ways, plain and compressed.
func probeBlock(pages []*block.Page, out map[string]float64) error {
	raw := rawMB(pages)
	for _, compress := range []bool{false, true} {
		var frames [][]byte
		enc, err := medianOf(probeRounds, func() (float64, error) {
			frames = frames[:0]
			start := time.Now()
			for _, p := range pages {
				f, err := block.EncodePage(p, compress)
				if err != nil {
					return 0, err
				}
				frames = append(frames, f)
			}
			return perSec(raw, start), nil
		})
		if err != nil {
			return err
		}
		dec, err := medianOf(probeRounds, func() (float64, error) {
			start := time.Now()
			for _, f := range frames {
				if _, _, err := block.DecodePage(f); err != nil {
					return 0, err
				}
			}
			return perSec(raw, start), nil
		})
		if err != nil {
			return err
		}
		if compress {
			var n int
			for _, f := range frames {
				n += len(f)
			}
			out["block.encode_compressed_mb_per_s"], out["block.decode_compressed_mb_per_s"] = enc, dec
			out["block.encoded_bytes_per_raw_byte"] = ratio(float64(n)/mb, raw)
		} else {
			out["block.encode_mb_per_s"], out["block.decode_mb_per_s"] = enc, dec
		}
	}
	return nil
}

// probeWire serialises every fragment of the planned join statements.
func probeWire(eng *engine, seed int64, out map[string]float64) error {
	var encUs, decUs, sizes []float64
	for _, st := range joinStatements(seed) {
		_, dp, err := eng.coord.Plan(st.SQL, presto.Session{})
		if err != nil {
			return fmt.Errorf("plan %s: %w", st.ID, err)
		}
		for _, f := range dp.Fragments {
			var data []byte
			e, err := medianOf(probeRounds, func() (float64, error) {
				start := time.Now()
				var err error
				data, err = wire.MarshalFragment(f)
				return us(time.Since(start)), err
			})
			if err != nil {
				return fmt.Errorf("marshal %s fragment %d: %w", st.ID, f.ID, err)
			}
			d, err := medianOf(probeRounds, func() (float64, error) {
				start := time.Now()
				_, err := wire.UnmarshalFragment(data)
				return us(time.Since(start)), err
			})
			if err != nil {
				return fmt.Errorf("unmarshal %s fragment %d: %w", st.ID, f.ID, err)
			}
			encUs, decUs, sizes = append(encUs, e), append(decUs, d), append(sizes, float64(len(data)))
		}
	}
	out["wire.fragment_encode_us"] = median(encUs)
	out["wire.fragment_decode_us"] = median(decUs)
	out["wire.fragment_bytes"] = median(sizes)
	return nil
}

// probeShuffle pushes the pages through an output buffer, its partition's
// token fetch and an exchange client, all in memory.
func probeShuffle(pages []*block.Page, out map[string]float64) error {
	raw := rawMB(pages)
	v, err := medianOf(probeRounds, func() (float64, error) {
		start := time.Now()
		buf := shuffle.NewOutputBuffer(1, 0)
		client := shuffle.NewExchangeClient([]shuffle.Fetcher{&shuffle.LocalFetcher{Buf: buf.Partition(0)}}, 0)
		wake := make(chan struct{}, 1) // one pending wake-up is enough: the consumer re-polls
		client.SetNotify(func() {
			select {
			case wake <- struct{}{}:
			default:
			}
		})
		client.Start()
		defer client.Close()
		go func() {
			for _, p := range pages {
				for !buf.CanAdd() {
					time.Sleep(50 * time.Microsecond)
				}
				buf.Add(0, p)
			}
			buf.SetNoMorePages()
		}()
		got := 0
		for {
			p, ok, done, err := client.Poll()
			if err != nil {
				return 0, err
			}
			if ok {
				got += p.RowCount()
				continue
			}
			if done {
				break
			}
			<-wake
		}
		if got == 0 {
			return 0, fmt.Errorf("shuffle probe received no rows")
		}
		return perSec(raw, start), nil
	})
	out["shuffle.buffer_mb_per_s"] = v
	return err
}

// probeSpill writes the pages to one spill file across 16 partitions and
// reads the file back once.
func probeSpill(pages []*block.Page, dir string, out map[string]float64) error {
	raw := rawMB(pages)
	var path string
	w, err := medianOf(probeRounds, func() (float64, error) {
		if path != "" {
			spill.Remove(path)
		}
		start := time.Now()
		sw, err := spill.NewWriter(dir, "probe")
		if err != nil {
			return 0, err
		}
		for i, p := range pages {
			if err := sw.WritePage(i%16, p); err != nil {
				sw.Abort()
				return 0, err
			}
		}
		if err := sw.Finish(); err != nil {
			return 0, err
		}
		path = sw.Path()
		return perSec(raw, start), nil
	})
	if err != nil {
		return err
	}
	defer spill.Remove(path)
	r, err := medianOf(probeRounds, func() (float64, error) {
		start := time.Now()
		sr, err := spill.OpenReader(path)
		if err != nil {
			return 0, err
		}
		defer sr.Close()
		for {
			_, frame, err := sr.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return 0, err
			}
			if _, _, err := block.DecodePage(frame); err != nil {
				return 0, err
			}
		}
		return perSec(raw, start), nil
	})
	out["spill.write_mb_per_s"], out["spill.read_mb_per_s"] = w, r
	return err
}

// scanAll drains every split of a table through the connector API and
// returns the rows it saw.
func scanAll(conn connector.Connector, table string) (int64, error) {
	handle := plan.TableHandle{Catalog: conn.Name(), Table: table}
	var cols []string
	for _, c := range conn.Table(table).Columns {
		cols = append(cols, c.Name)
	}
	src, err := conn.Splits(handle)
	if err != nil {
		return 0, err
	}
	defer src.Close()
	var rows int64
	for {
		batch, err := src.NextBatch(64)
		if err != nil {
			return 0, err
		}
		for _, sp := range batch.Splits {
			ps, err := conn.PageSource(sp, cols, handle)
			if err != nil {
				return 0, err
			}
			for {
				p, err := ps.NextPage()
				if err != nil {
					ps.Close()
					return 0, err
				}
				if p == nil {
					break
				}
				rows += int64(p.LoadLazy().RowCount())
			}
			ps.Close()
		}
		if batch.Done {
			return rows, nil
		}
	}
}

// probeConnectors scans lineitem through the memory and hive connectors and
// writes it once as an orcish file.
func probeConnectors(lineitem []*block.Page, mem connector.Connector, scale float64, dir string, out map[string]float64) error {
	var rows float64
	for _, p := range lineitem {
		rows += float64(p.RowCount())
	}
	scan := func(conn connector.Connector) (float64, error) {
		return medianOf(probeRounds, func() (float64, error) {
			start := time.Now()
			n, err := scanAll(conn, "lineitem")
			if err == nil && float64(n) != rows {
				err = fmt.Errorf("%s scan saw %d rows, generator made %v", conn.Name(), n, rows)
			}
			return perSec(rows, start), err
		})
	}
	var err error
	if out["connectors.memconn_scan_rows_per_s"], err = scan(mem); err != nil {
		return err
	}
	lake, err := engineworkload.LoadTPCHHiveConfig("lake", scale, lakeConfig(filepath.Join(dir, "lake")))
	if err != nil {
		return err
	}
	if out["connectors.hive_scan_rows_per_s"], err = scan(lake); err != nil {
		return err
	}
	var meta []orcish.ColumnMeta
	for _, c := range tpch.Columns("lineitem") {
		meta = append(meta, orcish.ColumnMeta{Name: c.Name, T: c.T})
	}
	raw := rawMB(lineitem)
	out["orcish.write_mb_per_s"], err = medianOf(probeRounds, func() (float64, error) {
		start := time.Now()
		err := orcish.WriteFile(filepath.Join(dir, "probe.orcish"), meta, lineitem, 4096)
		return perSec(raw, start), err
	})
	return err
}

// probeHTTPAPI is what the statement protocol adds to the smallest
// statement: SELECT 1 through /v1/statement minus the same through the
// coordinator's Go API.
func probeHTTPAPI(eng *engine, out map[string]float64) error {
	const n = 200
	srv := httptest.NewServer(httpapi.NewServer(eng.coord).Handler())
	defer srv.Close()
	proto := statementClient{http: &http.Client{Transport: &http.Transport{}}, url: srv.URL, coord: eng.coord}
	defer proto.http.CloseIdleConnections()
	var direct, over []float64
	for i := 0; i < n; i++ {
		r := eng.run("SELECT 1")
		if r.err != nil {
			return r.err
		}
		direct = append(direct, us(r.latency()))
		r = proto.run("SELECT 1")
		if r.err != nil {
			return r.err
		}
		over = append(over, us(r.latency()))
	}
	out["httpapi.roundtrip_us"] = median(over) - median(direct)
	return nil
}
