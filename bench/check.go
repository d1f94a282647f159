package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/types"
)

// relTol is the relative tolerance between two DOUBLE cells. The engine sums
// doubles in a different order per configuration (partial aggregation per
// driver, vectorized kernels), so the last digits differ: TPC-H q6 sums to
// 1.1529737339700025e+07 on the default engine and ...699984e+07 on the
// single-threaded interpreted oracle. Everything else compares exactly.
const relTol = 1e-9

type cellKind byte

const (
	cellNull cellKind = iota
	cellInt
	cellFloat
	cellStr
	cellBool
)

// cell is one result value in the form both the in-process API and the JSON
// protocol can be brought to. Dates are their ISO string, as the protocol
// renders them.
type cell struct {
	kind cellKind
	i    int64
	f    float64
	s    string
}

func (c cell) String() string {
	switch c.kind {
	case cellNull:
		return "NULL"
	case cellInt:
		return strconv.FormatInt(c.i, 10)
	case cellFloat:
		return strconv.FormatFloat(c.f, 'g', -1, 64)
	case cellBool:
		return strconv.FormatBool(c.i != 0)
	}
	return strconv.Quote(c.s)
}

func cellOf(v types.Value) cell {
	if v.Null {
		return cell{}
	}
	switch v.T {
	case types.Bigint:
		return cell{kind: cellInt, i: v.I}
	case types.Double:
		return cell{kind: cellFloat, f: v.F}
	case types.Boolean:
		if v.B {
			return cell{kind: cellBool, i: 1}
		}
		return cell{kind: cellBool}
	case types.Date:
		return cell{kind: cellStr, s: types.FormatDate(v.I)}
	}
	return cell{kind: cellStr, s: v.String()}
}

func cellsOf(rows [][]types.Value) [][]cell {
	out := make([][]cell, len(rows))
	for i, r := range rows {
		out[i] = make([]cell, len(r))
		for j, v := range r {
			out[i][j] = cellOf(v)
		}
	}
	return out
}

// cellOfJSON converts one value of a protocol document decoded with
// UseNumber. The protocol writes a DOUBLE with an integral value without a
// fraction, so a number without one may be either type; cellsEqual compares
// an int with a float numerically.
func cellOfJSON(v interface{}) (cell, error) {
	switch x := v.(type) {
	case nil:
		return cell{}, nil
	case bool:
		if x {
			return cell{kind: cellBool, i: 1}, nil
		}
		return cell{kind: cellBool}, nil
	case string:
		return cell{kind: cellStr, s: x}, nil
	case json.Number:
		if !strings.ContainsAny(string(x), ".eE") {
			if i, err := x.Int64(); err == nil {
				return cell{kind: cellInt, i: i}, nil
			}
		}
		f, err := x.Float64()
		if err != nil {
			return cell{}, fmt.Errorf("number %q: %w", x, err)
		}
		return cell{kind: cellFloat, f: f}, nil
	}
	return cell{}, fmt.Errorf("unexpected JSON value %T", v)
}

func (c cell) numeric() (float64, bool) {
	switch c.kind {
	case cellInt:
		return float64(c.i), true
	case cellFloat:
		return c.f, true
	}
	return 0, false
}

func cellsEqual(a, b cell) bool {
	if a.kind == cellFloat || b.kind == cellFloat {
		x, okx := a.numeric()
		y, oky := b.numeric()
		if !okx || !oky {
			return false
		}
		if x == y || (math.IsNaN(x) && math.IsNaN(y)) {
			return true
		}
		return math.Abs(x-y) <= relTol*math.Max(math.Abs(x), math.Abs(y))
	}
	return a == b
}

// sortKey orders rows for the multiset comparison: exact cells verbatim and
// doubles at six significant digits, so two results that differ only within
// the tolerance sort the same way.
func sortKey(row []cell) string {
	var sb strings.Builder
	for _, c := range row {
		if c.kind == cellFloat {
			sb.WriteString(strconv.FormatFloat(c.f, 'e', 5, 64))
		} else {
			sb.WriteString(c.String())
		}
		sb.WriteByte(0)
	}
	return sb.String()
}

func sortedRows(rows [][]cell) [][]cell {
	keys := make([]string, len(rows))
	idx := make([]int, len(rows))
	for i, r := range rows {
		keys[i] = sortKey(r)
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return keys[idx[a]] < keys[idx[b]] })
	out := make([][]cell, len(rows))
	for i, j := range idx {
		out[i] = rows[j]
	}
	return out
}

// compareRows reports how got differs from want, or nil. Ordered results
// compare position by position; others as sorted multisets.
func compareRows(got, want [][]cell, ordered bool) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	if !ordered {
		got, want = sortedRows(got), sortedRows(want)
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			return fmt.Errorf("row %d has %d columns, want %d", i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if !cellsEqual(got[i][j], want[i][j]) {
				return fmt.Errorf("row %d column %d is %s, want %s", i, j, got[i][j], want[i][j])
			}
		}
	}
	return nil
}

// expectation is what one statement's output is held to.
type expectation struct {
	kind    stmtKind
	ordered bool
	rows    [][]cell
	// self is a second check against numbers the benchmark computed from the
	// generator's pages, independent of any engine.
	self func(rows [][]cell) error
}

func (e *expectation) check(got [][]cell) error {
	switch e.kind {
	case kindDDL:
		return nil
	case kindRowCount:
		if len(got) != 1 || len(got[0]) != 1 || got[0][0].kind != cellInt {
			return fmt.Errorf("want one bigint row count, got %v", got)
		}
		if got[0][0].i != int64(len(e.rows)) {
			return fmt.Errorf("wrote %d rows, want %d", got[0][0].i, len(e.rows))
		}
		return nil
	}
	if err := compareRows(got, e.rows, e.ordered); err != nil {
		return err
	}
	if e.self != nil {
		if err := e.self(got); err != nil {
			return fmt.Errorf("generator check: %w", err)
		}
	}
	return nil
}

// wantInt checks that cell (row, col) holds exactly n, as a bigint or as a
// double with an integral value.
func wantInt(rows [][]cell, row, col int, n int64, what string) error {
	if row >= len(rows) || col >= len(rows[row]) {
		return fmt.Errorf("%s: no cell (%d,%d)", what, row, col)
	}
	v, ok := rows[row][col].numeric()
	if !ok || v != float64(n) {
		return fmt.Errorf("%s is %s, want %d", what, rows[row][col], n)
	}
	return nil
}
