package httpapi

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/block"
	"repro/internal/types"
)

// pageToJSON is the reference renderer appendDocument is held to: rows of
// boxed values, which json.Marshal encodes.
func pageToJSON(p *block.Page) [][]interface{} {
	out := make([][]interface{}, p.RowCount())
	for i := range out {
		row := p.Row(i)
		vals := make([]interface{}, len(row))
		for j, v := range row {
			vals[j] = valueToJSON(v)
		}
		out[i] = vals
	}
	return out
}

// valueToJSON renders a value for the statement protocol: a non-finite
// double, which JSON has no number for, as the string Presto's client
// protocol uses ("NaN", "Infinity", "-Infinity").
func valueToJSON(v types.Value) interface{} {
	if v.Null {
		return nil
	}
	switch v.T {
	case types.Bigint:
		return v.I
	case types.Double:
		switch {
		case math.IsNaN(v.F):
			return "NaN"
		case math.IsInf(v.F, 1):
			return "Infinity"
		case math.IsInf(v.F, -1):
			return "-Infinity"
		}
		return v.F
	case types.Boolean:
		return v.B
	case types.Date:
		return types.FormatDate(v.I)
	default:
		return v.String()
	}
}

// checkDocument fails the test unless appendDocument's bytes for doc and
// pages equal json.Marshal's for doc with the pages' rows rendered by the
// reference, and appending to a non-empty buffer leaves its prefix alone.
func checkDocument(t *testing.T, name string, doc StatementResponse, pages []*block.Page) {
	t.Helper()
	ref := doc
	for _, p := range pages {
		ref.Data = append(ref.Data, pageToJSON(p)...)
	}
	want, err := json.Marshal(ref)
	if err != nil {
		t.Fatalf("%s: reference: %v", name, err)
	}
	if got := appendDocument(nil, &doc, pages); !bytes.Equal(got, want) {
		t.Errorf("%s:\n got %s\nwant %s", name, got, want)
	}
	if got := appendDocument([]byte("prefix"), &doc, pages); !bytes.Equal(got, append([]byte("prefix"), want...)) {
		t.Errorf("%s: appended after a prefix: %s", name, got)
	}
}

func TestStatementDocumentMatchesJSONMarshal(t *testing.T) {
	nulls := func(n int) []bool {
		m := make([]bool, n)
		for i := range m {
			m[i] = true
		}
		return m
	}
	allNull := block.NewPage(
		block.NewLongBlock([]int64{0}, nulls(1)),
		block.NewDoubleBlock([]float64{0}, nulls(1)),
		block.NewVarcharBlock([]string{""}, nulls(1)),
		block.NewBoolBlock([]bool{false}, nulls(1)),
		block.NewDateBlock([]int64{0}, nulls(1)),
		block.NewArrayBlock([][]types.Value{nil}, nulls(1)),
		&block.LongBlock{T: types.Unknown, Vals: []int64{0}, Nulls: nulls(1)},
	)
	doubles := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 1e21, -1e21, 1e20,
		1e-7, -1e-7, 1e-6, 9.99e-7, 1 << 53, 1<<53 + 2, 0.1, 123.456, -2.5, 5e-324, math.MaxFloat64, 1e-100, 1e100}
	bigints := []int64{0, -1, 1<<53 + 1, math.MaxInt64, math.MinInt64, 42}
	dates := []int64{0, 19000, -1, -719162, 2932896}
	strs := []string{"", "plain", `"quoted"`, `back\slash`, "<script>&amp;</script>", "\x00\x01\b\f\n\r\t\x1f\x7f",
		"line\u2028sep\u2029para", "héllo 日本 🙂", "\xff\xfe", "cut\xc3", "\xed\xa0\x80surrogate", "\u00a0\ufffd"}
	strNulls := make([]bool, len(strs))
	strNulls[0] = true
	dict := block.NewDictionaryBlock(block.NewVarcharBlock([]string{"a<b", "\u2028", "é"}, nil), []int32{2, 0, 1, 0})
	dictDbl := block.NewDictionaryBlock(block.NewDoubleBlock([]float64{math.NaN(), 1e-7}, []bool{false, false}), []int32{1, 0, 1, 1})
	rle := block.NewRLEBlock(types.DateValue(19000), 4)
	rleNull := block.NewRLEBlock(types.NullValue(types.Bigint), 4)
	lazy := block.NewLazyBlock(types.Double, 4, func(*block.Arena) block.Block {
		return block.NewDoubleBlock([]float64{1.5, math.Inf(1), 2e21, 0}, []bool{false, false, false, true})
	})
	arrays := block.NewArrayBlock([][]types.Value{
		{types.BigintValue(1), types.NullValue(types.Bigint), types.DoubleValue(1e21)},
		{types.VarcharValue(`"<x>"`), types.BooleanValue(true), types.DateValue(3)},
		{},
		nil,
	}, []bool{false, false, false, true})
	bools := block.NewBoolBlock([]bool{true, false, true, false}, []bool{false, false, true, false})

	cases := []struct {
		name  string
		doc   StatementResponse
		pages []*block.Page
	}{
		{"header only", StatementResponse{ID: "s1", State: "RUNNING", NextURI: "/v1/statement/s1"}, nil},
		{"failure with a query id", StatementResponse{ID: "s2", State: "FAILED", Columns: []string{"a"},
			Error: `table "x<y>" & more`, QueryID: "q7"}, nil},
		{"failure before admission", StatementResponse{State: "FAILED", Error: "line 1:1: bad\tthing\u2028"}, nil},
		{"empty columns, empty page", StatementResponse{ID: "s3", State: "FINISHED", Columns: []string{}},
			[]*block.Page{block.NewPage(block.NewLongBlock(nil, nil))}},
		{"nulls of every type", StatementResponse{ID: "s4", State: "FINISHED",
			Columns: []string{"b", "d", "v", "o", "t", "a", "u"}, QueryID: "q1"}, []*block.Page{allNull}},
		{"doubles", StatementResponse{ID: "s5", State: "FINISHED", Columns: []string{"x"}},
			[]*block.Page{block.NewPage(block.NewDoubleBlock(doubles, nil))}},
		{"bigints", StatementResponse{ID: "s6", State: "FINISHED", Columns: []string{"x"}},
			[]*block.Page{block.NewPage(block.NewLongBlock(bigints, nil))}},
		{"dates", StatementResponse{ID: "s7", State: "FINISHED", Columns: []string{"x"}},
			[]*block.Page{block.NewPage(block.NewDateBlock(dates, nil))}},
		{"strings", StatementResponse{ID: "s8", State: "FINISHED", Columns: []string{"<col&name>", "\u2029"}},
			[]*block.Page{block.NewPage(block.NewVarcharBlock(strs, strNulls), block.NewVarcharBlock(strs, nil))}},
		{"encoded blocks, booleans and arrays", StatementResponse{ID: "s9", State: "RUNNING",
			Columns: []string{"dict", "dictd", "rle", "rlenull", "lazy", "arr", "bool"}, NextURI: "/v1/statement/s9", QueryID: "q9"},
			[]*block.Page{block.NewPage(dict, dictDbl, rle, rleNull, lazy, arrays, bools)}},
		{"several pages, one empty", StatementResponse{ID: "s10", State: "FINISHED", Columns: []string{"a", "b"}},
			[]*block.Page{
				block.NewPage(block.NewLongBlock([]int64{1, 2}, nil), block.NewVarcharBlock([]string{"x", "y"}, nil)),
				block.NewPage(block.NewLongBlock(nil, nil), block.NewVarcharBlock(nil, nil)),
				block.NewPage(block.NewLongBlock([]int64{3}, nil), block.NewVarcharBlock([]string{"z"}, nil)),
			}},
		{"rows without columns", StatementResponse{ID: "s11", State: "FINISHED"},
			[]*block.Page{block.NewEmptyPage(2)}},
	}
	for _, tc := range cases {
		checkDocument(t, tc.name, tc.doc, tc.pages)
	}
}

// fuzzReader hands out typed values from fuzz input, zeros once it runs dry.
type fuzzReader struct{ data []byte }

func (r *fuzzReader) byte() byte {
	if len(r.data) == 0 {
		return 0
	}
	b := r.data[0]
	r.data = r.data[1:]
	return b
}

func (r *fuzzReader) uint64() uint64 {
	var buf [8]byte
	n := copy(buf[:], r.data)
	r.data = r.data[n:]
	return binary.LittleEndian.Uint64(buf[:])
}

func (r *fuzzReader) string() string {
	n := min(int(r.byte()%16), len(r.data))
	s := string(r.data[:n])
	r.data = r.data[n:]
	return s
}

// value draws a value of type t; a third of them NULL when nullable.
func (r *fuzzReader) value(t types.Type, nullable bool) types.Value {
	if nullable && r.byte()%3 == 0 {
		return types.NullValue(t)
	}
	switch t {
	case types.Bigint:
		return types.BigintValue(int64(r.uint64()))
	case types.Double:
		return types.DoubleValue(math.Float64frombits(r.uint64()))
	case types.Boolean:
		return types.BooleanValue(r.byte()&1 == 1)
	case types.Date:
		return types.DateValue(int64(int32(r.uint64())) % 3_000_000)
	case types.Array:
		vs := make([]types.Value, r.byte()%4)
		for i := range vs {
			vs[i] = r.value([]types.Type{types.Bigint, types.Double, types.Varchar, types.Boolean, types.Date}[r.byte()%5], true)
		}
		return types.ArrayValue(vs)
	default:
		return types.VarcharValue(r.string())
	}
}

// page draws a page of up to four columns and eight rows; each column a flat
// block of one type, or that block under a dictionary, an RLE run or a lazy
// block.
func (r *fuzzReader) page() *block.Page {
	rows := int(r.byte() % 9)
	cols := make([]block.Block, 1+r.byte()%4)
	for c := range cols {
		t := []types.Type{types.Bigint, types.Double, types.Varchar, types.Boolean, types.Date, types.Array}[r.byte()%6]
		switch r.byte() % 4 {
		case 0:
			vals := make([]types.Value, rows)
			for i := range vals {
				vals[i] = r.value(t, true)
			}
			cols[c] = block.BuildBlock(t, vals)
		case 1:
			dict := []types.Value{r.value(t, true), r.value(t, true)}
			idx := make([]int32, rows)
			for i := range idx {
				idx[i] = int32(r.byte() & 1)
			}
			cols[c] = block.NewDictionaryBlock(block.BuildBlock(t, dict), idx)
		case 2:
			cols[c] = block.NewRLEBlock(r.value(t, true), rows)
		default:
			vals := make([]types.Value, rows)
			for i := range vals {
				vals[i] = r.value(t, true)
			}
			cols[c] = block.NewLazyBlock(t, rows, func(*block.Arena) block.Block { return block.BuildBlock(t, vals) })
		}
	}
	return block.NewPage(cols...)
}

// FuzzStatementDocument: for random pages of every type and block encoding,
// and random header strings, appendDocument writes the bytes json.Marshal
// writes for the reference rendering.
func FuzzStatementDocument(f *testing.F) {
	f.Add([]byte("\x03\x02\x01\x00\x01\x02\x03\x04\x05\x06\x07\x08\x09"))
	f.Add([]byte("\x08\x04\x02\x00\x05<>&\"\\\x01\x02\x03\x00\x00\x00\x00\x00\x00\xf8\x7f\x05\x01\xe2\x80\xa8\xff"))
	f.Add([]byte("\x02\x01\x05\x03\x02\x01\x00\x02\x00\x00\x00\x00\x00\x00\x00\x80"))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &fuzzReader{data: data}
		doc := StatementResponse{ID: r.string(), State: r.string(), NextURI: r.string(), Error: r.string(), QueryID: r.string()}
		pages := make([]*block.Page, r.byte()%3)
		for i := range pages {
			pages[i] = r.page()
		}
		if len(pages) > 0 {
			for range pages[0].Cols {
				doc.Columns = append(doc.Columns, r.string())
			}
		}
		checkDocument(t, "fuzzed", doc, pages)
	})
}
