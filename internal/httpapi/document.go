package httpapi

import (
	"math"
	"net/http"
	"strconv"
	"unicode/utf8"

	"repro/internal/block"
	"repro/internal/types"
)

// writeDocument answers with one statement-protocol document whose data are
// the rows of pages. Like writeJSON, it encodes the document whole before the
// status is sent; unlike it, it cannot fail.
func writeDocument(w http.ResponseWriter, doc *StatementResponse, pages []*block.Page) {
	body := appendDocument(nil, doc, pages)
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}

// appendDocument appends doc, with the rows of pages as its data (doc.Data is
// not read), to dst: the bytes json.Marshal gives for the document whose Data
// renders each cell as the protocol does — NULL as null, a non-finite double
// as the string Presto's client protocol uses ("NaN", "Infinity",
// "-Infinity"), a date as its 'YYYY-MM-DD' string, an array as its printed
// string. The rows are walked straight from the pages' blocks: no row is
// built and no cell boxed.
func appendDocument(dst []byte, doc *StatementResponse, pages []*block.Page) []byte {
	dst = append(dst, `{"id":`...)
	dst = appendString(dst, doc.ID)
	dst = append(dst, `,"state":`...)
	dst = appendString(dst, doc.State)
	if len(doc.Columns) > 0 {
		dst = append(dst, `,"columns":[`...)
		for i, c := range doc.Columns {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendString(dst, c)
		}
		dst = append(dst, ']')
	}
	rows := 0
	for _, p := range pages {
		rows += p.RowCount()
	}
	if rows > 0 {
		dst = append(dst, `,"data":[`...)
		for _, p := range pages {
			for r := 0; r < p.RowCount(); r++ {
				dst = append(dst, '[')
				for c, b := range p.Cols {
					if c > 0 {
						dst = append(dst, ',')
					}
					dst = appendCell(dst, b, r)
				}
				dst = append(dst, "],"...)
			}
		}
		dst[len(dst)-1] = ']' // the last row's comma
	}
	for _, f := range [...]struct{ name, v string }{
		{`,"nextUri":`, doc.NextURI}, {`,"error":`, doc.Error}, {`,"queryId":`, doc.QueryID},
	} {
		if f.v != "" {
			dst = append(dst, f.name...)
			dst = appendString(dst, f.v)
		}
	}
	return append(dst, '}')
}

// appendCell appends row's value in b.
func appendCell(dst []byte, b block.Block, row int) []byte {
	if b.IsNull(row) {
		return append(dst, "null"...)
	}
	switch b.Type() {
	case types.Bigint:
		return strconv.AppendInt(dst, b.Long(row), 10)
	case types.Double:
		return appendDouble(dst, b.Double(row))
	case types.Boolean:
		return strconv.AppendBool(dst, b.Bool(row))
	case types.Date:
		dst = append(dst, '"')
		return append(types.AppendDate(dst, b.Long(row)), '"')
	case types.Varchar:
		return appendString(dst, b.Str(row))
	default:
		return appendString(dst, b.Value(row).String())
	}
}

// appendDouble appends f as encoding/json writes a float64: the shortest
// decimal that round-trips, in exponent form below 1e-6 and from 1e21 with a
// two-digit negative exponent cut to one digit; a non-finite value, which
// JSON has no number for, as a string.
func appendDouble(dst []byte, f float64) []byte {
	switch {
	case math.IsNaN(f):
		return append(dst, `"NaN"`...)
	case math.IsInf(f, 1):
		return append(dst, `"Infinity"`...)
	case math.IsInf(f, -1):
		return append(dst, `"-Infinity"`...)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-07 → e-7
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string the way json.Marshal does: '<',
// '>' and '&', control characters, U+2028 and U+2029 escaped, and each byte
// of invalid UTF-8 replaced by U+FFFD.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
