package types

import (
	"fmt"
	"time"
)

// ParseDate parses a 'YYYY-MM-DD' literal into days since the Unix epoch.
func ParseDate(s string) (int64, error) {
	t, err := time.Parse("2006-01-02", s)
	if err != nil {
		return 0, fmt.Errorf("invalid date %q: want YYYY-MM-DD", s)
	}
	return t.Unix() / 86400, nil
}

// FormatDate renders days-since-epoch as 'YYYY-MM-DD'.
func FormatDate(days int64) string {
	return time.Unix(days*86400, 0).UTC().Format("2006-01-02")
}

// AppendDate appends FormatDate(days) to dst.
func AppendDate(dst []byte, days int64) []byte {
	return time.Unix(days*86400, 0).UTC().AppendFormat(dst, "2006-01-02")
}

// DateYear extracts the calendar year of a days-since-epoch date.
func DateYear(days int64) int64 {
	return int64(time.Unix(days*86400, 0).UTC().Year())
}

// DateMonth extracts the calendar month (1-12) of a days-since-epoch date.
func DateMonth(days int64) int64 {
	return int64(time.Unix(days*86400, 0).UTC().Month())
}

// DateDay extracts the day of month of a days-since-epoch date.
func DateDay(days int64) int64 {
	return int64(time.Unix(days*86400, 0).UTC().Day())
}
