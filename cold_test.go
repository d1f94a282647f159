package presto

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/block"
	"repro/internal/connector"
	"repro/internal/connectors/memconn"
	"repro/internal/coordinator"
	"repro/internal/plan"
)

// resident is what a cold connector wraps: a connector that holds its tables
// in memory, versions them, and whose splits cross process boundaries
// (memconn).
type resident interface {
	connector.Connector
	connector.Versioned
	connector.SplitCodec
}

// cold makes a resident connector look like storage worth caching: it copies
// the columns it reads instead of re-wrapping them (so it is not a
// connector.ZeroCopyScans) and issues a versioned page-cache key per read.
// Resident connectors are not page-cache clients themselves; the test walls
// whose assertions are about the page cache and shared scans — hits on a warm
// run, corruption degrading to a miss, eviction storms — put their catalogs
// behind it (coldCatalog). The key carries the table version at read time, so
// a table must not be written while it is scanned through cold.
type cold struct{ resident }

// coldCatalog puts the named memory catalog behind a cold front, under the
// same name.
func coldCatalog(t *testing.T, catalog *coordinator.CatalogManager, name string) {
	t.Helper()
	conn, err := catalog.Connector(name)
	if err != nil {
		t.Fatal(err)
	}
	catalog.Register(cold{conn.(*memconn.Connector)})
}

// PageCacheKey implements connector.PageCacheable: the split's wire form, the
// table version it was read at, and the column list.
func (c cold) PageCacheKey(s connector.Split, columns []string, handle plan.TableHandle) (string, bool) {
	id, err := c.EncodeSplit(s)
	if err != nil {
		return "", false
	}
	return fmt.Sprintf("cold/%s/%s@v%d|%s", c.Name(), id, c.TableVersion(handle.Table), strings.Join(columns, ",")), true
}

func (c cold) PageSource(s connector.Split, columns []string, handle plan.TableHandle) (connector.PageSource, error) {
	src, err := c.resident.PageSource(s, columns, handle)
	if err != nil {
		return nil, err
	}
	return copyingSource{src}, nil
}

type copyingSource struct{ connector.PageSource }

func (s copyingSource) NextPage() (*block.Page, error) {
	p, err := s.PageSource.NextPage()
	if p == nil || p.ColCount() == 0 {
		return p, err
	}
	rows := make([]int, p.RowCount())
	for i := range rows {
		rows[i] = i
	}
	return p.FilterPositions(rows), nil
}
