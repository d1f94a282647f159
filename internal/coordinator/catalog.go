// Package coordinator implements the cluster coordinator (paper §III): it
// admits queries through queue policies, parses, analyzes, plans, and
// optimizes them, fragments the plan into stages, places tasks on workers,
// lazily enumerates and assigns splits, and streams results back to clients.
package coordinator

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/connector"
	"repro/internal/plan"
	"repro/internal/sqlparser"
)

// CatalogManager registers connectors and adapts them to the interfaces the
// analyzer (metadata resolution), optimizer (stats, layouts, pushdown), and
// executor (data access) need.
type CatalogManager struct {
	mu         sync.RWMutex
	connectors map[string]connector.Connector
}

// NewCatalogManager creates an empty manager.
func NewCatalogManager() *CatalogManager {
	return &CatalogManager{connectors: map[string]connector.Connector{}}
}

// Register adds a connector under its catalog name.
func (c *CatalogManager) Register(conn connector.Connector) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.connectors[conn.Name()] = conn
}

// Connector implements exec.ConnectorRegistry.
func (c *CatalogManager) Connector(catalog string) (connector.Connector, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	conn, ok := c.connectors[catalog]
	if !ok {
		return nil, fmt.Errorf("catalog %q does not exist", catalog)
	}
	return conn, nil
}

// Catalogs lists registered catalog names.
func (c *CatalogManager) Catalogs() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.connectors))
	for n := range c.connectors {
		out = append(out, n)
	}
	return out
}

// Resolve implements analyzer.Catalogs: names resolve as catalog.table,
// catalog.schema.table (schema ignored — connectors are flat), or table in
// the session default catalog.
func (c *CatalogManager) Resolve(name sqlparser.QualifiedName, defaultCatalog string) (string, *connector.TableMeta, error) {
	catalog, meta, _, err := c.resolve(name, defaultCatalog)
	return catalog, meta, err
}

// resolve is Resolve, and also returns the table's schema version, read
// before its metadata: the metadata is of that version or a later one.
func (c *CatalogManager) resolve(name sqlparser.QualifiedName, defaultCatalog string) (string, *connector.TableMeta, int64, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var catalog, table string
	switch len(name.Parts) {
	case 1:
		catalog, table = defaultCatalog, name.Parts[0]
	case 2:
		catalog, table = name.Parts[0], name.Parts[1]
	case 3:
		catalog, table = name.Parts[0], name.Parts[2]
	default:
		return "", nil, 0, fmt.Errorf("invalid table name %q", name)
	}
	catalog = strings.ToLower(catalog)
	table = strings.ToLower(table)
	conn, ok := c.connectors[catalog]
	if !ok {
		// An unqualified name whose first part is a catalog? Try that too.
		if len(name.Parts) == 1 {
			return "", nil, 0, fmt.Errorf("catalog %q does not exist", defaultCatalog)
		}
		return "", nil, 0, fmt.Errorf("catalog %q does not exist", catalog)
	}
	version := conn.SchemaVersion(table)
	meta := conn.Table(table)
	if meta == nil {
		return "", nil, 0, fmt.Errorf("table %s.%s does not exist", catalog, table)
	}
	return catalog, meta, version, nil
}

// schemaLog is the catalogs as one statement's analyzer sees them: it
// records the schema version each table was first resolved at, read before
// the metadata the statement is planned from.
type schemaLog struct {
	*CatalogManager
	versions map[[2]string]int64
}

// Resolve implements analyzer.Catalogs.
func (l schemaLog) Resolve(name sqlparser.QualifiedName, defaultCatalog string) (string, *connector.TableMeta, error) {
	catalog, meta, version, err := l.resolve(name, defaultCatalog)
	if err != nil {
		return "", nil, err
	}
	t := [2]string{catalog, meta.Name}
	if _, seen := l.versions[t]; !seen {
		l.versions[t] = version
	}
	return catalog, meta, nil
}

// Stats implements optimizer.Metadata.
func (c *CatalogManager) Stats(catalog, table string) connector.TableStats {
	conn, err := c.Connector(catalog)
	if err != nil {
		return connector.NoStats
	}
	return conn.Stats(table)
}

// Layouts implements optimizer.Metadata.
func (c *CatalogManager) Layouts(catalog, table string) []connector.Layout {
	conn, err := c.Connector(catalog)
	if err != nil {
		return nil
	}
	meta := conn.Table(table)
	if meta == nil {
		return nil
	}
	return meta.Layouts
}

// TableVersion reports a table's version (connector.Connector.TableVersion;
// 0 for an unknown catalog).
func (c *CatalogManager) TableVersion(catalog, table string) int64 {
	conn, err := c.Connector(catalog)
	if err != nil {
		return 0
	}
	return conn.TableVersion(table)
}

// SchemaVersion reports a table's schema version
// (connector.Connector.SchemaVersion; 0 for an unknown catalog).
func (c *CatalogManager) SchemaVersion(catalog, table string) int64 {
	conn, err := c.Connector(catalog)
	if err != nil {
		return 0
	}
	return conn.SchemaVersion(table)
}

// Pushdown implements optimizer.Metadata.
func (c *CatalogManager) Pushdown(catalog, table string, d *plan.Domain) []string {
	conn, err := c.Connector(catalog)
	if err != nil {
		return nil
	}
	if pc, ok := conn.(connector.PushdownCapable); ok {
		return pc.ApplyPushdown(table, d)
	}
	return nil
}
