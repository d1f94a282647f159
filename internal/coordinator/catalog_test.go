package coordinator

import (
	"strings"
	"testing"

	"repro/internal/connectors/memconn"
	"repro/internal/sqlparser"
)

func TestCatalogResolve(t *testing.T) {
	cm := NewCatalogManager()
	mem := memconn.New("memory")
	mem.CreateTable("t", nil)
	cm.Register(mem)

	name := func(parts ...string) sqlparser.QualifiedName {
		return sqlparser.QualifiedName{Parts: parts}
	}
	if _, _, err := cm.Resolve(name("t"), "memory"); err != nil {
		t.Errorf("unqualified: %v", err)
	}
	if _, _, err := cm.Resolve(name("memory", "t"), "other"); err != nil {
		t.Errorf("qualified: %v", err)
	}
	if _, _, err := cm.Resolve(name("memory", "schema", "t"), "other"); err != nil {
		t.Errorf("three-part: %v", err)
	}
	if _, _, err := cm.Resolve(name("nope", "t"), "memory"); err == nil ||
		!strings.Contains(err.Error(), "catalog") {
		t.Errorf("missing catalog: %v", err)
	}
	if _, _, err := cm.Resolve(name("missing"), "memory"); err == nil ||
		!strings.Contains(err.Error(), "does not exist") {
		t.Errorf("missing table: %v", err)
	}
}

func TestCatalogCaseInsensitive(t *testing.T) {
	cm := NewCatalogManager()
	mem := memconn.New("memory")
	mem.CreateTable("orders", nil)
	cm.Register(mem)
	if _, _, err := cm.Resolve(sqlparser.QualifiedName{Parts: []string{"MEMORY", "ORDERS"}}, ""); err != nil {
		t.Errorf("case-insensitive resolution: %v", err)
	}
}

func TestConnectorLookup(t *testing.T) {
	cm := NewCatalogManager()
	cm.Register(memconn.New("a"))
	if _, err := cm.Connector("a"); err != nil {
		t.Error(err)
	}
	if _, err := cm.Connector("b"); err == nil {
		t.Error("unknown catalog should error")
	}
	if got := cm.Catalogs(); len(got) != 1 || got[0] != "a" {
		t.Errorf("catalogs: %v", got)
	}
}
