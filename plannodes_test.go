package presto

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/connector"
	"repro/internal/connectors/kvconn"
	"repro/internal/plan"
	"repro/internal/types"
)

// planNodeTypes names every type declared in internal/plan with plan.Node's
// four methods, found by parsing the package (as the wire codec's
// TestEveryKindRegistered finds them).
func planNodeTypes(t *testing.T) []string {
	t.Helper()
	files, err := filepath.Glob("internal/plan/*.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("internal/plan: %v", err)
	}
	methods := map[string]map[string]bool{} // receiver type -> its methods
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil {
				continue
			}
			recv := fd.Recv.List[0].Type
			if star, ok := recv.(*ast.StarExpr); ok {
				recv = star.X
			}
			if id, ok := recv.(*ast.Ident); ok {
				if methods[id.Name] == nil {
					methods[id.Name] = map[string]bool{}
				}
				methods[id.Name][fd.Name.Name] = true
			}
		}
	}
	var out []string
	for typ, has := range methods {
		if has["Schema"] && has["Children"] && has["WithChildren"] && has["Describe"] {
			out = append(out, typ)
		}
	}
	slices.Sort(out)
	return out
}

// TestEveryPlanNodeIsPlanned: a fixed corpus of statements, planned through
// the coordinator, meets every plan node type in its logical plans and their
// fragments, so a node kind no statement plans — code only hand-built tests
// reach — fails here instead of returning silently.
func TestEveryPlanNodeIsPlanned(t *testing.T) {
	c := NewCluster(ClusterConfig{Workers: 2, ThreadsPerWorker: 1})
	t.Cleanup(c.Close)
	kv := kvconn.New("kv")
	c.Register(kv)
	if err := kv.CreateTable("users", []connector.Column{{Name: "user_id", T: types.Varchar}, {Name: "country", T: types.Varchar}}); err != nil {
		t.Fatal(err)
	}
	kv.Put("users", []types.Value{types.VarcharValue("u0"), types.VarcharValue("DE")})
	mustExec(t, c, "CREATE TABLE events (user_id VARCHAR, clicks BIGINT)")
	mustExec(t, c, "INSERT INTO events VALUES ('u0', 5), ('u1', 3)")

	corpus := []string{
		"SELECT user_id, row_number() OVER (PARTITION BY user_id ORDER BY clicks) FROM events",
		"SELECT user_id FROM events UNION SELECT user_id FROM events",
		"SELECT x FROM (VALUES (1, 'a'), (2, 'b')) t(x, y)",
		"INSERT INTO events SELECT user_id, clicks + 1 FROM events WHERE clicks > 1",
		"SELECT user_id FROM events WHERE clicks = (SELECT max(clicks) FROM events)",
		"SELECT user_id, count(*) FROM events GROUP BY user_id ORDER BY 2 DESC LIMIT 1",
		"SELECT user_id FROM events LIMIT 1",
		"SELECT user_id FROM events ORDER BY clicks",
		"SELECT e.user_id, u.country FROM events e JOIN kv.users u ON e.user_id = u.user_id",
	}
	met := map[string]bool{}
	record := func(n plan.Node) { met[reflect.TypeOf(n).Elem().Name()] = true }
	index := false
	for _, sql := range corpus {
		logical, dp, err := c.Coordinator.Plan(sql, Session{})
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		plan.Walk(logical, record)
		for _, f := range dp.Fragments {
			plan.Walk(f.Root, func(n plan.Node) {
				record(n)
				if j, ok := n.(*plan.Join); ok && j.Strategy == plan.StrategyIndex {
					index = true
				}
			})
		}
	}
	if !index {
		t.Error("no statement of the corpus planned an index join")
	}
	want := planNodeTypes(t)
	var got []string
	for typ := range met {
		got = append(got, typ)
	}
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Errorf("the corpus plans %v; internal/plan declares %v", got, want)
	}
}
