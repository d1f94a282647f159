package presto

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/exec"
)

// TestTemplateLiteralsConcurrent: statements of one template, each with its
// own literals, run at once from several goroutines on one plan and on the
// fragments the workers compiled for it once; each gets the rows of its own
// literals. Under -race, a compiled fragment, a program or a task that shared
// a statement's literals or state with another would race.
func TestTemplateLiteralsConcurrent(t *testing.T) {
	c := newTestCluster(t, ClusterConfig{})
	mustExec(t, c, "CREATE TABLE conc (k BIGINT, v BIGINT, s VARCHAR)")
	var rows []string
	for k := 0; k < 100; k++ {
		rows = append(rows, fmt.Sprintf("(%d, %d, 'g%d')", k, 10*k, k%5))
	}
	mustExec(t, c, "INSERT INTO conc SELECT * FROM (VALUES "+strings.Join(rows, ", ")+")")
	// Keys g and g+50 pass; their sum of v + g is 10g + g + 10(g+50) + g.
	query := func(g int) string {
		return fmt.Sprintf("SELECT count(*), sum(v + %d) FROM conc WHERE k IN (%d, %d) AND s LIKE 'g%%' AND v >= %d",
			g, g, g+50, 10*g)
	}
	session := Session{Switches: exec.DisableResultCache}
	run := func(g int) (string, error) {
		res, err := c.Coordinator.Execute(query(g), session)
		if err != nil {
			return "", err
		}
		all, err := res.All()
		if err != nil {
			return "", err
		}
		return strings.Join(stringifyRows(all), ";"), nil
	}
	// Plans the template, then compiles its fragment on every worker: over
	// 100 rows a statement is one task, and the coordinator rotates such
	// tasks over the workers.
	for range len(c.workers) + 1 {
		if _, err := run(0); err != nil {
			t.Fatal(err)
		}
	}
	before := fragmentCacheHits(c.workers)
	const goroutines, rounds = 8, 10
	var wg sync.WaitGroup
	for i := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range rounds {
				g := (i*rounds + r) % 50
				got, err := run(g)
				if want := fmt.Sprintf("2|%d", 22*g+500); err != nil || got != want {
					t.Errorf("literal %d: got %q (%v), want %q", g, got, err, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	if hits := fragmentCacheHits(c.workers) - before; hits < goroutines*rounds {
		t.Errorf("%d compiled-fragment cache hits for %d statements of one template", hits, goroutines*rounds)
	}
}
