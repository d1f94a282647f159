package experiments

import (
	"testing"

	"repro/internal/spill"
)

// Smoke tests: every experiment runs end-to-end at quick scale.

func TestCodegenSmoke(t *testing.T) {
	r, err := RunCodegen(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + r.Report())
	if r.VectorizedNanosPerRow >= r.InterpretedNanosPerRow {
		t.Errorf("vectorized (%.1f ns) not faster than interpreted (%.1f ns)",
			r.VectorizedNanosPerRow, r.InterpretedNanosPerRow)
	}
}

func TestCompressedSmoke(t *testing.T) {
	r, err := RunCompressed(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + r.Report())
	if r.DictCacheHits == 0 {
		t.Error("expected shared-dictionary cache hits")
	}
}

func TestMLFQSmoke(t *testing.T) {
	r, err := RunMLFQ(Options{Quick: true, Scale: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + r.Report())
}

func TestColocatedSmoke(t *testing.T) {
	r, err := RunColocated(Options{Quick: true, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + r.Report())
}

func TestPhasedSmoke(t *testing.T) {
	r, err := RunPhased(Options{Quick: true, Workers: 2, Scale: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + r.Report())
}

func TestWritersSmoke(t *testing.T) {
	r, err := RunWriters(Options{Quick: true, Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + r.Report())
}

func TestSpillSmoke(t *testing.T) {
	r, err := RunSpill(Options{Quick: true, Scale: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + r.Report())
	if r.NoSpillErr == nil {
		t.Error("expected the capped no-spill run to fail")
	}
	if !r.SpillOK {
		t.Error("expected the spill-enabled run to succeed")
	}
	if !r.JoinOK {
		t.Errorf("the capped join's rows differ from the uncapped run's (%d and %d rows)", r.JoinRows, r.JoinInMemRows)
	}
	if want := int64(spill.Partitions * spillWorkers); r.GraceParts != want {
		t.Errorf("the capped join's spilled builds filled %d grace partitions, want all %d", r.GraceParts, want)
	}
}

func TestBackpressureSmoke(t *testing.T) {
	r, err := RunBackpressure(Options{Quick: true, Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + r.Report())
}

func TestFig7Smoke(t *testing.T) {
	r, err := RunFig7(Options{Quick: true, Workers: 2, Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + r.Report())
	if r.ResultHits != 0 {
		t.Errorf("%d timed statements were result-cache hits, not executions", r.ResultHits)
	}
}

func TestFig8Smoke(t *testing.T) {
	r, err := RunFig8(Options{Quick: true, Workers: 2, Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + r.Report())
	if len(r.Samples) == 0 {
		t.Error("no samples recorded")
	}
}

func TestTable1Smoke(t *testing.T) {
	r, err := RunTable1(Options{Quick: true, Workers: 2, Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + r.Report())
}
