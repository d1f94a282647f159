package experiments

import "testing"

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
