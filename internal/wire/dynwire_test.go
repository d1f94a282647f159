package wire

import (
	"testing"

	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/types"
)

// TestFragmentDynFilterRoundTrip: scan subscriptions and join publications
// must survive fragment serialization with ids, columns, and the
// short-circuit flag intact.
func TestFragmentDynFilterRoundTrip(t *testing.T) {
	out := plan.Schema{{Name: "k", T: types.Bigint}}
	scan := &plan.Scan{
		Handle:  plan.TableHandle{Catalog: "memory", Table: "p"},
		Columns: []string{"k"},
		Out:     out,
		DynFilters: []plan.ScanDynFilter{
			{ID: 3, Col: 0, ShortCircuit: true},
			{ID: 4, Col: 0},
		},
	}
	build := &plan.Scan{
		Handle:  plan.TableHandle{Catalog: "memory", Table: "b"},
		Columns: []string{"k"},
		Out:     out,
	}
	join := &plan.Join{
		Type:       plan.InnerJoin,
		Left:       scan,
		Right:      build,
		Equi:       []plan.EquiClause{{Left: 0, Right: 0}},
		Strategy:   plan.StrategyBroadcast,
		Out:        append(append(plan.Schema{}, out...), out...),
		DynFilters: []plan.JoinDynFilter{{ID: 3, KeyIdx: 0}},
	}
	f := &plan.Fragment{ID: 1, Root: join, OutputConsumer: -1}
	raw, err := MarshalFragment(f)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalFragment(raw)
	if err != nil {
		t.Fatal(err)
	}
	gj, ok := got.Root.(*plan.Join)
	if !ok {
		t.Fatalf("root is %T", got.Root)
	}
	if len(gj.DynFilters) != 1 || gj.DynFilters[0] != (plan.JoinDynFilter{ID: 3, KeyIdx: 0}) {
		t.Fatalf("join publications lost: %+v", gj.DynFilters)
	}
	gs, ok := gj.Left.(*plan.Scan)
	if !ok {
		t.Fatalf("left is %T", gj.Left)
	}
	if len(gs.DynFilters) != 2 ||
		gs.DynFilters[0] != (plan.ScanDynFilter{ID: 3, Col: 0, ShortCircuit: true}) ||
		gs.DynFilters[1] != (plan.ScanDynFilter{ID: 4, Col: 0}) {
		t.Fatalf("scan subscriptions lost: %+v", gs.DynFilters)
	}
}

// TestTaskConfigDynKnobsRoundTrip: the dynamic-filter knobs must survive the
// wire projection (and the injector, which never travels, must stay nil).
func TestTaskConfigDynKnobsRoundTrip(t *testing.T) {
	in := TaskConfig{
		PageSize:               1024,
		DynamicFiltersDisabled: true,
		DynamicFilterWaitNs:    int64(250_000_000),
		DynamicFilterMaxSet:    512,
		SharedScansDisabled:    true,
		SharedScanWindowNs:     int64(50_000_000),
	}
	dec := in.Decode()
	if !dec.DynamicFiltersDisabled || dec.DynamicFilterWait.Nanoseconds() != 250_000_000 || dec.DynamicFilterMaxSet != 512 {
		t.Fatalf("decode lost dyn knobs: %+v", dec)
	}
	if !dec.SharedScansDisabled || dec.SharedScanWindow.Nanoseconds() != 50_000_000 {
		t.Fatalf("decode lost shared-scan knobs: %+v", dec)
	}
	if dec.Inject != nil {
		t.Fatal("injector materialized from the wire")
	}
	if out := EncodeTaskConfig(dec); out != in {
		t.Fatalf("round trip: %+v != %+v", out, in)
	}
	var zero exec.TaskConfig
	if EncodeTaskConfig(zero) != (TaskConfig{}) {
		t.Fatalf("zero config not zero on the wire: %+v", EncodeTaskConfig(zero))
	}
}
