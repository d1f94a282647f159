package wire

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/faultinject"
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

// TestTaskConfigDynKnobsRoundTrip: the dynamic-filter and shared-scan knobs
// must survive a create request's JSON round trip, and the injector, which
// never travels, must come back nil.
func TestTaskConfigDynKnobsRoundTrip(t *testing.T) {
	in := exec.TaskConfig{
		PageSize:          1024,
		Switches:          exec.DisableDynamicFilters | exec.DisableSharedScans,
		DynamicFilterWait: 250 * time.Millisecond,
		SharedScanWindow:  50 * time.Millisecond,
		Inject:            faultinject.New(1),
	}
	raw, err := json.Marshal(CreateRequest{Config: in})
	if err != nil {
		t.Fatal(err)
	}
	var got CreateRequest
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	dec := got.Config
	if !dec.Switches.Has(exec.DisableDynamicFilters) || dec.DynamicFilterWait != 250*time.Millisecond {
		t.Fatalf("decode lost dyn knobs: %+v", dec)
	}
	if !dec.Switches.Has(exec.DisableSharedScans) || dec.SharedScanWindow != 50*time.Millisecond {
		t.Fatalf("decode lost shared-scan knobs: %+v", dec)
	}
	if dec.Inject != nil {
		t.Fatal("injector materialized from the wire")
	}
	in.Inject = nil
	if !reflect.DeepEqual(dec, in) {
		t.Fatalf("round trip: %+v != %+v", dec, in)
	}
}
