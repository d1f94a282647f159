package wire

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/connector"
	"repro/internal/connectors/memconn"
	"repro/internal/exec"
	"repro/internal/faultinject"
	"repro/internal/memory"
	"repro/internal/plan"
	"repro/internal/shuffle"
	"repro/internal/types"
)

// TestTaskConfigRoundTrip: every field of exec.TaskConfig that may cross a
// process boundary — every exported field not tagged json:"-" — comes back
// from a create request's JSON round trip with the value it was sent with,
// and the local-only fields come back empty. A field added to the task
// config is covered without editing this test; one of a kind the test cannot
// fill fails it until the test learns the kind.
func TestTaskConfigRoundTrip(t *testing.T) {
	var in exec.TaskConfig
	in.WriteDelay = func() {}
	in.Inject = faultinject.New(1)
	in.Store = shuffle.NewExchangeStore(t.TempDir())
	v := reflect.ValueOf(&in).Elem()
	var wireFields []int
	for i := 0; i < v.NumField(); i++ {
		f := v.Type().Field(i)
		if !f.IsExported() || f.Tag.Get("json") == "-" {
			continue
		}
		wireFields = append(wireFields, i)
		fv := v.Field(i)
		switch fv.Kind() {
		case reflect.Bool:
			fv.SetBool(true)
		case reflect.Int, reflect.Int64:
			fv.SetInt(int64(1000 + i))
		case reflect.Uint16:
			fv.SetUint(1<<len(exec.SwitchHeaders) - 1)
		case reflect.String:
			fv.SetString(f.Name)
		default:
			t.Fatalf("TaskConfig.%s is a %s: teach this test to set one", f.Name, fv.Kind())
		}
	}
	raw, err := json.Marshal(CreateRequest{Config: in})
	if err != nil {
		t.Fatal(err)
	}
	var got CreateRequest
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	out := reflect.ValueOf(got.Config)
	for _, i := range wireFields {
		if want, have := v.Field(i).Interface(), out.Field(i).Interface(); !reflect.DeepEqual(want, have) {
			t.Errorf("TaskConfig.%s: sent %v, received %v", v.Type().Field(i).Name, want, have)
		}
	}
	if got.Config.WriteDelay != nil || got.Config.Inject != nil || got.Config.Store != nil {
		t.Error("a local-only field crossed the wire")
	}
	if raw, err := json.Marshal(exec.TaskConfig{}); err != nil || string(raw) != "{}" {
		t.Errorf("the default config is %s on the wire, want {}", raw)
	}
}

// FuzzCreateRequestDecode feeds arbitrary bytes to a worker's create-request
// decoding — the request, then each fragment in it — which must fail cleanly
// or produce a config that re-encodes to itself, never panic. A fragment that
// decodes is then rendered for EXPLAIN and compiled into a task, against a
// one-table catalog: it compiles or fails to, but never panics.
func FuzzCreateRequestDecode(f *testing.F) {
	seed := func(frags ...*plan.Fragment) []byte {
		req := CreateRequest{Config: exec.TaskConfig{PageSize: 512, SpillEnabled: true,
			Switches: exec.DisableCache | exec.MaterializedExchange, DynamicFilterWait: 7}}
		for _, frag := range frags {
			raw, err := MarshalFragment(frag)
			if err != nil {
				f.Fatal(err)
			}
			req.Fragments = append(req.Fragments, raw)
			req.Tasks = append(req.Tasks, TaskSpec{Fragment: frag.ID, OutPartitions: 2})
		}
		data, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	f.Add(seed(testFragments(f)...))
	f.Add([]byte(`{"config":{"switches":65535,"pageSize":-1},"fragments":[{"id":1}]}`))
	f.Add([]byte(`{"config":{"switches":-1}}`))
	f.Add(seed(nonFiniteFragment()))

	conn := memconn.New("memory")
	conn.LoadTable("d", []connector.Column{{Name: "k", T: types.Bigint}, {Name: "v", T: types.Double}}, nil)
	ex := exec.NewExecutor(exec.ExecutorConfig{Threads: 1})
	f.Cleanup(ex.Close)
	pool := memory.NewNodePool(1<<30, 0)
	qmem := memory.NewQueryContext("q", memory.QueryLimits{}, map[int]*memory.NodePool{0: pool})
	f.Fuzz(func(t *testing.T, data []byte) {
		var req CreateRequest
		if json.Unmarshal(data, &req) != nil {
			return
		}
		for _, raw := range req.Fragments {
			frag, err := UnmarshalFragment(raw)
			if err != nil {
				continue
			}
			_ = plan.Format(frag.Root)
			id := exec.TaskID{QueryID: "q", Fragment: frag.ID}
			exec.NewTask(id, frag, 0, ex, oneCatalog{conn}, qmem, pool, nil, 2, nil, exec.TaskConfig{})
		}
		_ = req.Config.Switches.String()
		raw, err := json.Marshal(req.Config)
		if err != nil {
			t.Fatal(err)
		}
		var again exec.TaskConfig
		if err := json.Unmarshal(raw, &again); err != nil || !reflect.DeepEqual(again, req.Config) {
			t.Fatalf("config %+v re-encodes to %s, which decodes to %+v (%v)", req.Config, raw, again, err)
		}
	})
}
