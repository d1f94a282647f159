// Package wire serializes plan fragments, expressions, and the task-protocol
// request/response bodies exchanged between the coordinator and remote
// workers (paper §III: the coordinator distributes serialized plan fragments
// to workers over HTTP). JSON keeps the control plane debuggable; the data
// plane (pages) uses the binary codec in internal/block.
//
// Every node and expression kind is a tagged union: a "kind" discriminator
// plus the union of the kinds' fields. Decoding validates discriminators and
// required children so a malformed spec fails task creation cleanly instead
// of panicking inside a worker.
package wire

import (
	"encoding/json"
	"fmt"

	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/types"
)

// --- task protocol bodies ---

// CreateRequest is the body of POST /v1/query/{qid}/tasks: every task of one
// statement placed on one worker. A fragment is serialized once however many
// of its tasks run there, the task configuration once for the statement, and
// Splits carries what split enumeration already had in hand at placement
// (sequence 0 of its scan, replay-safe like any later batch).
type CreateRequest struct {
	Config exec.TaskConfig `json:"config"`
	// Fragments are MarshalFragment documents; a TaskSpec names one by id.
	Fragments []json.RawMessage `json:"fragments"`
	Tasks     []TaskSpec        `json:"tasks"`
	Splits    []SplitEntry      `json:"splits,omitempty"`
}

// TaskSpec is one task of a CreateRequest.
type TaskSpec struct {
	Fragment int `json:"fragment"`
	Index    int `json:"index"`
	// OutPartitions sizes the task's partitioned output buffer.
	OutPartitions int `json:"outPartitions"`
	// Sources lists, per producing fragment id, the result URIs this task
	// fetches through HTTPFetcher ("<worker>/v1/task/<tid>/results/<part>").
	// A URI is a function of the producer's id and worker, so it may name a
	// task that does not exist yet.
	Sources []SourceEntry `json:"sources,omitempty"`
	// Relay lists the dynamic-filter ids whose summaries the task reports in
	// its worker's status channel: those a fragment other than its own
	// subscribes to. The rest stay with the task, whose own scans use them.
	Relay []int `json:"relay,omitempty"`
}

// SourceEntry wires one RemoteSource fragment to its producers' result URIs.
type SourceEntry struct {
	Fragment int      `json:"fragment"`
	URIs     []string `json:"uris"`
}

// SplitsRequest is the body of POST /v1/query/{qid}/splits: the split batches
// of lazy enumeration (§IV-D3) for every task of the statement on one worker.
type SplitsRequest struct {
	Entries []SplitEntry `json:"entries"`
}

// SplitEntry is one batch for one scan of one task. Seq makes delivery
// idempotent: the worker applies a batch only when Seq is the next expected
// for (task, scan), so transport retries cannot duplicate splits.
type SplitEntry struct {
	Fragment int         `json:"fragment"`
	Index    int         `json:"index"`
	Scan     int         `json:"scan"`
	Seq      int64       `json:"seq"`
	Splits   []SplitData `json:"splits,omitempty"`
	NoMore   bool        `json:"noMore,omitempty"`
}

// SplitData is one split encoded by its connector's SplitCodec.
type SplitData struct {
	Catalog string `json:"catalog"`
	Data    []byte `json:"data"`
}

// QueryStatus is the body of GET /v1/query/{qid}/status?version=N: the events
// of one statement on one worker numbered From (= N, or the log's length if
// that is less) onwards; the coordinator asks next for From + len(Events).
// The log only grows, so asking for N again serves the same events again.
type QueryStatus struct {
	From   int64         `json:"from"`
	Events []StatusEvent `json:"events,omitempty"`
}

// StatusEvent is one thing a task did that the coordinator acts on: it reached
// a terminal state (State set), or its join builds published dynamic-filter
// summaries (FilterIDs set; Filters are dynfilter.AppendSummary frames).
type StatusEvent struct {
	Fragment int    `json:"fragment"`
	Index    int    `json:"index"`
	State    string `json:"state,omitempty"` // "finished" | "failed"
	Error    string `json:"error,omitempty"`
	// Transient marks a failed task's error as retryable.
	Transient bool     `json:"transient,omitempty"`
	CPUNanos  int64    `json:"cpuNanos,omitempty"`
	FilterIDs []int    `json:"filterIds,omitempty"`
	Filters   [][]byte `json:"filters,omitempty"`
}

// FiltersRequest is the body of POST /v1/query/{qid}/filters: completed
// unions for the statement's tasks on one worker.
type FiltersRequest struct {
	Filters []FilterDelivery `json:"filters"`
}

// FilterDelivery is one union (a dynfilter.AppendSummary frame) and the
// fragments whose tasks subscribe to it.
type FilterDelivery struct {
	ID        int    `json:"id"`
	Summary   []byte `json:"summary"`
	Fragments []int  `json:"fragments"`
}

// RegisterRequest is the body of POST /v1/node (worker registration and
// heartbeat).
type RegisterRequest struct {
	URI string `json:"uri"`
}

// RegisterResponse returns the worker's cluster node id.
type RegisterResponse struct {
	ID int `json:"id"`
}

// --- fragment codec ---

type jfragment struct {
	ID             int    `json:"id"`
	Root           *jnode `json:"root"`
	PartKind       int    `json:"partKind"`
	PartCols       []int  `json:"partCols,omitempty"`
	OutputConsumer int    `json:"outputConsumer"`
}

// MarshalFragment serializes a plan fragment for POST /v1/task.
func MarshalFragment(f *plan.Fragment) (json.RawMessage, error) {
	root, err := encodeNode(f.Root)
	if err != nil {
		return nil, err
	}
	return json.Marshal(&jfragment{
		ID:             f.ID,
		Root:           root,
		PartKind:       int(f.OutputPartitioning.Kind),
		PartCols:       f.OutputPartitioning.Cols,
		OutputConsumer: f.OutputConsumer,
	})
}

// UnmarshalFragment reverses MarshalFragment.
func UnmarshalFragment(data json.RawMessage) (*plan.Fragment, error) {
	var jf jfragment
	if err := json.Unmarshal(data, &jf); err != nil {
		return nil, fmt.Errorf("fragment: %w", err)
	}
	if jf.Root == nil {
		return nil, fmt.Errorf("fragment %d has no root", jf.ID)
	}
	root, err := decodeNode(jf.Root)
	if err != nil {
		return nil, err
	}
	if jf.PartKind < int(plan.PartitionSingle) || jf.PartKind > int(plan.PartitionBroadcast) {
		return nil, fmt.Errorf("fragment %d: bad partitioning kind %d", jf.ID, jf.PartKind)
	}
	return &plan.Fragment{
		ID:   jf.ID,
		Root: root,
		OutputPartitioning: plan.Partitioning{
			Kind: plan.PartitioningKind(jf.PartKind),
			Cols: jf.PartCols,
		},
		OutputConsumer: jf.OutputConsumer,
	}, nil
}

// jnode is the tagged union of all plan node kinds.
type jnode struct {
	Kind   string   `json:"kind"`
	Inputs []*jnode `json:"inputs,omitempty"`

	// scan
	Handle  *jhandle   `json:"handle,omitempty"`
	Columns []string   `json:"columns,omitempty"`
	Out     []jfield   `json:"out,omitempty"`
	ScanDyn []jscanDyn `json:"scanDyn,omitempty"`
	// filter / project
	Pred  *jexpr   `json:"pred,omitempty"`
	Exprs []*jexpr `json:"exprs,omitempty"`
	// aggregation
	GroupBy []*jexpr `json:"groupBy,omitempty"`
	Aggs    []jagg   `json:"aggs,omitempty"`
	Step    int      `json:"step,omitempty"`
	// join
	JoinType int        `json:"joinType,omitempty"`
	Equi     [][2]int   `json:"equi,omitempty"`
	Residual *jexpr     `json:"residual,omitempty"`
	Strategy int        `json:"strategy,omitempty"`
	JoinDyn  []jjoinDyn `json:"joinDyn,omitempty"`
	// sort / topn / limit
	Keys    []jsortKey `json:"keys,omitempty"`
	N       int64      `json:"n,omitempty"`
	Offset  int64      `json:"offset,omitempty"`
	Partial bool       `json:"partial,omitempty"`
	// window
	PartitionBy []int  `json:"partitionBy,omitempty"`
	WFuncs      []jwin `json:"wfuncs,omitempty"`
	// values
	Rows [][]jvalue `json:"rows,omitempty"`
	// output
	Names []string `json:"names,omitempty"`
	// table write
	Catalog string `json:"catalog,omitempty"`
	Table   string `json:"table,omitempty"`
	// remote source
	SourceFragments []int `json:"sourceFragments,omitempty"`
	// local exchange
	Ways     int   `json:"ways,omitempty"`
	HashCols []int `json:"hashCols,omitempty"`
	// values/empty-relation markers needing explicit row counts never occur:
	// Values carries its rows inline.
}

type jfield struct {
	Name string `json:"name"`
	T    int    `json:"t"`
}

// jscanDyn is one plan.ScanDynFilter subscription.
type jscanDyn struct {
	ID           int  `json:"id"`
	Col          int  `json:"col"`
	ShortCircuit bool `json:"shortCircuit,omitempty"`
}

// jjoinDyn is one plan.JoinDynFilter publication.
type jjoinDyn struct {
	ID     int `json:"id"`
	KeyIdx int `json:"keyIdx"`
}

type jhandle struct {
	Catalog    string   `json:"catalog"`
	Table      string   `json:"table"`
	Layout     string   `json:"layout,omitempty"`
	Constraint *jdomain `json:"constraint,omitempty"`
}

type jdomain struct {
	Columns map[string]*jcolDomain `json:"columns,omitempty"`
}

type jcolDomain struct {
	T           int      `json:"t"`
	Points      []jvalue `json:"points,omitempty"`
	Ranges      []jrange `json:"ranges,omitempty"`
	NullAllowed bool     `json:"nullAllowed,omitempty"`
}

type jrange struct {
	Lo       *jvalue `json:"lo,omitempty"`
	Hi       *jvalue `json:"hi,omitempty"`
	LoClosed bool    `json:"loClosed,omitempty"`
	HiClosed bool    `json:"hiClosed,omitempty"`
}

type jagg struct {
	Func     string `json:"func"`
	Arg      *jexpr `json:"arg,omitempty"`
	Distinct bool   `json:"distinct,omitempty"`
	Out      int    `json:"out"`
}

type jsortKey struct {
	Col  int  `json:"col"`
	Desc bool `json:"desc,omitempty"`
}

type jwin struct {
	Func string `json:"func"`
	Arg  *jexpr `json:"arg,omitempty"`
	Out  int    `json:"out"`
}

type jvalue struct {
	T    int      `json:"t"`
	Null bool     `json:"null,omitempty"`
	I    int64    `json:"i,omitempty"`
	F    float64  `json:"f,omitempty"`
	S    string   `json:"s,omitempty"`
	B    bool     `json:"b,omitempty"`
	A    []jvalue `json:"a,omitempty"`
}

func encodeSchema(s plan.Schema) []jfield {
	out := make([]jfield, len(s))
	for i, f := range s {
		out[i] = jfield{Name: f.Name, T: int(f.T)}
	}
	return out
}

func decodeSchema(fs []jfield) (plan.Schema, error) {
	out := make(plan.Schema, len(fs))
	for i, f := range fs {
		t, err := decodeType(f.T)
		if err != nil {
			return nil, err
		}
		out[i] = plan.Field{Name: f.Name, T: t}
	}
	return out, nil
}

func decodeType(t int) (types.Type, error) {
	if t < int(types.Unknown) || t > int(types.Array) {
		return 0, fmt.Errorf("bad type code %d", t)
	}
	return types.Type(t), nil
}

func encodeValue(v types.Value) jvalue {
	jv := jvalue{T: int(v.T), Null: v.Null, I: v.I, F: v.F, S: v.S, B: v.B}
	if v.A != nil {
		jv.A = make([]jvalue, len(v.A))
		for i, e := range v.A {
			jv.A[i] = encodeValue(e)
		}
	}
	return jv
}

func decodeValue(jv jvalue) (types.Value, error) {
	t, err := decodeType(jv.T)
	if err != nil {
		return types.Value{}, err
	}
	v := types.Value{T: t, Null: jv.Null, I: jv.I, F: jv.F, S: jv.S, B: jv.B}
	if jv.A != nil {
		v.A = make([]types.Value, len(jv.A))
		for i, e := range jv.A {
			ev, err := decodeValue(e)
			if err != nil {
				return types.Value{}, err
			}
			v.A[i] = ev
		}
	}
	return v, nil
}

func encodeDomain(d *plan.Domain) *jdomain {
	if d == nil {
		return nil
	}
	jd := &jdomain{Columns: map[string]*jcolDomain{}}
	for name, cd := range d.Columns {
		jc := &jcolDomain{T: int(cd.T), NullAllowed: cd.NullAllowed}
		for _, p := range cd.Points {
			jc.Points = append(jc.Points, encodeValue(p))
		}
		for _, rg := range cd.Ranges {
			jr := jrange{LoClosed: rg.LoClosed, HiClosed: rg.HiClosed}
			if rg.Lo != nil {
				lo := encodeValue(*rg.Lo)
				jr.Lo = &lo
			}
			if rg.Hi != nil {
				hi := encodeValue(*rg.Hi)
				jr.Hi = &hi
			}
			jc.Ranges = append(jc.Ranges, jr)
		}
		jd.Columns[name] = jc
	}
	return jd
}

func decodeDomain(jd *jdomain) (*plan.Domain, error) {
	if jd == nil {
		return nil, nil
	}
	d := &plan.Domain{Columns: map[string]*plan.ColumnDomain{}}
	for name, jc := range jd.Columns {
		if jc == nil {
			return nil, fmt.Errorf("domain column %q is null", name)
		}
		t, err := decodeType(jc.T)
		if err != nil {
			return nil, err
		}
		cd := &plan.ColumnDomain{T: t, NullAllowed: jc.NullAllowed}
		for _, p := range jc.Points {
			v, err := decodeValue(p)
			if err != nil {
				return nil, err
			}
			cd.Points = append(cd.Points, v)
		}
		for _, jr := range jc.Ranges {
			rg := plan.Range{LoClosed: jr.LoClosed, HiClosed: jr.HiClosed}
			if jr.Lo != nil {
				lo, err := decodeValue(*jr.Lo)
				if err != nil {
					return nil, err
				}
				rg.Lo = &lo
			}
			if jr.Hi != nil {
				hi, err := decodeValue(*jr.Hi)
				if err != nil {
					return nil, err
				}
				rg.Hi = &hi
			}
			cd.Ranges = append(cd.Ranges, rg)
		}
		d.Columns[name] = cd
	}
	return d, nil
}

func encodeNode(n plan.Node) (*jnode, error) {
	switch x := n.(type) {
	case *plan.Scan:
		jn := &jnode{
			Kind: "scan",
			Handle: &jhandle{
				Catalog:    x.Handle.Catalog,
				Table:      x.Handle.Table,
				Layout:     x.Handle.Layout,
				Constraint: encodeDomain(x.Handle.Constraint),
			},
			Columns: x.Columns,
			Out:     encodeSchema(x.Out),
		}
		for _, df := range x.DynFilters {
			jn.ScanDyn = append(jn.ScanDyn, jscanDyn{ID: df.ID, Col: df.Col, ShortCircuit: df.ShortCircuit})
		}
		return jn, nil
	case *plan.Filter:
		in, err := encodeNode(x.Input)
		if err != nil {
			return nil, err
		}
		pred, err := encodeExpr(x.Predicate)
		if err != nil {
			return nil, err
		}
		return &jnode{Kind: "filter", Inputs: []*jnode{in}, Pred: pred}, nil
	case *plan.Project:
		in, err := encodeNode(x.Input)
		if err != nil {
			return nil, err
		}
		exprs, err := encodeExprs(x.Exprs)
		if err != nil {
			return nil, err
		}
		return &jnode{Kind: "project", Inputs: []*jnode{in}, Exprs: exprs, Out: encodeSchema(x.Out)}, nil
	case *plan.Aggregation:
		in, err := encodeNode(x.Input)
		if err != nil {
			return nil, err
		}
		groupBy, err := encodeExprs(x.GroupBy)
		if err != nil {
			return nil, err
		}
		aggs := make([]jagg, len(x.Aggregates))
		for i, a := range x.Aggregates {
			ja := jagg{Func: string(a.Func), Distinct: a.Distinct, Out: int(a.Out)}
			if a.Arg != nil {
				arg, err := encodeExpr(a.Arg)
				if err != nil {
					return nil, err
				}
				ja.Arg = arg
			}
			aggs[i] = ja
		}
		return &jnode{
			Kind: "aggregation", Inputs: []*jnode{in},
			GroupBy: groupBy, Aggs: aggs, Step: int(x.Step), Out: encodeSchema(x.Out),
		}, nil
	case *plan.Join:
		l, err := encodeNode(x.Left)
		if err != nil {
			return nil, err
		}
		r, err := encodeNode(x.Right)
		if err != nil {
			return nil, err
		}
		equi := make([][2]int, len(x.Equi))
		for i, eq := range x.Equi {
			equi[i] = [2]int{eq.Left, eq.Right}
		}
		jn := &jnode{
			Kind: "join", Inputs: []*jnode{l, r},
			JoinType: int(x.Type), Equi: equi, Strategy: int(x.Strategy),
			Out: encodeSchema(x.Out),
		}
		for _, df := range x.DynFilters {
			jn.JoinDyn = append(jn.JoinDyn, jjoinDyn{ID: df.ID, KeyIdx: df.KeyIdx})
		}
		if x.Residual != nil {
			res, err := encodeExpr(x.Residual)
			if err != nil {
				return nil, err
			}
			jn.Residual = res
		}
		return jn, nil
	case *plan.Sort:
		in, err := encodeNode(x.Input)
		if err != nil {
			return nil, err
		}
		return &jnode{Kind: "sort", Inputs: []*jnode{in}, Keys: encodeKeys(x.Keys)}, nil
	case *plan.TopN:
		in, err := encodeNode(x.Input)
		if err != nil {
			return nil, err
		}
		return &jnode{Kind: "topn", Inputs: []*jnode{in}, Keys: encodeKeys(x.Keys), N: x.N}, nil
	case *plan.Limit:
		in, err := encodeNode(x.Input)
		if err != nil {
			return nil, err
		}
		return &jnode{Kind: "limit", Inputs: []*jnode{in}, N: x.N, Offset: x.Offset, Partial: x.Partial}, nil
	case *plan.Distinct:
		in, err := encodeNode(x.Input)
		if err != nil {
			return nil, err
		}
		return &jnode{Kind: "distinct", Inputs: []*jnode{in}}, nil
	case *plan.Window:
		in, err := encodeNode(x.Input)
		if err != nil {
			return nil, err
		}
		wf := make([]jwin, len(x.Funcs))
		for i, f := range x.Funcs {
			jw := jwin{Func: string(f.Func), Out: int(f.Out)}
			if f.Arg != nil {
				arg, err := encodeExpr(f.Arg)
				if err != nil {
					return nil, err
				}
				jw.Arg = arg
			}
			wf[i] = jw
		}
		return &jnode{
			Kind: "window", Inputs: []*jnode{in},
			PartitionBy: x.PartitionBy, Keys: encodeKeys(x.OrderBy), WFuncs: wf,
			Out: encodeSchema(x.Out),
		}, nil
	case *plan.Values:
		rows := make([][]jvalue, len(x.Rows))
		for i, row := range x.Rows {
			jr := make([]jvalue, len(row))
			for j, v := range row {
				jr[j] = encodeValue(v)
			}
			rows[i] = jr
		}
		return &jnode{Kind: "values", Rows: rows, Out: encodeSchema(x.Out)}, nil
	case *plan.Union:
		jn := &jnode{Kind: "union"}
		for _, in := range x.Inputs {
			e, err := encodeNode(in)
			if err != nil {
				return nil, err
			}
			jn.Inputs = append(jn.Inputs, e)
		}
		return jn, nil
	case *plan.Output:
		in, err := encodeNode(x.Input)
		if err != nil {
			return nil, err
		}
		return &jnode{Kind: "output", Inputs: []*jnode{in}, Names: x.Names}, nil
	case *plan.TableWrite:
		in, err := encodeNode(x.Input)
		if err != nil {
			return nil, err
		}
		return &jnode{
			Kind: "tablewrite", Inputs: []*jnode{in},
			Catalog: x.Catalog, Table: x.Table, Out: encodeSchema(x.Out),
		}, nil
	case *plan.EnforceSingleRow:
		in, err := encodeNode(x.Input)
		if err != nil {
			return nil, err
		}
		return &jnode{Kind: "enforcesinglerow", Inputs: []*jnode{in}}, nil
	case *plan.RemoteSource:
		return &jnode{Kind: "remotesource", SourceFragments: x.SourceFragments, Out: encodeSchema(x.Out)}, nil
	case *plan.LocalExchange:
		in, err := encodeNode(x.Input)
		if err != nil {
			return nil, err
		}
		return &jnode{Kind: "localexchange", Inputs: []*jnode{in}, Ways: x.Ways, HashCols: x.HashCols}, nil
	default:
		return nil, fmt.Errorf("wire: unsupported plan node %T", n)
	}
}

func encodeKeys(keys []plan.SortKey) []jsortKey {
	out := make([]jsortKey, len(keys))
	for i, k := range keys {
		out[i] = jsortKey{Col: k.Col, Desc: k.Descending}
	}
	return out
}

func decodeKeys(keys []jsortKey) []plan.SortKey {
	out := make([]plan.SortKey, len(keys))
	for i, k := range keys {
		out[i] = plan.SortKey{Col: k.Col, Descending: k.Desc}
	}
	return out
}

func decodeInput(jn *jnode, want int) ([]plan.Node, error) {
	if len(jn.Inputs) != want {
		return nil, fmt.Errorf("node %q wants %d inputs, has %d", jn.Kind, want, len(jn.Inputs))
	}
	out := make([]plan.Node, want)
	for i, in := range jn.Inputs {
		n, err := decodeNode(in)
		if err != nil {
			return nil, err
		}
		out[i] = n
	}
	return out, nil
}

func decodeNode(jn *jnode) (plan.Node, error) {
	if jn == nil {
		return nil, fmt.Errorf("null plan node")
	}
	switch jn.Kind {
	case "scan":
		if jn.Handle == nil {
			return nil, fmt.Errorf("scan without handle")
		}
		out, err := decodeSchema(jn.Out)
		if err != nil {
			return nil, err
		}
		constraint, err := decodeDomain(jn.Handle.Constraint)
		if err != nil {
			return nil, err
		}
		sc := &plan.Scan{
			Handle: plan.TableHandle{
				Catalog:    jn.Handle.Catalog,
				Table:      jn.Handle.Table,
				Layout:     jn.Handle.Layout,
				Constraint: constraint,
			},
			Columns: jn.Columns,
			Out:     out,
		}
		for _, df := range jn.ScanDyn {
			if df.Col < 0 || df.Col >= len(sc.Out) {
				return nil, fmt.Errorf("scan dynamic filter %d: bad column %d", df.ID, df.Col)
			}
			sc.DynFilters = append(sc.DynFilters, plan.ScanDynFilter{
				ID: df.ID, Col: df.Col, ShortCircuit: df.ShortCircuit,
			})
		}
		return sc, nil
	case "filter":
		ins, err := decodeInput(jn, 1)
		if err != nil {
			return nil, err
		}
		pred, err := decodeExpr(jn.Pred)
		if err != nil {
			return nil, err
		}
		return &plan.Filter{Input: ins[0], Predicate: pred}, nil
	case "project":
		ins, err := decodeInput(jn, 1)
		if err != nil {
			return nil, err
		}
		exprs, err := decodeExprs(jn.Exprs)
		if err != nil {
			return nil, err
		}
		out, err := decodeSchema(jn.Out)
		if err != nil {
			return nil, err
		}
		return &plan.Project{Input: ins[0], Exprs: exprs, Out: out}, nil
	case "aggregation":
		ins, err := decodeInput(jn, 1)
		if err != nil {
			return nil, err
		}
		groupBy, err := decodeExprs(jn.GroupBy)
		if err != nil {
			return nil, err
		}
		aggs := make([]plan.Aggregate, len(jn.Aggs))
		for i, ja := range jn.Aggs {
			t, err := decodeType(ja.Out)
			if err != nil {
				return nil, err
			}
			a := plan.Aggregate{Func: plan.AggFunc(ja.Func), Distinct: ja.Distinct, Out: t}
			if ja.Arg != nil {
				arg, err := decodeExpr(ja.Arg)
				if err != nil {
					return nil, err
				}
				a.Arg = arg
			}
			aggs[i] = a
		}
		out, err := decodeSchema(jn.Out)
		if err != nil {
			return nil, err
		}
		return &plan.Aggregation{
			Input: ins[0], GroupBy: groupBy, Aggregates: aggs,
			Step: plan.AggStep(jn.Step), Out: out,
		}, nil
	case "join":
		ins, err := decodeInput(jn, 2)
		if err != nil {
			return nil, err
		}
		equi := make([]plan.EquiClause, len(jn.Equi))
		for i, eq := range jn.Equi {
			equi[i] = plan.EquiClause{Left: eq[0], Right: eq[1]}
		}
		out, err := decodeSchema(jn.Out)
		if err != nil {
			return nil, err
		}
		j := &plan.Join{
			Type: plan.JoinType(jn.JoinType), Left: ins[0], Right: ins[1],
			Equi: equi, Strategy: plan.JoinStrategy(jn.Strategy), Out: out,
		}
		for _, df := range jn.JoinDyn {
			if df.KeyIdx < 0 || df.KeyIdx >= len(equi) {
				return nil, fmt.Errorf("join dynamic filter %d: bad key index %d", df.ID, df.KeyIdx)
			}
			j.DynFilters = append(j.DynFilters, plan.JoinDynFilter{ID: df.ID, KeyIdx: df.KeyIdx})
		}
		if jn.Residual != nil {
			res, err := decodeExpr(jn.Residual)
			if err != nil {
				return nil, err
			}
			j.Residual = res
		}
		return j, nil
	case "sort":
		ins, err := decodeInput(jn, 1)
		if err != nil {
			return nil, err
		}
		return &plan.Sort{Input: ins[0], Keys: decodeKeys(jn.Keys)}, nil
	case "topn":
		ins, err := decodeInput(jn, 1)
		if err != nil {
			return nil, err
		}
		return &plan.TopN{Input: ins[0], Keys: decodeKeys(jn.Keys), N: jn.N}, nil
	case "limit":
		ins, err := decodeInput(jn, 1)
		if err != nil {
			return nil, err
		}
		return &plan.Limit{Input: ins[0], N: jn.N, Offset: jn.Offset, Partial: jn.Partial}, nil
	case "distinct":
		ins, err := decodeInput(jn, 1)
		if err != nil {
			return nil, err
		}
		return &plan.Distinct{Input: ins[0]}, nil
	case "window":
		ins, err := decodeInput(jn, 1)
		if err != nil {
			return nil, err
		}
		funcs := make([]plan.WindowExpr, len(jn.WFuncs))
		for i, jw := range jn.WFuncs {
			t, err := decodeType(jw.Out)
			if err != nil {
				return nil, err
			}
			f := plan.WindowExpr{Func: plan.WindowFunc(jw.Func), Out: t}
			if jw.Arg != nil {
				arg, err := decodeExpr(jw.Arg)
				if err != nil {
					return nil, err
				}
				f.Arg = arg
			}
			funcs[i] = f
		}
		out, err := decodeSchema(jn.Out)
		if err != nil {
			return nil, err
		}
		return &plan.Window{
			Input: ins[0], PartitionBy: jn.PartitionBy,
			OrderBy: decodeKeys(jn.Keys), Funcs: funcs, Out: out,
		}, nil
	case "values":
		out, err := decodeSchema(jn.Out)
		if err != nil {
			return nil, err
		}
		rows := make([][]types.Value, len(jn.Rows))
		for i, jr := range jn.Rows {
			row := make([]types.Value, len(jr))
			for j, jv := range jr {
				v, err := decodeValue(jv)
				if err != nil {
					return nil, err
				}
				row[j] = v
			}
			rows[i] = row
		}
		return &plan.Values{Rows: rows, Out: out}, nil
	case "union":
		if len(jn.Inputs) == 0 {
			return nil, fmt.Errorf("union without inputs")
		}
		ins, err := decodeInput(jn, len(jn.Inputs))
		if err != nil {
			return nil, err
		}
		return &plan.Union{Inputs: ins}, nil
	case "output":
		ins, err := decodeInput(jn, 1)
		if err != nil {
			return nil, err
		}
		return &plan.Output{Input: ins[0], Names: jn.Names}, nil
	case "tablewrite":
		ins, err := decodeInput(jn, 1)
		if err != nil {
			return nil, err
		}
		out, err := decodeSchema(jn.Out)
		if err != nil {
			return nil, err
		}
		return &plan.TableWrite{Input: ins[0], Catalog: jn.Catalog, Table: jn.Table, Out: out}, nil
	case "enforcesinglerow":
		ins, err := decodeInput(jn, 1)
		if err != nil {
			return nil, err
		}
		return &plan.EnforceSingleRow{Input: ins[0]}, nil
	case "remotesource":
		out, err := decodeSchema(jn.Out)
		if err != nil {
			return nil, err
		}
		return &plan.RemoteSource{SourceFragments: jn.SourceFragments, Out: out}, nil
	case "localexchange":
		ins, err := decodeInput(jn, 1)
		if err != nil {
			return nil, err
		}
		return &plan.LocalExchange{Input: ins[0], Ways: jn.Ways, HashCols: jn.HashCols}, nil
	default:
		return nil, fmt.Errorf("wire: unknown plan node kind %q", jn.Kind)
	}
}

// --- expression codec ---

// jexpr is the tagged union of all expression kinds.
type jexpr struct {
	Kind string `json:"kind"`

	Index   int      `json:"index,omitempty"`   // columnref / lambdaref
	T       int      `json:"t,omitempty"`       // static type where carried
	Name    string   `json:"name,omitempty"`    // columnref label / call fn
	Val     *jvalue  `json:"val,omitempty"`     // const
	Op      int      `json:"op,omitempty"`      // arith / compare
	L       *jexpr   `json:"l,omitempty"`       // binary left
	R       *jexpr   `json:"r,omitempty"`       // binary right
	E       *jexpr   `json:"e,omitempty"`       // unary operand
	Lo      *jexpr   `json:"lo,omitempty"`      // between
	Hi      *jexpr   `json:"hi,omitempty"`      // between
	List    []*jexpr `json:"list,omitempty"`    // in / call args / array ctor
	Whens   []jwhen  `json:"whens,omitempty"`   // case
	Else    *jexpr   `json:"else,omitempty"`    // case
	Negate  bool     `json:"negate,omitempty"`  // isnull / in / between / like
	NParams int      `json:"nparams,omitempty"` // lambda
}

type jwhen struct {
	Cond *jexpr `json:"cond"`
	Then *jexpr `json:"then"`
}

func encodeExprs(es []expr.Expr) ([]*jexpr, error) {
	out := make([]*jexpr, len(es))
	for i, e := range es {
		je, err := encodeExpr(e)
		if err != nil {
			return nil, err
		}
		out[i] = je
	}
	return out, nil
}

func decodeExprs(jes []*jexpr) ([]expr.Expr, error) {
	out := make([]expr.Expr, len(jes))
	for i, je := range jes {
		e, err := decodeExpr(je)
		if err != nil {
			return nil, err
		}
		out[i] = e
	}
	return out, nil
}

func encodeExpr(e expr.Expr) (*jexpr, error) {
	switch x := e.(type) {
	case *expr.ColumnRef:
		return &jexpr{Kind: "col", Index: x.Index, T: int(x.T), Name: x.Name}, nil
	case *expr.Const:
		v := encodeValue(x.Val)
		return &jexpr{Kind: "const", Val: &v}, nil
	case *expr.Arith:
		l, err := encodeExpr(x.L)
		if err != nil {
			return nil, err
		}
		r, err := encodeExpr(x.R)
		if err != nil {
			return nil, err
		}
		return &jexpr{Kind: "arith", Op: int(x.Op), L: l, R: r, T: int(x.T)}, nil
	case *expr.Neg:
		in, err := encodeExpr(x.E)
		if err != nil {
			return nil, err
		}
		return &jexpr{Kind: "neg", E: in}, nil
	case *expr.Compare:
		l, err := encodeExpr(x.L)
		if err != nil {
			return nil, err
		}
		r, err := encodeExpr(x.R)
		if err != nil {
			return nil, err
		}
		return &jexpr{Kind: "cmp", Op: int(x.Op), L: l, R: r}, nil
	case *expr.And:
		l, err := encodeExpr(x.L)
		if err != nil {
			return nil, err
		}
		r, err := encodeExpr(x.R)
		if err != nil {
			return nil, err
		}
		return &jexpr{Kind: "and", L: l, R: r}, nil
	case *expr.Or:
		l, err := encodeExpr(x.L)
		if err != nil {
			return nil, err
		}
		r, err := encodeExpr(x.R)
		if err != nil {
			return nil, err
		}
		return &jexpr{Kind: "or", L: l, R: r}, nil
	case *expr.Not:
		in, err := encodeExpr(x.E)
		if err != nil {
			return nil, err
		}
		return &jexpr{Kind: "not", E: in}, nil
	case *expr.IsNull:
		in, err := encodeExpr(x.E)
		if err != nil {
			return nil, err
		}
		return &jexpr{Kind: "isnull", E: in, Negate: x.Negate}, nil
	case *expr.In:
		in, err := encodeExpr(x.E)
		if err != nil {
			return nil, err
		}
		list, err := encodeExprs(x.List)
		if err != nil {
			return nil, err
		}
		return &jexpr{Kind: "in", E: in, List: list, Negate: x.Negate}, nil
	case *expr.Between:
		in, err := encodeExpr(x.E)
		if err != nil {
			return nil, err
		}
		lo, err := encodeExpr(x.Lo)
		if err != nil {
			return nil, err
		}
		hi, err := encodeExpr(x.Hi)
		if err != nil {
			return nil, err
		}
		return &jexpr{Kind: "between", E: in, Lo: lo, Hi: hi, Negate: x.Negate}, nil
	case *expr.Like:
		in, err := encodeExpr(x.E)
		if err != nil {
			return nil, err
		}
		pat, err := encodeExpr(x.Pattern)
		if err != nil {
			return nil, err
		}
		return &jexpr{Kind: "like", E: in, R: pat, Negate: x.Negate}, nil
	case *expr.Case:
		je := &jexpr{Kind: "case", T: int(x.T)}
		for _, w := range x.Whens {
			cond, err := encodeExpr(w.Cond)
			if err != nil {
				return nil, err
			}
			then, err := encodeExpr(w.Then)
			if err != nil {
				return nil, err
			}
			je.Whens = append(je.Whens, jwhen{Cond: cond, Then: then})
		}
		if x.Else != nil {
			els, err := encodeExpr(x.Else)
			if err != nil {
				return nil, err
			}
			je.Else = els
		}
		return je, nil
	case *expr.Cast:
		in, err := encodeExpr(x.E)
		if err != nil {
			return nil, err
		}
		return &jexpr{Kind: "cast", E: in, T: int(x.T)}, nil
	case *expr.Call:
		if x.Fn == nil {
			return nil, fmt.Errorf("call without builtin")
		}
		args, err := encodeExprs(x.Args)
		if err != nil {
			return nil, err
		}
		return &jexpr{Kind: "call", Name: x.Fn.Name, List: args}, nil
	case *expr.Lambda:
		body, err := encodeExpr(x.Body)
		if err != nil {
			return nil, err
		}
		return &jexpr{Kind: "lambda", NParams: x.NParams, E: body}, nil
	case *expr.LambdaRef:
		return &jexpr{Kind: "lambdaref", Index: x.I, T: int(x.T)}, nil
	case *expr.Subscript:
		base, err := encodeExpr(x.Base)
		if err != nil {
			return nil, err
		}
		idx, err := encodeExpr(x.Index)
		if err != nil {
			return nil, err
		}
		return &jexpr{Kind: "subscript", L: base, R: idx, T: int(x.T)}, nil
	case *expr.ArrayCtor:
		elems, err := encodeExprs(x.Elems)
		if err != nil {
			return nil, err
		}
		return &jexpr{Kind: "array", List: elems}, nil
	default:
		return nil, fmt.Errorf("wire: unsupported expression %T", e)
	}
}

func decodeExpr(je *jexpr) (expr.Expr, error) {
	if je == nil {
		return nil, fmt.Errorf("null expression")
	}
	// need fetches a required child.
	need := func(child *jexpr, slot string) (expr.Expr, error) {
		if child == nil {
			return nil, fmt.Errorf("expression %q missing %s", je.Kind, slot)
		}
		return decodeExpr(child)
	}
	switch je.Kind {
	case "col":
		t, err := decodeType(je.T)
		if err != nil {
			return nil, err
		}
		return &expr.ColumnRef{Index: je.Index, T: t, Name: je.Name}, nil
	case "const":
		if je.Val == nil {
			return nil, fmt.Errorf("const without value")
		}
		v, err := decodeValue(*je.Val)
		if err != nil {
			return nil, err
		}
		return &expr.Const{Val: v}, nil
	case "arith":
		l, err := need(je.L, "l")
		if err != nil {
			return nil, err
		}
		r, err := need(je.R, "r")
		if err != nil {
			return nil, err
		}
		t, err := decodeType(je.T)
		if err != nil {
			return nil, err
		}
		if je.Op < int(expr.OpAdd) || je.Op > int(expr.OpConcat) {
			return nil, fmt.Errorf("bad arith op %d", je.Op)
		}
		return &expr.Arith{Op: expr.BinOp(je.Op), L: l, R: r, T: t}, nil
	case "neg":
		in, err := need(je.E, "e")
		if err != nil {
			return nil, err
		}
		return &expr.Neg{E: in}, nil
	case "cmp":
		l, err := need(je.L, "l")
		if err != nil {
			return nil, err
		}
		r, err := need(je.R, "r")
		if err != nil {
			return nil, err
		}
		if je.Op < int(expr.CmpEq) || je.Op > int(expr.CmpGe) {
			return nil, fmt.Errorf("bad compare op %d", je.Op)
		}
		return &expr.Compare{Op: expr.CmpOp(je.Op), L: l, R: r}, nil
	case "and":
		l, err := need(je.L, "l")
		if err != nil {
			return nil, err
		}
		r, err := need(je.R, "r")
		if err != nil {
			return nil, err
		}
		return &expr.And{L: l, R: r}, nil
	case "or":
		l, err := need(je.L, "l")
		if err != nil {
			return nil, err
		}
		r, err := need(je.R, "r")
		if err != nil {
			return nil, err
		}
		return &expr.Or{L: l, R: r}, nil
	case "not":
		in, err := need(je.E, "e")
		if err != nil {
			return nil, err
		}
		return &expr.Not{E: in}, nil
	case "isnull":
		in, err := need(je.E, "e")
		if err != nil {
			return nil, err
		}
		return &expr.IsNull{E: in, Negate: je.Negate}, nil
	case "in":
		in, err := need(je.E, "e")
		if err != nil {
			return nil, err
		}
		list, err := decodeExprs(je.List)
		if err != nil {
			return nil, err
		}
		return &expr.In{E: in, List: list, Negate: je.Negate}, nil
	case "between":
		in, err := need(je.E, "e")
		if err != nil {
			return nil, err
		}
		lo, err := need(je.Lo, "lo")
		if err != nil {
			return nil, err
		}
		hi, err := need(je.Hi, "hi")
		if err != nil {
			return nil, err
		}
		return &expr.Between{E: in, Lo: lo, Hi: hi, Negate: je.Negate}, nil
	case "like":
		in, err := need(je.E, "e")
		if err != nil {
			return nil, err
		}
		pat, err := need(je.R, "pattern")
		if err != nil {
			return nil, err
		}
		return &expr.Like{E: in, Pattern: pat, Negate: je.Negate}, nil
	case "case":
		t, err := decodeType(je.T)
		if err != nil {
			return nil, err
		}
		c := &expr.Case{T: t}
		for _, w := range je.Whens {
			cond, err := need(w.Cond, "when cond")
			if err != nil {
				return nil, err
			}
			then, err := need(w.Then, "when then")
			if err != nil {
				return nil, err
			}
			c.Whens = append(c.Whens, expr.CaseWhen{Cond: cond, Then: then})
		}
		if je.Else != nil {
			els, err := decodeExpr(je.Else)
			if err != nil {
				return nil, err
			}
			c.Else = els
		}
		return c, nil
	case "cast":
		in, err := need(je.E, "e")
		if err != nil {
			return nil, err
		}
		t, err := decodeType(je.T)
		if err != nil {
			return nil, err
		}
		return &expr.Cast{E: in, T: t}, nil
	case "call":
		fn, ok := expr.LookupBuiltin(je.Name)
		if !ok {
			return nil, fmt.Errorf("unknown builtin %q", je.Name)
		}
		args, err := decodeExprs(je.List)
		if err != nil {
			return nil, err
		}
		return &expr.Call{Fn: fn, Args: args}, nil
	case "lambda":
		body, err := need(je.E, "body")
		if err != nil {
			return nil, err
		}
		return &expr.Lambda{NParams: je.NParams, Body: body}, nil
	case "lambdaref":
		t, err := decodeType(je.T)
		if err != nil {
			return nil, err
		}
		return &expr.LambdaRef{I: je.Index, T: t}, nil
	case "subscript":
		base, err := need(je.L, "base")
		if err != nil {
			return nil, err
		}
		idx, err := need(je.R, "index")
		if err != nil {
			return nil, err
		}
		t, err := decodeType(je.T)
		if err != nil {
			return nil, err
		}
		return &expr.Subscript{Base: base, Index: idx, T: t}, nil
	case "array":
		elems, err := decodeExprs(je.List)
		if err != nil {
			return nil, err
		}
		return &expr.ArrayCtor{Elems: elems}, nil
	default:
		return nil, fmt.Errorf("wire: unknown expression kind %q", je.Kind)
	}
}
