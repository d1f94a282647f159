package wire

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/types"
)

// kinds names every plan node and expression type a fragment can hold. The
// name is the "kind" member that opens the type's object on the wire.
var kinds = map[string]any{
	"scan": &plan.Scan{}, "filter": &plan.Filter{}, "project": &plan.Project{},
	"aggregation": &plan.Aggregation{}, "join": &plan.Join{}, "sort": &plan.Sort{},
	"topn": &plan.TopN{}, "limit": &plan.Limit{},
	"window": &plan.Window{}, "values": &plan.Values{}, "union": &plan.Union{},
	"output": &plan.Output{}, "tablewrite": &plan.TableWrite{},
	"enforcesinglerow": &plan.EnforceSingleRow{}, "remotesource": &plan.RemoteSource{},

	"col": &expr.ColumnRef{}, "const": &expr.Const{}, "arith": &expr.Arith{},
	"neg": &expr.Neg{}, "cmp": &expr.Compare{}, "and": &expr.And{}, "or": &expr.Or{},
	"not": &expr.Not{}, "isnull": &expr.IsNull{}, "in": &expr.In{},
	"between": &expr.Between{}, "like": &expr.Like{}, "case": &expr.Case{},
	"cast": &expr.Cast{}, "call": &expr.Call{}, "lambda": &expr.Lambda{},
	"lambdaref": &expr.LambdaRef{}, "subscript": &expr.Subscript{}, "array": &expr.ArrayCtor{},
	// A plan never holds a Param (plan.Fragment.Validate refuses one); it is
	// registered so that every expression type has a kind.
	"param": &expr.Param{},
}

// validator is an enum: every field of such a type is checked on decode.
type validator interface{ Valid() bool }

// field is one exported struct field. Its Go name is its key on the wire.
type field struct {
	name  string
	key   string // `"Name":`
	index int
	enum  bool
	// required marks a field whose zero value is malformed: a child not
	// tagged wire:"optional", a builtin, an enum whose zero is not Valid, or
	// a struct holding one. The encoder leaves out only zero fields.
	required bool
}

var (
	nodeType, exprType = reflect.TypeFor[plan.Node](), reflect.TypeFor[expr.Expr]()
	// byName maps each interface to its kinds' pointer types; byType maps back.
	byName      = map[reflect.Type]map[string]reflect.Type{nodeType: {}, exprType: {}}
	byType      = map[reflect.Type]string{}
	fields      = map[reflect.Type][]field{}
	builtinType = reflect.TypeFor[*expr.Builtin]()
	// canonicalNaN is strconv.ParseFloat("NaN"); another NaN carries its bits.
	canonicalNaN = math.Float64bits(math.NaN())
)

func init() {
	for name, v := range kinds {
		t, iface := reflect.TypeOf(v), exprType
		if t.Implements(nodeType) {
			iface = nodeType
		}
		byName[iface][name], byType[t] = t, name
		describe(t)
	}
	describe(reflect.TypeFor[plan.Fragment]())
}

// describe fills fields for every struct type t reaches and reports whether
// t's zero value is malformed.
func describe(t reflect.Type) (required bool) {
	switch t.Kind() {
	case reflect.Interface:
		return true
	case reflect.Pointer, reflect.Slice, reflect.Map:
		if t != builtinType {
			describe(t.Elem())
		}
		return t == builtinType
	case reflect.Struct:
	default:
		return false
	}
	fs, done := fields[t]
	if !done {
		fields[t] = nil // a struct reaches itself only through a slice, map or pointer
		for i := 0; i < t.NumField(); i++ {
			if sf := t.Field(i); sf.IsExported() {
				f := field{name: sf.Name, key: strconv.Quote(sf.Name) + ":", index: i,
					enum: sf.Type.Implements(reflect.TypeFor[validator]())}
				f.required = describe(sf.Type) && sf.Tag.Get("wire") != "optional" ||
					f.enum && !reflect.Zero(sf.Type).Interface().(validator).Valid()
				fs = append(fs, f)
			}
		}
		fields[t] = fs
	}
	return slices.ContainsFunc(fs, func(f field) bool { return f.required })
}

// MarshalFragment serializes a plan fragment for POST /v1/query/{qid}/tasks.
func MarshalFragment(f *plan.Fragment) (json.RawMessage, error) {
	e := encoder{buf: make([]byte, 0, 1024)}
	if err := e.value(reflect.ValueOf(f).Elem()); err != nil {
		return nil, fmt.Errorf("fragment %d: %w", f.ID, err)
	}
	return e.buf, nil
}

// UnmarshalFragment reverses MarshalFragment. A fragment it returns passes
// every check the codec and plan.Fragment.Validate make, so compiling it
// cannot index outside a schema.
func UnmarshalFragment(data json.RawMessage) (*plan.Fragment, error) {
	if !json.Valid(data) {
		return nil, errors.New("fragment: not a JSON document")
	}
	f := new(plan.Fragment)
	d := decoder{data: data}
	if err := d.value(reflect.ValueOf(f).Elem()); err != nil {
		return nil, fmt.Errorf("fragment: %w", err)
	}
	if err := f.Validate(); err != nil {
		return nil, fmt.Errorf("fragment %d: %w", f.ID, err)
	}
	return f, nil
}

// MarshalValues encodes a statement's literals for a create request, as the
// codec encodes a constant's value.
func MarshalValues(vals []types.Value) (json.RawMessage, error) {
	var e encoder
	if err := e.value(reflect.ValueOf(vals)); err != nil {
		return nil, fmt.Errorf("values: %w", err)
	}
	return e.buf, nil
}

// UnmarshalValues reverses MarshalValues; empty data is no values.
func UnmarshalValues(data json.RawMessage) ([]types.Value, error) {
	if len(data) == 0 {
		return nil, nil
	}
	if !json.Valid(data) {
		return nil, errors.New("values: not a JSON document")
	}
	var vals []types.Value
	d := decoder{data: data}
	if err := d.value(reflect.ValueOf(&vals).Elem()); err != nil {
		return nil, fmt.Errorf("values: %w", err)
	}
	return vals, nil
}

// encoder appends the JSON form of plan values to buf.
type encoder struct{ buf []byte }

func (e *encoder) value(v reflect.Value) error {
	switch v.Kind() {
	case reflect.Interface, reflect.Pointer, reflect.Slice, reflect.Map:
		if v.IsNil() {
			e.buf = append(e.buf, "null"...)
			return nil
		}
	}
	switch v.Kind() {
	case reflect.Interface:
		name := byType[v.Elem().Type()]
		if name == "" || v.Elem().IsNil() {
			return fmt.Errorf("cannot encode a %s", v.Elem().Type())
		}
		return e.object(v.Elem().Elem(), name)
	case reflect.Pointer:
		if v.Type() != builtinType {
			return e.value(v.Elem())
		}
		e.str(v.Interface().(*expr.Builtin).Name)
	case reflect.Struct:
		return e.object(v, "")
	case reflect.Slice:
		e.buf = append(e.buf, '[')
		for i := 0; i < v.Len(); i++ {
			if i > 0 {
				e.buf = append(e.buf, ',')
			}
			if err := e.value(v.Index(i)); err != nil {
				return err
			}
		}
		e.buf = append(e.buf, ']')
	case reflect.Map: // of string keys, which are all a plan has
		keys := v.MapKeys()
		sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
		e.buf = append(e.buf, '{')
		for i, k := range keys {
			if i > 0 {
				e.buf = append(e.buf, ',')
			}
			e.str(k.String())
			e.buf = append(e.buf, ':')
			if err := e.value(v.MapIndex(k)); err != nil {
				return err
			}
		}
		e.buf = append(e.buf, '}')
	case reflect.String:
		e.str(v.String())
	case reflect.Bool:
		e.buf = strconv.AppendBool(e.buf, v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		e.buf = strconv.AppendInt(e.buf, v.Int(), 10)
	case reflect.Float64:
		e.float(v.Float())
	default:
		return fmt.Errorf("cannot encode a %s", v.Type())
	}
	return nil
}

// object writes a struct's non-empty exported fields, after its kind if it
// stands in for an interface.
func (e *encoder) object(v reflect.Value, kind string) error {
	e.buf = append(e.buf, '{')
	if kind != "" {
		e.buf = append(append(append(e.buf, `"kind":"`...), kind...), '"')
	}
	for _, f := range fields[v.Type()] {
		fv := v.Field(f.index)
		if empty(fv) {
			continue
		}
		if e.buf[len(e.buf)-1] != '{' {
			e.buf = append(e.buf, ',')
		}
		e.buf = append(e.buf, f.key...)
		if err := e.value(fv); err != nil {
			return fmt.Errorf("%s: %w", f.name, err)
		}
	}
	e.buf = append(e.buf, '}')
	return nil
}

// empty reports whether a field is left out: its type's zero value, but not a
// −0.0, which IsZero counts as zero, nor a struct, which might hold one.
func empty(v reflect.Value) bool {
	return v.Kind() != reflect.Struct && v.IsZero() && !(v.Kind() == reflect.Float64 && math.Signbit(v.Float()))
}

func (e *encoder) str(s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' {
			b, _ := json.Marshal(s) // a string always marshals
			e.buf = append(e.buf, b...)
			return
		}
	}
	e.buf = append(append(append(e.buf, '"'), s...), '"')
}

// float writes a finite double as a JSON number and any other as a string:
// "+Inf", "-Inf", "NaN", or "NaN:<bits in hex>" for a NaN other than Go's.
func (e *encoder) float(f float64) {
	if !math.IsNaN(f) && !math.IsInf(f, 0) {
		e.buf = strconv.AppendFloat(e.buf, f, 'g', -1, 64)
		return
	}
	s := strconv.FormatFloat(f, 'g', -1, 64)
	if bits := math.Float64bits(f); math.IsNaN(f) && bits != canonicalNaN {
		s += ":" + strconv.FormatUint(bits, 16)
	}
	e.str(s)
}

// decoder reads a document json.Valid accepted straight into plan values, so
// it checks only which value comes next, never whether the document ends.
type decoder struct {
	data []byte
	off  int
}

// peek skips white space and returns the next byte.
func (d *decoder) peek() byte {
	for d.data[d.off] <= ' ' {
		d.off++
	}
	return d.data[d.off]
}

func (d *decoder) mismatch(v reflect.Value) error {
	return fmt.Errorf("want a %s at offset %d", v.Type(), d.off)
}

func (d *decoder) value(v reflect.Value) error {
	c := d.peek()
	if c == 'n' && (v.Kind() == reflect.Slice || v.Kind() == reflect.Map) {
		d.literal()
		return nil
	}
	switch v.Kind() {
	case reflect.Interface, reflect.Struct:
		return d.object(v)
	case reflect.Pointer:
		if v.Type() != builtinType {
			v.Set(reflect.New(v.Type().Elem()))
			return d.value(v.Elem())
		}
		name, err := d.str()
		fn, ok := expr.LookupBuiltin(name)
		if err == nil && !ok {
			err = fmt.Errorf("unknown builtin %q", name)
		}
		v.Set(reflect.ValueOf(fn))
		return err
	case reflect.Slice:
		if c != '[' {
			return d.mismatch(v)
		}
		s := reflect.MakeSlice(v.Type(), 0, 0)
		err := d.each(func(string) error {
			s = reflect.Append(s, reflect.Zero(v.Type().Elem()))
			return d.value(s.Index(s.Len() - 1))
		})
		v.Set(s)
		return err
	case reflect.Map:
		if c != '{' {
			return d.mismatch(v)
		}
		v.Set(reflect.MakeMap(v.Type()))
		return d.each(func(key string) error {
			elem := reflect.New(v.Type().Elem()).Elem()
			err := d.value(elem)
			v.SetMapIndex(reflect.ValueOf(key).Convert(v.Type().Key()), elem)
			return err
		})
	case reflect.String:
		s, err := d.str()
		v.SetString(s)
		return err
	case reflect.Bool:
		lit := d.literal()
		if lit != "true" && lit != "false" {
			return d.mismatch(v)
		}
		v.SetBool(lit == "true")
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		n, err := strconv.ParseInt(d.literal(), 10, 64)
		if err != nil || v.OverflowInt(n) {
			return fmt.Errorf("want a %s: %v", v.Type(), err)
		}
		v.SetInt(n)
	case reflect.Float64:
		f, err := d.float()
		v.SetFloat(f)
		return err
	default:
		return fmt.Errorf("cannot decode a %s", v.Type())
	}
	return nil
}

// object decodes an object's members by field name into the struct at v or,
// for an interface, into a new struct of the kind its first member names;
// then it checks the struct's required fields.
func (d *decoder) object(v reflect.Value) error {
	if d.peek() != '{' {
		return d.mismatch(v)
	}
	s := v
	err := d.each(func(key string) error {
		if s.Kind() == reflect.Interface {
			name, err := d.str()
			if t := byName[v.Type()][name]; err == nil && key == "kind" && t != nil {
				s = reflect.New(t.Elem()).Elem()
				return nil
			}
			return fmt.Errorf("want a %s kind first, have %s %q", v.Type(), key, name)
		}
		for _, f := range fields[s.Type()] {
			if f.name != key {
				continue
			}
			fv := s.Field(f.index)
			if err := d.value(fv); err != nil {
				return fmt.Errorf("%s: %w", key, err)
			}
			if f.enum && !fv.Interface().(validator).Valid() {
				return fmt.Errorf("%s: %#v is not a %s", key, fv.Interface(), fv.Type())
			}
			return nil
		}
		return fmt.Errorf("a %s has no field %q", s.Type(), key)
	})
	if err != nil || s.Kind() == reflect.Interface {
		return cmp.Or(err, fmt.Errorf("a %s without a kind", v.Type()))
	}
	for _, f := range fields[s.Type()] {
		if f.required && s.Field(f.index).IsZero() {
			return fmt.Errorf("%s: missing", f.name)
		}
	}
	if v.Kind() == reflect.Interface {
		v.Set(s.Addr())
	}
	return nil
}

// each calls fn for every element of the array, or member of the object, at
// the cursor; key is empty for an array element.
func (d *decoder) each(fn func(key string) error) error {
	end := d.peek() + 2 // ']' follows '[' at two apart in ASCII, as '}' does '{'
	d.off++
	for d.peek() != end {
		var key string
		if end == '}' {
			var err error
			if key, err = d.str(); err != nil {
				return err
			}
			d.peek()
			d.off++ // ':'
		}
		if err := fn(key); err != nil {
			return err
		}
		if d.peek() == ',' {
			d.off++
		}
	}
	d.off++
	return nil
}

func (d *decoder) str() (string, error) {
	if d.peek() != '"' {
		return "", fmt.Errorf("want a string at offset %d", d.off)
	}
	start, escaped := d.off, false
	for d.off++; d.data[d.off] != '"'; d.off++ {
		if d.data[d.off] == '\\' {
			escaped = true
			d.off++
		}
	}
	d.off++
	if !escaped {
		return string(d.data[start+1 : d.off-1]), nil
	}
	var s string
	err := json.Unmarshal(d.data[start:d.off], &s)
	return s, err
}

// literal reads the number, true, false or null at the cursor.
func (d *decoder) literal() string {
	start := d.off
	for d.off < len(d.data) && !strings.ContainsRune(",]} \t\r\n", rune(d.data[d.off])) {
		d.off++
	}
	return string(d.data[start:d.off])
}

// float reads what encoder.float writes.
func (d *decoder) float() (float64, error) {
	if d.peek() != '"' {
		return strconv.ParseFloat(d.literal(), 64)
	}
	s, err := d.str()
	if hex, ok := strings.CutPrefix(s, "NaN:"); ok {
		bits, err := strconv.ParseUint(hex, 16, 64)
		if f := math.Float64frombits(bits); err == nil && math.IsNaN(f) {
			return f, nil
		}
	} else if f, err := strconv.ParseFloat(s, 64); err == nil && (math.IsNaN(f) || math.IsInf(f, 0)) {
		return f, nil
	}
	return 0, cmp.Or(err, fmt.Errorf("%q is not a non-finite double", s))
}
