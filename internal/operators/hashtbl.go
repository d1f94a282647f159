package operators

import (
	"bytes"
	"strings"
	"unsafe"

	"repro/internal/block"
	"repro/internal/types"
)

// keyTable is an open-addressing, linear-probing hash table over entries with
// dense ids [0, Len), each holding one key. It is the lookup index of the
// aggregation, distinct, join-build, and distinct-accumulator hot paths (paper
// §V-B): a slot holds an entry id, and a probe verifies the key the entry
// holds without materializing byte strings.
//
// Two key layouts:
//   - fixed: nk normalized (tag, payload) cells per entry — single BIGINT/DATE
//     keys and fixed-width multi-keys never touch a byte encoding at all. The
//     cells are the key: a probe compares them and nothing else, and growing
//     or partitioning rehashes them (hash), so no hash is stored;
//   - bytes: canonical encodeRowKey encodings packed into one arena — the
//     fallback for varchar/array/mixed keys, with no allocation per insert —
//     and a hash per entry, compared before the arena bytes are.
//
// Two ways to fill it:
//   - getOrInsert*: an entry per distinct key, in insertion order. The id is
//     the only handle a caller gets: per-entry payload (aggregate states, group
//     keys the cells cannot give back) lives in plain typed slices indexed by
//     id, never in an object per entry (paper §V-A);
//   - appendKeys, then link: an entry per row, every row's key stored, and
//     each row entered into the slot array afterwards, where it takes the place
//     of an equal key's entry. The join build indexes its rows this way
//     (buildIndexLocked): entry ids are build positions.
type keyTable struct {
	fixed bool
	nk    int // key cells per entry (fixed layout)
	n     int // entries
	keys  int // occupied slots: the distinct keys entered

	slots []int32 // entry id + 1; 0 = empty
	mask  uint64

	// fixed layout: row-major normalized cells, nk per entry.
	cells []uint64
	tags  []byte

	// bytes layout: per-entry key hash, and canonical key encodings, entry e at
	// arena[offs[e]:offs[e+1]].
	hashes []uint64
	arena  []byte
	offs   []uint32
}

// newKeyTable creates an empty table with the given key layout, its arrays
// sized for n entries: no insert up to the n-th grows the slot array or
// reallocates a vector (a bytes-layout arena aside — key lengths are not known
// ahead). n = 0 is a table that doubles to size.
func newKeyTable(fixed bool, nk, n int) *keyTable {
	slots := slotsFor(n)
	t := &keyTable{fixed: fixed, nk: nk, slots: make([]int32, slots), mask: uint64(slots - 1)}
	switch {
	case !fixed:
		t.offs = append(make([]uint32, 0, n+1), 0)
		if n > 0 {
			t.hashes = make([]uint64, 0, n)
		}
	case n > 0:
		t.cells, t.tags = make([]uint64, 0, n*nk), make([]byte, 0, n*nk)
	}
	return t
}

// slotsFor is the slot-array length that holds n entries under the 3/4 load
// factor maybeGrow keeps.
func slotsFor(n int) int {
	slots := 16
	for n*4 > slots*3 {
		slots *= 2
	}
	return slots
}

// keyTableBytes is memBytes of newKeyTable(fixed, nk, n) — what a table takes
// before an arena: 4 bytes a slot, then 9 a key cell (fixed), or a hash and an
// offset an entry (bytes).
func keyTableBytes(fixed bool, nk, n int) int64 {
	b := int64(4 * slotsFor(n))
	if fixed {
		return b + int64(9*n*nk)
	}
	return b + int64(8*n) + int64(4*(n+1))
}

// Len returns the number of entries.
func (t *keyTable) Len() int { return t.n }

// memBytes is the memory the table holds, for operator memory accounting:
// capacities, because a backing array is held whole however full it is.
func (t *keyTable) memBytes() int64 {
	return int64(4*cap(t.slots)) + int64(8*cap(t.hashes)) +
		int64(8*cap(t.cells)) + int64(cap(t.tags)) +
		int64(cap(t.arena)) + int64(4*cap(t.offs))
}

// reset empties the table and keeps its arrays for the next fill.
func (t *keyTable) reset() {
	clear(t.slots)
	t.n, t.keys = 0, 0
	t.hashes, t.cells, t.tags, t.arena = t.hashes[:0], t.cells[:0], t.tags[:0], t.arena[:0]
	if !t.fixed {
		t.offs = t.offs[:1]
	}
}

// hash is entry e's key hash, the one batchKeys computes for the same key:
// stored in the bytes layout, recomputed from the cells in the fixed one.
func (t *keyTable) hash(e int) uint64 {
	if !t.fixed {
		return t.hashes[e]
	}
	return fixedHash(t.cells[e*t.nk:(e+1)*t.nk], t.tags[e*t.nk:(e+1)*t.nk])
}

// grow doubles the slot array and redistributes the entries, in entry order:
// the keys are read in sequence and only the slot written is a random access.
// Every entry has a slot (getOrInsert* tables; a linked table is built at its
// final size).
func (t *keyTable) grow() {
	ns := make([]int32, 2*len(t.slots))
	mask := uint64(len(ns) - 1)
	for e := 0; e < t.n; e++ {
		i := t.hash(e) & mask
		for ns[i] != 0 {
			i = (i + 1) & mask
		}
		ns[i] = int32(e + 1)
	}
	t.slots, t.mask = ns, mask
}

// maybeGrow keeps the load factor under 3/4 ahead of one insertion.
func (t *keyTable) maybeGrow() {
	if uint64(t.keys+1)*4 > uint64(len(t.slots))*3 {
		t.grow()
	}
}

// enter puts the next entry id into empty slot i and returns it; the caller
// stores the entry's key.
func (t *keyTable) enter(i uint64) int {
	t.slots[i] = int32(t.n + 1)
	t.n++
	t.keys++
	return t.n - 1
}

func (t *keyTable) eqFixed(e int, cells []uint64, tags []byte) bool {
	base := e * t.nk
	for k := 0; k < t.nk; k++ {
		if t.cells[base+k] != cells[k] || t.tags[base+k] != tags[k] {
			return false
		}
	}
	return true
}

// getOrInsertFixed returns the entry id of the normalized key, inserting a
// new entry when absent (fresh=true).
func (t *keyTable) getOrInsertFixed(h uint64, cells []uint64, tags []byte) (id int, fresh bool) {
	t.maybeGrow()
	for i := h & t.mask; ; i = (i + 1) & t.mask {
		s := t.slots[i]
		if s == 0 {
			t.cells = append(room(t.cells, t.nk), cells...)
			t.tags = append(room(t.tags, t.nk), tags...)
			return t.enter(i), true
		}
		if t.eqFixed(int(s-1), cells, tags) {
			return int(s - 1), false
		}
	}
}

// getOrInsertFixed1 is the nk==1 specialization of getOrInsertFixed: the key
// is a single (cell, tag) pair passed by value, so the probe loop touches no
// slices beyond the table's own and inlines into the caller's per-row loop.
func (t *keyTable) getOrInsertFixed1(h uint64, cell uint64, tag byte) (id int, fresh bool) {
	t.maybeGrow()
	for i := h & t.mask; ; i = (i + 1) & t.mask {
		s := t.slots[i]
		if s == 0 {
			t.cells = append(room(t.cells, 1), cell)
			t.tags = append(room(t.tags, 1), tag)
			return t.enter(i), true
		}
		if e := int(s - 1); t.cells[e] == cell && t.tags[e] == tag {
			return e, false
		}
	}
}

// lookupFixed1 is the nk==1 specialization of lookupFixed.
func (t *keyTable) lookupFixed1(h uint64, cell uint64, tag byte) int {
	for i := h & t.mask; ; i = (i + 1) & t.mask {
		s := t.slots[i]
		if s == 0 {
			return -1
		}
		if e := int(s - 1); t.cells[e] == cell && t.tags[e] == tag {
			return e
		}
	}
}

// lookupFixed returns the entry id of the normalized key, or -1.
func (t *keyTable) lookupFixed(h uint64, cells []uint64, tags []byte) int {
	for i := h & t.mask; ; i = (i + 1) & t.mask {
		s := t.slots[i]
		if s == 0 {
			return -1
		}
		if t.eqFixed(int(s-1), cells, tags) {
			return int(s - 1)
		}
	}
}

func (t *keyTable) entryBytes(e int) []byte {
	return t.arena[t.offs[e]:t.offs[e+1]]
}

// getOrInsertBytes returns the entry id of the canonical key encoding,
// inserting a new entry when absent (fresh=true).
func (t *keyTable) getOrInsertBytes(h uint64, key []byte) (id int, fresh bool) {
	t.maybeGrow()
	for i := h & t.mask; ; i = (i + 1) & t.mask {
		s := t.slots[i]
		if s == 0 {
			t.hashes = append(room(t.hashes, 1), h)
			t.arena = append(room(t.arena, len(key)), key...)
			t.offs = append(room(t.offs, 1), uint32(len(t.arena)))
			return t.enter(i), true
		}
		if t.hashes[s-1] == h && bytes.Equal(t.entryBytes(int(s-1)), key) {
			return int(s - 1), false
		}
	}
}

// lookupBytes returns the entry id of the canonical key encoding, or -1.
func (t *keyTable) lookupBytes(h uint64, key []byte) int {
	for i := h & t.mask; ; i = (i + 1) & t.mask {
		s := t.slots[i]
		if s == 0 {
			return -1
		}
		if t.hashes[s-1] == h && bytes.Equal(t.entryBytes(int(s-1)), key) {
			return int(s - 1)
		}
	}
}

// appendKeys stores the key of every row of p, in row order, as the table's
// next entries, and enters none of them into the slot array (link does). A row
// with a NULL key column is stored too — as an empty encoding in the bytes
// layout — so that entry ids stay row positions; nullKey tells it apart. bk is
// the caller's hashing scratch.
func (t *keyTable) appendKeys(p *block.Page, cols []int, bk *batchKeys) {
	n := p.RowCount()
	if t.fixed {
		at, end := t.n*t.nk, (t.n+n)*t.nk
		t.cells, t.tags = room(t.cells, n*t.nk)[:end], room(t.tags, n*t.nk)[:end]
		bk.dicts = extend(bk.dicts, t.nk)
		for k, c := range cols {
			normCol(p.Col(c), t.cells[at:], t.tags[at:], k, t.nk, n, &bk.dicts[k])
		}
	} else {
		bk.reset(p, cols, false)
		t.hashes = append(room(t.hashes, n), bk.hashes...)
		t.offs = room(t.offs, n)
		for r := 0; r < n; r++ {
			if !rowKeyNull(p, r, cols) {
				bk.buf = encodeRowKey(bk.buf[:0], p, r, cols)
				t.arena = append(room(t.arena, len(bk.buf)), bk.buf...)
			}
			t.offs = append(t.offs, uint32(len(t.arena)))
		}
	}
	t.n += n
}

// nullKey reports whether entry e, stored by appendKeys, has a NULL key
// column: its row never matches an equi-join and is never linked.
func (t *keyTable) nullKey(e int) bool {
	if !t.fixed {
		return t.offs[e] == t.offs[e+1]
	}
	for _, tag := range t.tags[e*t.nk : (e+1)*t.nk] {
		if tag == cellNull {
			return true
		}
	}
	return false
}

// link enters entry e, stored by appendKeys, into the slot array: into an
// empty slot, returning -1, or into the slot of the entry with an equal key,
// returning that entry's id. Linking a build's rows last to first thus leaves
// every slot on its key's first row.
func (t *keyTable) link(e int) int {
	h := t.hash(e)
	for i := h & t.mask; ; i = (i + 1) & t.mask {
		s := t.slots[i]
		if s == 0 {
			t.slots[i] = int32(e + 1)
			t.keys++
			return -1
		}
		if q := int(s - 1); t.sameKey(q, e) {
			t.slots[i] = int32(e + 1)
			return q
		}
	}
}

// sameKey reports whether entries q and e hold equal keys.
func (t *keyTable) sameKey(q, e int) bool {
	switch {
	case !t.fixed:
		return t.hashes[q] == t.hashes[e] && bytes.Equal(t.entryBytes(q), t.entryBytes(e))
	case t.nk == 1:
		return t.cells[q] == t.cells[e] && t.tags[q] == t.tags[e]
	}
	return t.eqFixed(q, t.cells[e*t.nk:(e+1)*t.nk], t.tags[e*t.nk:(e+1)*t.nk])
}

// cellBlock gives key column k of the selected entries back from their
// normalized cells. It serves the key types whose cell is the value: BIGINT
// and DATE (the payload), BOOLEAN (payload 0 or 1), NULL (the tag). A
// double's cell is not its value — -0.0 shares 0's — so double keys are kept
// in a valueVec beside the table.
func (t *keyTable) cellBlock(k int, typ types.Type, sel []int32) block.Block {
	var nulls []bool
	setNull := func(i int) {
		if nulls == nil {
			nulls = make([]bool, len(sel))
		}
		nulls[i] = true
	}
	if typ == types.Boolean {
		vals := make([]bool, len(sel))
		for i, id := range sel {
			if c := int(id)*t.nk + k; t.tags[c] == cellNull {
				setNull(i)
			} else {
				vals[i] = t.cells[c] == 1
			}
		}
		return &block.BoolBlock{Vals: vals, Nulls: nulls}
	}
	vals := make([]int64, len(sel))
	for i, id := range sel {
		if c := int(id)*t.nk + k; t.tags[c] == cellNull {
			setNull(i)
		} else {
			vals[i] = int64(t.cells[c])
		}
	}
	return &block.LongBlock{T: typ, Vals: vals, Nulls: nulls}
}

// room returns s with capacity for n more elements, doubling a backing array
// that is full. Go's append grows a large slice by a quarter, which over the
// life of a table allocates five times its final size; doubling allocates
// twice.
func room[T any](s []T, n int) []T {
	if len(s)+n <= cap(s) {
		return s
	}
	ns := make([]T, len(s), max(4, 2*cap(s), len(s)+n))
	copy(ns, s)
	return ns
}

// extend lengthens an id-indexed vector to n zeroed entries. It relies on
// every shortening going through truncate, so that what lies beyond the
// length is zero.
func extend[T any](s []T, n int) []T {
	if n <= len(s) {
		return s
	}
	return room(s, n-len(s))[:n]
}

// truncate empties an id-indexed vector and keeps its array for the next fill.
func truncate[T any](s []T) []T {
	clear(s)
	return s[:0]
}

// pick gathers v at the selected ids into a slice a block can own.
func pick[T any](v []T, sel []int32) []T {
	out := make([]T, len(sel))
	for i, id := range sel {
		out[i] = v[id]
	}
	return out
}

// zeroMask marks the selected entries of v that are zero — the groups no
// value reached, whose result is NULL; nil when there are none.
func zeroMask[T comparable](v []T, sel []int32) []bool {
	var zero T
	var mask []bool
	for i, id := range sel {
		if v[id] == zero {
			if mask == nil {
				mask = make([]bool, len(sel))
			}
			mask[i] = true
		}
	}
	return mask
}

// valueVec is one typed column indexed by entry id: a group key the table's
// cells cannot give back (varchar, array, double) or a min/max state. Only
// the slice its type selects is in use; has marks the entries that hold a
// value, the others read as NULL. Values are copied out of the block they
// come from — a string shares its bytes, which are immutable, never the
// vector that held it — so the vec outlives the input page.
type valueVec struct {
	t        types.Type
	has      []bool
	longs    []int64
	doubles  []float64
	strs     []string
	bools    []bool
	boxed    []types.Value // array and untyped columns
	strBytes int64         // bytes under strs, for accounting
}

func (v *valueVec) grow(n int) {
	v.has = extend(v.has, n)
	switch v.t {
	case types.Bigint, types.Date:
		v.longs = extend(v.longs, n)
	case types.Double:
		v.doubles = extend(v.doubles, n)
	case types.Varchar:
		v.strs = extend(v.strs, n)
	case types.Boolean:
		v.bools = extend(v.bools, n)
	default:
		v.boxed = extend(v.boxed, n)
	}
}

// reset empties the vec and keeps its arrays for the next fill.
func (v *valueVec) reset() {
	*v = valueVec{t: v.t, has: truncate(v.has), longs: truncate(v.longs), doubles: truncate(v.doubles),
		strs: truncate(v.strs), bools: truncate(v.bools), boxed: truncate(v.boxed)}
}

// valueWidth is what one entry of a valueVec of type t takes in its arrays:
// the has mask and the slice t selects.
func valueWidth(t types.Type) int64 {
	switch t {
	case types.Bigint, types.Date, types.Double:
		return 1 + 8
	case types.Varchar:
		return 1 + 16
	case types.Boolean:
		return 1 + 1
	}
	return 1 + int64(unsafe.Sizeof(types.Value{}))
}

// memBytes is the memory the vec holds (capacities, as keyTable.memBytes).
func (v *valueVec) memBytes() int64 {
	return int64(cap(v.has)+8*cap(v.longs)+8*cap(v.doubles)+16*cap(v.strs)+cap(v.bools)) +
		int64(cap(v.boxed))*int64(unsafe.Sizeof(types.Value{})) + v.strBytes
}

// set stores the non-null b[r] as entry id.
func (v *valueVec) set(id int, b block.Block, r int) {
	v.has[id] = true
	switch v.t {
	case types.Bigint, types.Date:
		v.longs[id] = b.Long(r)
	case types.Double:
		v.doubles[id] = b.Double(r)
	case types.Varchar:
		s := b.Str(r)
		v.strBytes += int64(len(s) - len(v.strs[id]))
		v.strs[id] = s
	case types.Boolean:
		v.bools[id] = b.Bool(r)
	default:
		v.boxed[id] = b.Value(r)
	}
}

// put stores b[r] as the new entry id; a NULL leaves the entry unset.
func (v *valueVec) put(id int, b block.Block, r int) {
	v.grow(id + 1)
	if !b.IsNull(r) {
		v.set(id, b, r)
	}
}

// keep folds the non-null b[r] into the smaller (or larger) value kept as
// entry id. The comparisons are Value.Compare's for the vec's type: a NaN
// neither displaces an incumbent nor is displaced.
func (v *valueVec) keep(id int, b block.Block, r int, larger bool) {
	if v.has[id] {
		var c int
		switch v.t {
		case types.Bigint, types.Date:
			c = compareOrdered(b.Long(r), v.longs[id])
		case types.Double:
			c = compareOrdered(b.Double(r), v.doubles[id])
		case types.Varchar:
			c = strings.Compare(b.Str(r), v.strs[id])
		case types.Boolean:
			if x := b.Bool(r); x != v.bools[id] {
				c = -1
				if x {
					c = 1
				}
			}
		default:
			c = b.Value(r).Compare(v.boxed[id])
		}
		if larger {
			c = -c
		}
		if c >= 0 {
			return
		}
	}
	v.set(id, b, r)
}

func compareOrdered[T int64 | float64](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// block gathers the selected entries into a block of the vec's type.
func (v *valueVec) block(sel []int32) block.Block {
	nulls := zeroMask(v.has, sel)
	switch v.t {
	case types.Bigint, types.Date:
		return &block.LongBlock{T: v.t, Vals: pick(v.longs, sel), Nulls: nulls}
	case types.Double:
		return &block.DoubleBlock{Vals: pick(v.doubles, sel), Nulls: nulls}
	case types.Varchar:
		return &block.VarcharBlock{Vals: pick(v.strs, sel), Nulls: nulls}
	case types.Boolean:
		return &block.BoolBlock{Vals: pick(v.bools, sel), Nulls: nulls}
	}
	vals := pick(v.boxed, sel)
	for i := range vals {
		if nulls != nil && nulls[i] {
			vals[i] = types.NullValue(v.t)
		}
	}
	return block.BuildBlock(v.t, vals)
}
