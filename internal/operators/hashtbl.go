package operators

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"sync/atomic"
	"unsafe"

	"repro/internal/block"
	"repro/internal/memory"
	"repro/internal/types"
)

// keyTable is an open-addressing, linear-probing hash table over entries with
// dense ids [0, Len), each holding one key. It is the lookup index of the
// aggregation, distinct, join-build, and distinct-accumulator hot paths (paper
// §V-B): a slot holds an entry id, and a probe verifies the key the entry
// holds without materializing byte strings.
//
// One key layout: nk normalized (tag, payload) cells per entry (normCol). The
// cells are the key: a probe compares them, and growing or partitioning
// rehashes them (hash), so no hash is stored. A string cell's payload is a
// hash of its bytes (block.VarPayload), so a table whose planner key types
// include a variable-width one (varKey) also keeps the bytes of its string
// cells in one arena, and compares them when the cells are equal; any other
// table keeps no bytes, and its probes compare cells only.
//
// Three ways to address it:
//   - hashed: the low bits of a key's hash (block.HashCell and the rest, the
//     one key hash) pick the slot a linear probe starts from. The exchange
//     and the spill partitions read other bits of the same hash (block.Route,
//     spill.Partition), so a table behind either still fills every slot;
//   - direct: the slot array is indexed by value — slots[cell - base] — over
//     one key column whose cells are all integers (CellLong: BIGINT, DATE, an
//     integral DOUBLE) with a span max - min + 1 that fits the slots. A lookup
//     is a tag check, a subtraction, a bounds check and one load, with no hash
//     and no probe. A linked table (below) decides it per build, from the
//     build's own cells (index), NULL keys aside, and fits the slots it leased
//     anyway. A group table (getOrInsert*) decides it per page (fit): it is
//     direct while every cell is an integer and the span fits the larger of
//     the slots it holds (a presized table's) and the slots a hashed table
//     would lease after the page, so it never takes more memory than hashed.
//     The first page that has another cell (a NULL, a double, a boolean) or a
//     wider span turns it hashed: its entries are hashed again from their
//     cells, once, and it stays hashed until reset. A table that keeps bytes
//     is never direct;
//
// Two ways to fill it:
//   - getOrInsert*: an entry per distinct key, in insertion order. The id is
//     the only handle a caller gets: per-entry payload (aggregate states, group
//     keys the table cannot give back) lives in plain typed slices indexed by
//     id, never in an object per entry (paper §V-A);
//   - appendKeys, then link: an entry per row, every row's key stored, and
//     each row entered into the slot array afterwards, where it takes the place
//     of an equal key's entry. The join build indexes its rows this way
//     (buildIndexLocked): entry ids are build positions.
type keyTable struct {
	l    *memory.LocalContext // the ledger every array is leased through
	nk   int                  // key cells per entry
	vars []int                // the key columns of a variable-width planner type, whose string cells' bytes the table keeps; nil: none
	n    int                  // entries
	keys int                  // occupied slots: the distinct keys entered

	slots []int32 // entry id + 1; 0 = empty
	mask  uint64

	// Addressing (see above). A direct table's slot i is key base + i's, and
	// lo and hi are its smallest and largest key. A group table over one key
	// column is open — neither direct nor hashed, and empty — until its first
	// page decides (fit); hashed marks one that stays hashed until reset, and
	// turned one that was direct before.
	direct         bool
	hashed, turned bool
	base, lo, hi   int64

	// Row-major normalized cells, nk per entry.
	cells []uint64
	tags  []byte

	// The bytes of the string cells, one offset per entry and key column in
	// vars: entry e's j-th is arena[offs[e*len(vars)+j]:offs[e*len(vars)+j+1]],
	// empty unless its cell is a string cell (varCell).
	arena []byte
	offs  []uint32
}

// newKeyTable creates an empty table over keys of the planner types ts, its
// arrays sized for n entries and leased through tl: no insert up to the n-th
// grows the slot array or reallocates a vector (the byte arena aside — key
// lengths are not known ahead). n = 0 is a table that doubles to size from no
// array at all, which only getOrInsert* may use: an empty table leases
// nothing, so an operator that holds one has nothing to revoke. The owner
// gives the arrays back (release) once nothing reads the table again.
func newKeyTable(tl *tableLease, ts []types.Type, n int) *keyTable {
	t := &keyTable{l: tl.l, nk: len(ts), vars: varKeys(ts)}
	if n == 0 {
		return t
	}
	slots := slotsFor(n)
	t.slots, t.mask = leaseVec[int32](tl, slots, slots), uint64(slots-1)
	t.cells, t.tags = leaseVec[uint64](tl, 0, n*t.nk), leaseVec[byte](tl, 0, n*t.nk)
	if t.vars != nil {
		t.offs = leaseVec[uint32](tl, 1, n*len(t.vars)+1)
	}
	return t
}

// release gives the table's arrays (a nil table's: none) back through its
// ledger and empties it; a lookup in it after fails at its first slot.
func (t *keyTable) release() {
	if t == nil {
		return
	}
	memory.Return(t.l, t.slots)
	memory.Return(t.l, t.cells)
	memory.Return(t.l, t.tags)
	memory.Return(t.l, t.arena)
	memory.Return(t.l, t.offs)
	*t = keyTable{l: t.l, nk: t.nk, vars: t.vars}
}

// tableLease is where a table gets its arrays: the operator's ledger l. A
// reserving lease (a presized group table) reserves each array's bytes first,
// with TryGrow, which never makes room, and is refused — leasing nothing more
// — at the first that does not fit or would take the arrays past most bytes
// (0: no bound). It must not reserve under an operator's lock.
type tableLease struct {
	l       *memory.LocalContext
	reserve bool
	most    int64
	refused bool
}

// leaseVec leases one table array through tl, or gives nil once refused.
func leaseVec[T block.TableElem](tl *tableLease, n, c int) []T {
	if tl.reserve {
		size := int64(block.TableCap(max(n, c))) * int64(unsafe.Sizeof(*new(T)))
		tl.refused = tl.refused || tl.most > 0 && tl.l.Leased()+size > tl.most || !tl.l.TryGrow(size)
		if tl.refused {
			return nil
		}
	}
	return memory.Lease[T](tl.l, n, c)
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

// keyTableBytes is what newKeyTable(ts, n > 0) leases, before the byte arena:
// 4 bytes a slot, 9 a key cell, and 4 an offset of a variable-width key
// column's cell, each vector at its class capacity. It is the join build's
// reserve-ahead, the one price the ledger does not replace.
func keyTableBytes(ts []types.Type, n int) int64 {
	b := int64(4*slotsFor(n)) + 9*int64(block.TableCap(n*len(ts)))
	if nv := len(varKeys(ts)); nv > 0 {
		b += 4 * int64(block.TableCap(n*nv+1))
	}
	return b
}

// varKeys is the positions of the variable-width key types among ts (varKey),
// nil when there is none.
func varKeys(ts []types.Type) []int {
	var vars []int
	for k, t := range ts {
		if varKey(t) {
			vars = append(vars, k)
		}
	}
	return vars
}

// Len returns the number of entries.
func (t *keyTable) Len() int { return t.n }

// reset empties the table, open again, and keeps its arrays for the next
// fill.
func (t *keyTable) reset() {
	clear(t.slots)
	t.n, t.keys = 0, 0
	t.direct, t.hashed, t.turned = false, false, false
	t.cells, t.tags, t.arena = t.cells[:0], t.tags[:0], t.arena[:0]
	t.offs = t.offs[:min(len(t.offs), 1)] // no offsets yet in a table never filled
}

// hash is entry e's key hash, the one batchKeys computes for the same key,
// recomputed from its cells.
func (t *keyTable) hash(e int) uint64 {
	return fixedHash(t.cells[e*t.nk:(e+1)*t.nk], t.tags[e*t.nk:(e+1)*t.nk])
}

// grow doubles the slot array (the first has 16) and enters every entry again
// (rehash). Every entry has a slot (getOrInsert* tables; a linked table is
// built at its final size).
func (t *keyTable) grow() { t.rehash(max(16, 2*len(t.slots))) }

// rehash enters every entry again by its hash, in entry order — the keys are
// read in sequence and only the slot written is a random access — into a slot
// array of size slots: the one the table holds, cleared, when it has that
// size, else a new one leased through the ledger.
func (t *keyTable) rehash(size int) {
	ns := t.slots
	if size == len(ns) {
		clear(ns)
	} else {
		ns = memory.Lease[int32](t.l, size, 0)
	}
	mask := uint64(size - 1)
	for e := 0; e < t.n; e++ {
		i := t.hash(e) & mask
		for ns[i] != 0 {
			i = (i + 1) & mask
		}
		ns[i] = int32(e + 1)
	}
	if size != len(t.slots) {
		memory.Return(t.l, t.slots)
	}
	t.slots, t.mask = ns, mask
}

// hashEveryIndex keeps every key table hashed (index and fit never make one
// direct), linked and group tables alike; tests set it to compare the two
// modes over the same rows.
var hashEveryIndex atomic.Bool

// index makes a table filled by appendKeys direct when its keys allow it (see
// keyTable), before link enters them. One pass over the cells finds the
// smallest and largest key, as signed integers, and stops at the first cell
// that rules the mode out: a non-integer, or a span past the slot array (one
// that overflows int64 is such a span).
func (t *keyTable) index() {
	if t.nk != 1 || t.vars != nil || hashEveryIndex.Load() {
		return
	}
	lo, hi, slots := int64(math.MaxInt64), int64(math.MinInt64), uint64(len(t.slots))
	for e, tag := range t.tags[:t.n] {
		switch tag {
		case block.CellNull:
			continue
		case block.CellLong:
		default:
			return
		}
		v := int64(t.cells[e])
		if lo, hi = min(lo, v), max(hi, v); uint64(hi)-uint64(lo) >= slots {
			return
		}
	}
	if lo <= hi { // else every key is NULL, and nothing is linked
		t.direct, t.base, t.lo, t.hi = true, lo, lo, hi
	}
}

// lookupDirect is lookupFixed1 on a direct table. Every cell base + i
// (mod 2^64) with i inside the slot array has slot i, which is empty unless
// the cell is a key, so the slot needs no check against the cells.
func (t *keyTable) lookupDirect(cell uint64, tag byte) int {
	if i := cell - uint64(t.base); tag == block.CellLong && i < uint64(len(t.slots)) {
		return int(t.slots[i]) - 1
	}
	return -1
}

// fit readies a group table over one fixed key column to enter keys lo..hi
// directly — the cells of a page, every one an integer, with rows rows — and
// reports whether it did. It does while the table is open or direct and the
// span of its keys and these is within the larger of the slots it holds and
// slotsFor(keys + rows), what a hashed table would lease after the page. It
// moves the keys to a wider window when the new ones pass it (place).
// Otherwise the table turns hashed (settleHashed) and fit reports false.
func (t *keyTable) fit(lo, hi int64, rows int) bool {
	if t.direct {
		lo, hi = min(lo, t.lo), max(hi, t.hi)
	}
	limit := uint64(max(len(t.slots), slotsFor(t.keys+rows)))
	if t.hashed || hashEveryIndex.Load() || uint64(hi)-uint64(lo) >= limit {
		t.settleHashed()
		return false
	}
	if size := uint64(len(t.slots)); !t.direct || uint64(lo)-uint64(t.base) >= size || uint64(hi)-uint64(t.base) >= size {
		t.place(lo, hi)
	}
	t.direct, t.lo, t.hi = true, lo, hi
	return true
}

// place makes the slot array a window over keys lo..hi, with the keys the
// table holds moved to their new slots: the array it holds when that is long
// enough, else one twice as long as often as it takes (16 at least), leased
// through the ledger. The keys sit in the middle of the window, so that it
// can widen either way before they move again.
func (t *keyTable) place(lo, hi int64) {
	span := uint64(hi) - uint64(lo) + 1
	size := max(16, len(t.slots))
	for uint64(size) < span {
		size *= 2
	}
	base := int64(uint64(lo) - (uint64(size)-span)/2)
	ns := t.slots
	if size != len(ns) {
		ns = memory.Lease[int32](t.l, size, 0)
	}
	if t.direct { // else the array is empty
		from := t.slots[uint64(t.lo)-uint64(t.base) : uint64(t.hi)-uint64(t.base)+1]
		at := uint64(t.lo) - uint64(base)
		copy(ns[at:], from)
		if size == len(t.slots) {
			clear(ns[:at])
			clear(ns[at+uint64(len(from)):])
		}
	}
	if size != len(t.slots) {
		memory.Return(t.l, t.slots)
	}
	t.slots, t.mask, t.base = ns, uint64(size-1), base
}

// settleHashed makes the table hashed until reset: a direct table's entries
// are entered again by their hashes, in the slot array it holds unless the
// load factor asks for a longer one.
func (t *keyTable) settleHashed() {
	if t.direct {
		t.turned = true
		t.rehash(max(len(t.slots), slotsFor(t.keys)))
	}
	t.direct, t.hashed = false, true
}

// findDirect is the entry id of an integer cell fit has admitted to a direct
// table, or -1: the cell is the slot, with no hash and no probe. With
// insertDirect for a -1, it is getOrInsertFixed1 on a direct table, and it
// inlines into the caller's per-row loop.
func (t *keyTable) findDirect(cell uint64) int {
	return int(t.slots[cell-uint64(t.base)]) - 1
}

// insertDirect enters cell, admitted by fit and not yet a key of the direct
// table, as its next entry.
func (t *keyTable) insertDirect(cell uint64) int {
	t.cells = append(room(t.l, t.cells, 1), cell)
	t.tags = append(room(t.l, t.tags, 1), block.CellLong)
	return t.enter(cell - uint64(t.base))
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

// eq reports whether entry e holds the key of normalized cells, tags and
// the strings of its string cells (batchKeys.row): equal cells, and for a
// string cell equal bytes too.
func (t *keyTable) eq(e int, cells []uint64, tags []byte, strs []string) bool {
	base := e * t.nk
	for k := 0; k < t.nk; k++ {
		if t.cells[base+k] != cells[k] || t.tags[base+k] != tags[k] {
			return false
		}
	}
	for j, k := range t.vars {
		if varCell(tags[k]) && string(t.keyBytes(e, j)) != strs[k] {
			return false
		}
	}
	return true
}

// keyBytes is the bytes of entry e's j-th variable-width key column.
func (t *keyTable) keyBytes(e, j int) []byte {
	i := e*len(t.vars) + j
	return t.arena[t.offs[i]:t.offs[i+1]]
}

// keyStr is keyBytes of key column k, one of vars, as a string that views the
// arena: a caller copies what it keeps.
func (t *keyTable) keyStr(e, k int) string {
	b := t.keyBytes(e, slices.Index(t.vars, k))
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// keepStrs stores the bytes of the string cells of the key of tags and strs,
// the table's next entry's.
func (t *keyTable) keepStrs(tags []byte, strs []string) {
	if len(t.offs) == 0 { // the first key: an empty table leases no offsets
		t.offs = append(room(t.l, t.offs, 1), 0)
	}
	t.offs = room(t.l, t.offs, len(t.vars))
	for _, k := range t.vars {
		if varCell(tags[k]) {
			t.arena = append(room(t.l, t.arena, len(strs[k])), strs[k]...)
		}
		t.offs = append(t.offs, uint32(len(t.arena)))
	}
}

// getOrInsert returns the entry id of the normalized key, inserting a new
// entry when absent (fresh=true).
func (t *keyTable) getOrInsert(h uint64, cells []uint64, tags []byte, strs []string) (id int, fresh bool) {
	t.maybeGrow()
	for i := h & t.mask; ; i = (i + 1) & t.mask {
		s := t.slots[i]
		if s == 0 {
			t.cells = append(room(t.l, t.cells, t.nk), cells...)
			t.tags = append(room(t.l, t.tags, t.nk), tags...)
			if t.vars != nil {
				t.keepStrs(tags, strs)
			}
			return t.enter(i), true
		}
		if t.eq(int(s-1), cells, tags, strs) {
			return int(s - 1), false
		}
	}
}

// getOrInsertFixed1 is getOrInsert for a table of one key column that keeps
// no bytes: the key is a single (cell, tag) pair passed by value, so the probe
// loop touches no slices beyond the table's own and inlines into the caller's
// per-row loop.
func (t *keyTable) getOrInsertFixed1(h uint64, cell uint64, tag byte) (id int, fresh bool) {
	t.maybeGrow()
	for i := h & t.mask; ; i = (i + 1) & t.mask {
		s := t.slots[i]
		if s == 0 {
			t.cells = append(room(t.l, t.cells, 1), cell)
			t.tags = append(room(t.l, t.tags, 1), tag)
			return t.enter(i), true
		}
		if e := int(s - 1); t.cells[e] == cell && t.tags[e] == tag {
			return e, false
		}
	}
}

// lookupFixed1 is getOrInsertFixed1's lookup, which inserts nothing.
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

// lookup returns the entry id of the normalized key, or -1.
func (t *keyTable) lookup(h uint64, cells []uint64, tags []byte, strs []string) int {
	for i := h & t.mask; ; i = (i + 1) & t.mask {
		s := t.slots[i]
		if s == 0 {
			return -1
		}
		if t.eq(int(s-1), cells, tags, strs) {
			return int(s - 1)
		}
	}
}

// appendKeys stores the key of every row of p, in row order, as the table's
// next entries, and enters none of them into the slot array (link does). A row
// with a NULL key column is stored too, so that entry ids stay row positions;
// nullKey tells it apart. bk is the caller's key hashing; the strings of a
// page's string cells are leased from a (leaseStrs).
func (t *keyTable) appendKeys(a *block.Arena, p *block.Page, cols []int, bk *batchKeys) {
	n := p.RowCount()
	at, end := t.n*t.nk, (t.n+n)*t.nk
	t.cells, t.tags = room(t.l, t.cells, n*t.nk)[:end], room(t.l, t.tags, n*t.nk)[:end]
	strs := leaseStrs(a, p, cols, n)
	bk.sizeDicts(t.nk)
	for k, c := range cols {
		normCol(p.Col(c), t.cells[at:], t.tags[at:], strs, k, t.nk, n, &bk.dicts[k])
	}
	if t.vars != nil {
		for r := 0; r < n; r++ {
			t.keepStrs(t.tags[at+r*t.nk:], keyStrs(strs, r*t.nk, t.nk))
		}
	}
	t.n += n
}

// nullKey reports whether entry e, stored by appendKeys, has a NULL key
// column: its row never matches an equi-join and is never linked.
func (t *keyTable) nullKey(e int) bool {
	for _, tag := range t.tags[e*t.nk : (e+1)*t.nk] {
		if tag == block.CellNull {
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
	if t.direct {
		i := t.cells[e] - uint64(t.base)
		q := int(t.slots[i]) - 1
		if t.slots[i] = int32(e + 1); q < 0 {
			t.keys++
		}
		return q
	}
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
	for k := 0; k < t.nk; k++ {
		if t.cells[q*t.nk+k] != t.cells[e*t.nk+k] || t.tags[q*t.nk+k] != t.tags[e*t.nk+k] {
			return false
		}
	}
	for j, k := range t.vars {
		if varCell(t.tags[e*t.nk+k]) && !bytes.Equal(t.keyBytes(q, j), t.keyBytes(e, j)) {
			return false
		}
	}
	return true
}

// cellBlock gives key column k of the selected entries back from their
// normalized cells. It serves the key types whose cell gives the value back:
// BIGINT and DATE (the payload), BOOLEAN (payload 0 or 1), VARCHAR (the bytes
// the table keeps), NULL (the tag). A double's cell is not its value — -0.0
// shares 0's — nor is another type's rendered text, so those keys are kept in
// a valueVec beside the table. The block's vectors are leased from a, or made
// when a is nil; a VARCHAR's bytes are made.
func (t *keyTable) cellBlock(a *block.Arena, k int, typ types.Type, sel []int32) block.Block {
	var nulls []bool
	setNull := func(i int) {
		if nulls == nil {
			nulls = block.Lease[bool](a, len(sel))
			clear(nulls)
		}
		nulls[i] = true
	}
	if typ == types.Varchar {
		// The strings are copied into one buffer the block owns, made even for
		// a lent block: the arena goes back to the pool with the table, and a
		// string's bytes are immutable — a consumer that releases its input
		// may still keep them.
		j, size := slices.Index(t.vars, k), 0
		for _, id := range sel {
			size += len(t.keyBytes(int(id), j))
		}
		buf, vals := make([]byte, 0, size), block.Lease[string](a, len(sel))
		for i, id := range sel {
			from := len(buf)
			buf = append(buf, t.keyBytes(int(id), j)...) // a NULL's are empty
			if vals[i] = unsafe.String(unsafe.SliceData(buf[from:]), len(buf)-from); t.tags[int(id)*t.nk+k] == block.CellNull {
				setNull(i)
			}
		}
		return &block.VarcharBlock{Vals: vals, Nulls: nulls}
	}
	if typ == types.Boolean {
		vals := block.Lease[bool](a, len(sel))
		for i, id := range sel {
			if c := int(id)*t.nk + k; t.tags[c] == block.CellNull {
				vals[i] = false
				setNull(i)
			} else {
				vals[i] = t.cells[c] == 1
			}
		}
		return &block.BoolBlock{Vals: vals, Nulls: nulls}
	}
	vals := block.Lease[int64](a, len(sel))
	for i, id := range sel {
		if c := int(id)*t.nk + k; t.tags[c] == block.CellNull {
			vals[i] = 0
			setNull(i)
		} else {
			vals[i] = int64(t.cells[c])
		}
	}
	return &block.LongBlock{T: typ, Vals: vals, Nulls: nulls}
}

// room returns the table array s with capacity for n more elements, doubling
// a full one through the ledger l. Go's append grows a large slice by a
// quarter, which over the life of a table allocates five times its final
// size; doubling allocates twice, and a doubled class length is one.
func room[T block.TableElem](l *memory.LocalContext, s []T, n int) []T {
	if len(s)+n <= cap(s) {
		return s
	}
	ns := memory.Lease[T](l, len(s), max(4, 2*cap(s), len(s)+n))
	copy(ns, s)
	memory.Return(l, s)
	return ns
}

// extend lengthens an id-indexed table array to n zeroed entries, through
// the ledger l as room does. It relies on every shortening going through
// truncate, so that what lies beyond the length is zero.
func extend[T block.TableElem](l *memory.LocalContext, s []T, n int) []T {
	if n <= len(s) {
		return s
	}
	return room(l, s, n-len(s))[:n]
}

// truncate empties an id-indexed vector and keeps its array for the next fill.
func truncate[T any](s []T) []T {
	clear(s)
	return s[:0]
}

// pick gathers v at the selected ids into a vector leased from a, or made
// when a is nil.
func pick[T block.Elem](a *block.Arena, v []T, sel []int32) []T {
	out := block.Lease[T](a, len(sel))
	for i, id := range sel {
		out[i] = v[id]
	}
	return out
}

// zeroMask marks the selected entries of v that are zero — the groups no
// value reached, whose result is NULL; nil when there are none. The mask is
// leased from a, or made when a is nil.
func zeroMask[T comparable](a *block.Arena, v []T, sel []int32) []bool {
	var zero T
	var mask []bool
	for i, id := range sel {
		if v[id] == zero {
			if mask == nil {
				mask = block.Lease[bool](a, len(sel))
				clear(mask)
			}
			mask[i] = true
		}
	}
	return mask
}

// valueVec is one typed column indexed by entry id: a group key the table
// cannot give back (a double, an array: cellBlock) or a min/max state. Only
// the slice its type selects is in use; has marks the entries that hold a
// value, the others read as NULL. Values are copied out of the block they
// come from — a string shares its bytes, which are immutable, never the
// vector that held it — so the vec outlives the input page.
type valueVec struct {
	t        types.Type
	l        *memory.LocalContext // the ledger the arrays are leased through
	has      []bool
	longs    []int64
	doubles  []float64
	strs     []string
	bools    []bool
	boxed    []types.Value // array and untyped columns
	strBytes int64         // bytes under strs (a min/max state's), for accounting
}

// presize leases through tl the arrays that hold n entries before one grows.
func (v *valueVec) presize(tl *tableLease, n int) {
	v.has = leaseVec[bool](tl, 0, n)
	switch v.t {
	case types.Bigint, types.Date:
		v.longs = leaseVec[int64](tl, 0, n)
	case types.Double:
		v.doubles = leaseVec[float64](tl, 0, n)
	case types.Varchar:
		v.strs = leaseVec[string](tl, 0, n)
	case types.Boolean:
		v.bools = leaseVec[bool](tl, 0, n)
	default:
		v.boxed = leaseVec[types.Value](tl, 0, n)
	}
}

// release gives the vec's arrays back through its ledger and empties it.
func (v *valueVec) release() {
	memory.Return(v.l, v.has)
	memory.Return(v.l, v.longs)
	memory.Return(v.l, v.doubles)
	memory.Return(v.l, v.strs)
	memory.Return(v.l, v.bools)
	memory.Return(v.l, v.boxed)
	*v = valueVec{t: v.t, l: v.l}
}

func (v *valueVec) grow(n int) {
	v.has = extend(v.l, v.has, n)
	switch v.t {
	case types.Bigint, types.Date:
		v.longs = extend(v.l, v.longs, n)
	case types.Double:
		v.doubles = extend(v.l, v.doubles, n)
	case types.Varchar:
		v.strs = extend(v.l, v.strs, n)
	case types.Boolean:
		v.bools = extend(v.l, v.bools, n)
	default:
		v.boxed = extend(v.l, v.boxed, n)
	}
}

// reset empties the vec and keeps its arrays for the next fill.
func (v *valueVec) reset() {
	*v = valueVec{t: v.t, l: v.l, has: truncate(v.has), longs: truncate(v.longs), doubles: truncate(v.doubles),
		strs: truncate(v.strs), bools: truncate(v.bools), boxed: truncate(v.boxed)}
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

// copyEntry stores entry from, which holds a value, as entry to.
func (v *valueVec) copyEntry(from, to int) {
	v.has[to] = true
	switch v.t {
	case types.Bigint, types.Date:
		v.longs[to] = v.longs[from]
	case types.Double:
		v.doubles[to] = v.doubles[from]
	case types.Varchar:
		v.strBytes += int64(len(v.strs[from]) - len(v.strs[to]))
		v.strs[to] = v.strs[from]
	case types.Boolean:
		v.bools[to] = v.bools[from]
	default:
		v.boxed[to] = v.boxed[from]
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

// block gathers the selected entries into a block of the vec's type, its
// vectors leased from a, or made when a is nil; a boxed type's are made.
func (v *valueVec) block(a *block.Arena, sel []int32) block.Block {
	nulls := zeroMask(a, v.has, sel)
	switch v.t {
	case types.Bigint, types.Date:
		return &block.LongBlock{T: v.t, Vals: pick(a, v.longs, sel), Nulls: nulls}
	case types.Double:
		return &block.DoubleBlock{Vals: pick(a, v.doubles, sel), Nulls: nulls}
	case types.Varchar:
		return &block.VarcharBlock{Vals: pick(a, v.strs, sel), Nulls: nulls}
	case types.Boolean:
		return &block.BoolBlock{Vals: pick(a, v.bools, sel), Nulls: nulls}
	}
	vals := make([]types.Value, len(sel))
	for i, id := range sel {
		vals[i] = v.boxed[id]
		if nulls != nil && nulls[i] {
			vals[i] = types.NullValue(v.t)
		}
	}
	return block.BuildBlock(v.t, vals)
}
