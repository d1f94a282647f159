package plan

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/expr"
)

// Cardinality fingerprints identify plan subtrees across queries for
// history-based optimizer feedback: a repeat run of the same plan shape over
// the same tables hashes to the same value, so observed operator
// cardinalities recorded at query finish can replace statistics-derived
// estimates on the next run. The hash deliberately ignores everything that
// does not affect row counts — column pruning, join strategy and build/probe
// sides (child hashes combine order-independently), fragmentation boundaries
// (RemoteSource resolves through to its producers when a resolver is
// supplied) — and renders expressions and join keys by column name so index
// rewrites between optimization phases do not change the fingerprint.

// FingerprintOpts tunes CardFingerprint.
type FingerprintOpts struct {
	// ResolveRemote maps a RemoteSource to its producing fragment roots,
	// making the fingerprint of a fragmented plan equal to that of the
	// logical plan it came from. When nil (or when it returns nothing) the
	// RemoteSource hashes by its source fragment ids — stable within one
	// distributed plan, which is all a worker needs.
	ResolveRemote func(*RemoteSource) []Node
	// ScanSalt, when set, contributes extra identity to every scan — the
	// history-based optimizer supplies the table's data version here so
	// recorded cardinalities expire when the table is written.
	ScanSalt func(*Scan) string
}

const (
	fpOffset uint64 = 14695981039346656037
	fpPrime  uint64 = 1099511628211
)

func fpStr(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fpPrime
	}
	return h
}

func fpU64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= (v >> (8 * i)) & 0xff
		h *= fpPrime
	}
	return h
}

// colKey renders one schema column for hashing, preferring the stable name
// over the position (positions shift under column pruning).
func colKey(s Schema, i int) string {
	if i < len(s) && s[i].Name != "" {
		return s[i].Name
	}
	return fmt.Sprintf("$%d", i)
}

// CardFingerprint returns the cardinality fingerprint of a plan subtree.
// Nodes that preserve their input's row count (Project, Output, Sort,
// Window) are transparent: they hash to their input, so an
// operator observed at any of them records under the same key.
func CardFingerprint(n Node, opts *FingerprintOpts) uint64 {
	switch x := n.(type) {
	case *Scan:
		// Handle string includes the pushed-down constraint (it changes the
		// cardinality) but not the column list (pruning does not).
		h := fpStr(fpOffset, "scan|"+x.Handle.String())
		if opts != nil && opts.ScanSalt != nil {
			h = fpStr(h, "|"+opts.ScanSalt(x))
		}
		return h

	case *Filter:
		// Hash the predicate's canonical form, not String(): composite nodes
		// like CASE render degenerately ("CASE(..)") through String(), which
		// would merge distinct predicates into one history entry.
		h := fpU64(fpStr(fpOffset, "filter|"), expr.Fingerprint(x.Predicate))
		return fpU64(h, CardFingerprint(x.Input, opts))

	case *Project:
		return CardFingerprint(x.Input, opts)
	case *Output:
		return CardFingerprint(x.Input, opts)
	case *Sort:
		return CardFingerprint(x.Input, opts)
	case *Window:
		return CardFingerprint(x.Input, opts)

	case *Limit:
		h := fpStr(fpOffset, fmt.Sprintf("limit|%d|%d|%t", x.N, x.Offset, x.Partial))
		return fpU64(h, CardFingerprint(x.Input, opts))

	case *TopN:
		h := fpStr(fpOffset, fmt.Sprintf("topn|%d", x.N))
		return fpU64(h, CardFingerprint(x.Input, opts))

	case *EnforceSingleRow:
		return fpU64(fpStr(fpOffset, "singlerow|"), CardFingerprint(x.Input, opts))

	case *Aggregation:
		keys := make([]string, len(x.GroupBy))
		for i, k := range x.GroupBy {
			keys[i] = k.String()
		}
		aggs := make([]string, len(x.Aggregates))
		for i, a := range x.Aggregates {
			aggs[i] = a.String()
		}
		h := fpStr(fpOffset, "agg|"+x.Step.String()+"|"+strings.Join(keys, ",")+"|"+strings.Join(aggs, ","))
		return fpU64(h, CardFingerprint(x.Input, opts))

	case *Values:
		return fpStr(fpOffset, fmt.Sprintf("values|%d", len(x.Rows)))

	case *Union:
		var sum uint64
		for _, in := range x.Inputs {
			sum += CardFingerprint(in, opts) // commutative: branch order is irrelevant
		}
		return fpU64(fpStr(fpOffset, "union|"), sum)

	case *Join:
		l := CardFingerprint(x.Left, opts)
		r := CardFingerprint(x.Right, opts)
		if r < l {
			l, r = r, l // build/probe side choice does not change cardinality
		}
		ls, rs := x.Left.Schema(), x.Right.Schema()
		clauses := make([]string, len(x.Equi))
		for i, eq := range x.Equi {
			a, b := colKey(ls, eq.Left), colKey(rs, eq.Right)
			if b < a {
				a, b = b, a
			}
			clauses[i] = a + "=" + b
		}
		sort.Strings(clauses)
		res := ""
		if x.Residual != nil {
			res = x.Residual.String()
		}
		typ := x.Type.String()
		if x.NullAware {
			typ += " null-aware"
		}
		h := fpStr(fpOffset, "join|"+typ+"|"+strings.Join(clauses, "&")+"|"+res)
		return fpU64(fpU64(h, l), r)

	case *RemoteSource:
		if opts != nil && opts.ResolveRemote != nil {
			if srcs := opts.ResolveRemote(x); len(srcs) > 0 {
				if len(srcs) == 1 {
					return CardFingerprint(srcs[0], opts)
				}
				var sum uint64
				for _, s := range srcs {
					sum += CardFingerprint(s, opts)
				}
				return fpU64(fpStr(fpOffset, "union|"), sum)
			}
		}
		return fpStr(fpOffset, fmt.Sprintf("remote|%v", x.SourceFragments))

	case *TableWrite:
		return fpU64(fpStr(fpOffset, "write|"+x.Catalog+"."+x.Table), CardFingerprint(x.Input, opts))

	default:
		h := fpStr(fpOffset, fmt.Sprintf("%T", n))
		for _, c := range n.Children() {
			h = fpU64(h, CardFingerprint(c, opts))
		}
		return h
	}
}
