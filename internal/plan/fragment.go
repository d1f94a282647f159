package plan

import (
	"fmt"
	"strings"
)

// PartitioningKind describes how a fragment's tasks consume or produce data.
type PartitioningKind int

// Partitioning kinds.
const (
	// PartitionSingle runs as one task (query output, final aggregation of
	// an un-partitioned plan).
	PartitionSingle PartitioningKind = iota
	// PartitionSource schedules one task per group of connector splits —
	// leaf stages.
	PartitionSource
	// PartitionHash distributes rows by hash of the partitioning columns.
	PartitionHash
	// PartitionRoundRobin distributes rows evenly without key affinity.
	PartitionRoundRobin
	// PartitionBroadcast replicates every row to all tasks.
	PartitionBroadcast
)

func (k PartitioningKind) String() string {
	return [...]string{"SINGLE", "SOURCE", "HASH", "ROUND_ROBIN", "BROADCAST"}[k]
}

// Valid reports whether k is one of the kinds above.
func (k PartitioningKind) Valid() bool { return k >= PartitionSingle && k <= PartitionBroadcast }

// Partitioning is a fragment's output partitioning: kind plus the columns
// hashed for PartitionHash.
type Partitioning struct {
	Kind PartitioningKind
	Cols []int
}

// String renders the partitioning.
func (p Partitioning) String() string {
	if p.Kind == PartitionHash {
		return fmt.Sprintf("HASH%v", p.Cols)
	}
	return p.Kind.String()
}

// RemoteSource is a plan leaf inside a fragment that reads the output of
// other fragments through the shuffle (exchange) mechanism.
type RemoteSource struct {
	// SourceFragments are the ids of the producing fragments.
	SourceFragments []int
	Out             Schema
}

func (n *RemoteSource) Schema() Schema             { return n.Out }
func (n *RemoteSource) Children() []Node           { return nil }
func (n *RemoteSource) WithChildren(c []Node) Node { cp := *n; return &cp }
func (n *RemoteSource) Describe() string {
	return fmt.Sprintf("RemoteSource[fragments=%v]", n.SourceFragments)
}

// Fragment is one stage of a distributed plan: a plan subtree executed by
// one or more identical tasks, consuming remote sources and producing output
// partitioned per Output.
type Fragment struct {
	ID   int
	Root Node
	// OutputPartitioning describes how this fragment's output is divided
	// among consumers of the next stage.
	OutputPartitioning Partitioning
	// OutputConsumer is the fragment that reads this one (-1 for the root).
	OutputConsumer int
	// Single marks the one fragment of a plan the optimizer found small: the
	// whole statement runs as one task, and each of its pipelines as one
	// driver, since its aggregations, sorts and limits are single steps.
	Single bool
}

// DistributedPlan is the fragmented form of a query plan.
type DistributedPlan struct {
	Fragments []*Fragment
	// RootID is the output (coordinator-consumed) fragment.
	RootID int
}

// Fragment returns the fragment with the given id.
func (d *DistributedPlan) Fragment(id int) *Fragment { return d.Fragments[id] }

// Root returns the output fragment.
func (d *DistributedPlan) Root() *Fragment { return d.Fragments[d.RootID] }

// Format renders all fragments for EXPLAIN (DISTRIBUTED).
func (d *DistributedPlan) Format() string {
	var sb strings.Builder
	for _, f := range d.Fragments {
		single := ""
		if f.Single {
			single = " single"
		}
		fmt.Fprintf(&sb, "Fragment %d [output=%s consumer=%d%s]\n", f.ID, f.OutputPartitioning, f.OutputConsumer, single)
		for _, line := range strings.Split(strings.TrimRight(Format(f.Root), "\n"), "\n") {
			sb.WriteString("  " + line + "\n")
		}
	}
	return sb.String()
}

// Walk visits every node of a plan tree in pre-order.
func Walk(n Node, fn func(Node)) {
	if n == nil {
		return
	}
	fn(n)
	for _, c := range n.Children() {
		Walk(c, fn)
	}
}

// FindScans collects all Scan nodes in a tree.
func FindScans(n Node) []*Scan {
	var out []*Scan
	Walk(n, func(x Node) {
		if s, ok := x.(*Scan); ok {
			out = append(out, s)
		}
	})
	return out
}
