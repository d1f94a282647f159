package connector

// appendLogSize is how many appends back a table's log reaches (AppendLog). A
// cached result stamped further back is dropped at its next lookup.
// serving_mix writes about 650 single-row inserts in a run, so the log reaches
// back over all of them.
const appendLogSize = 1024

// VersionLog is a connector's version bookkeeping (Connector.TableVersion,
// SchemaVersion and AppendLog): per table name, a schema version and a data
// version that survive a drop, and the summaries of the table's last
// appendLogSize appends. A cached plan is valid for one schema version, a
// cached result for one version of each.
//
// It has no lock of its own: the connector guards it with the lock that
// guards its rows, and moves a version in the critical section that changes
// what the version counts, so a reader never sees rows newer than the version
// it read before them. The zero value is ready to use.
type VersionLog struct {
	tables map[string]*tableLog
}

type tableLog struct {
	schema, data int64
	// log is a ring of the last appendLogSize append summaries; appends counts
	// the appends since the last schema change. Only appends move the version
	// of a live table, so append j (1-based) brought it to the current version
	// minus appends, plus j.
	log     []*AppendSummary
	appends int64
}

func (l *VersionLog) table(name string) *tableLog {
	t := l.tables[name]
	if t == nil {
		if l.tables == nil {
			l.tables = map[string]*tableLog{}
		}
		t = &tableLog{}
		l.tables[name] = t
	}
	return t
}

// SchemaChanged moves the table's schema version: it was created, dropped or
// replaced. Its append log starts over.
func (l *VersionLog) SchemaChanged(name string) {
	t := l.table(name)
	t.schema++
	t.log, t.appends = nil, 0
}

// Appended moves the table's data version by one batch of rows, summarised by
// s (SummarizeAppend).
func (l *VersionLog) Appended(name string, s *AppendSummary) {
	t := l.table(name)
	if t.log == nil {
		t.log = make([]*AppendSummary, appendLogSize)
	}
	t.log[t.appends%appendLogSize] = s
	t.appends++
	t.data++
}

// Changed moves the table's data version by a change it keeps no summary of:
// rows replaced, or files written by another program. Its append log starts
// over, so Appends does not reach back across the change.
func (l *VersionLog) Changed(name string) {
	t := l.table(name)
	t.data++
	t.log, t.appends = nil, 0
}

// TableVersion is Connector.TableVersion: it moves on every change, schema or
// data.
func (l *VersionLog) TableVersion(name string) int64 {
	if t := l.tables[name]; t != nil {
		return t.schema + t.data
	}
	return 0
}

// SchemaVersion is Connector.SchemaVersion.
func (l *VersionLog) SchemaVersion(name string) int64 {
	if t := l.tables[name]; t != nil {
		return t.schema
	}
	return 0
}

// Appends is AppendLog.Appends.
func (l *VersionLog) Appends(name string, since int64, visit func(*AppendSummary) bool) (int64, bool) {
	t := l.tables[name]
	if t == nil {
		return 0, since == 0
	}
	now := t.schema + t.data
	back := now - since
	if back < 0 || back > min(t.appends, appendLogSize) {
		return now, false
	}
	for j := t.appends - back; j < t.appends; j++ {
		if !visit(t.log[j%appendLogSize]) {
			break
		}
	}
	return now, true
}
