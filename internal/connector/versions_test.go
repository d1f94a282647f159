package connector

import "testing"

// TestVersionLogReach: the log visits the appends since a version, oldest
// first, as far back as appendLogSize appends and not across a schema change;
// both versions survive a drop.
func TestVersionLogReach(t *testing.T) {
	var l VersionLog
	l.SchemaChanged("t")
	for i := 1; i <= appendLogSize+10; i++ {
		l.Appended("t", &AppendSummary{Rows: int64(i)})
	}
	now := l.TableVersion("t")
	if now != 1+appendLogSize+10 || l.SchemaVersion("t") != 1 {
		t.Fatalf("versions %d/%d", now, l.SchemaVersion("t"))
	}
	var seen []int64
	to, ok := l.Appends("t", now-3, func(s *AppendSummary) bool {
		seen = append(seen, s.Rows)
		return true
	})
	if !ok || to != now || len(seen) != 3 || seen[0] != appendLogSize+8 || seen[2] != appendLogSize+10 {
		t.Errorf("last three appends: to %d ok %v rows %v", to, ok, seen)
	}
	if _, ok := l.Appends("t", now-appendLogSize, func(*AppendSummary) bool { return true }); !ok {
		t.Error("the log does not reach back appendLogSize appends")
	}
	if _, ok := l.Appends("t", now-appendLogSize-1, func(*AppendSummary) bool { return true }); ok {
		t.Error("the log reaches back past appendLogSize appends")
	}
	if _, ok := l.Appends("t", now+1, func(*AppendSummary) bool { return true }); ok {
		t.Error("the log answers for a version not reached")
	}
	l.SchemaChanged("t") // DROP
	if l.TableVersion("t") != now+1 || l.SchemaVersion("t") != 2 {
		t.Errorf("after a drop: versions %d/%d", l.TableVersion("t"), l.SchemaVersion("t"))
	}
	if _, ok := l.Appends("t", now, func(*AppendSummary) bool { return true }); ok {
		t.Error("the log reaches back across a schema change")
	}
	if l.TableVersion("u") != 0 || l.SchemaVersion("u") != 0 {
		t.Error("a table never created has a version")
	}
}

// TestVersionLogChanged: a change without a summary moves the data version
// and not the schema version, and the log does not reach back across it; the
// appends after it are logged again.
func TestVersionLogChanged(t *testing.T) {
	var l VersionLog
	l.SchemaChanged("t")
	l.Appended("t", &AppendSummary{Rows: 1})
	before := l.TableVersion("t")
	l.Changed("t")
	if l.TableVersion("t") != before+1 || l.SchemaVersion("t") != 1 {
		t.Fatalf("after a change: versions %d/%d", l.TableVersion("t"), l.SchemaVersion("t"))
	}
	if _, ok := l.Appends("t", before, func(*AppendSummary) bool { return true }); ok {
		t.Error("the log reaches back across a change it holds no summary of")
	}
	changed := l.TableVersion("t")
	l.Appended("t", &AppendSummary{Rows: 2})
	var rows []int64
	to, ok := l.Appends("t", changed, func(s *AppendSummary) bool {
		rows = append(rows, s.Rows)
		return true
	})
	if !ok || to != changed+1 || len(rows) != 1 || rows[0] != 2 {
		t.Errorf("the append after the change: to %d ok %v rows %v", to, ok, rows)
	}
}
