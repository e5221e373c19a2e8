package core

import (
	"encoding/json"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/audit"
)

// snapshotFixture is a monitor over a two-purpose registry holding, at
// snapshot time, one mid-flight compliant case (LN-1), one dead
// violating case (LN-2) and one dead indeterminate case (IN-1, killed
// by an artificial configuration cap).
func snapshotChecker(t *testing.T) *Checker {
	t.Helper()
	reg := NewRegistry()
	if _, err := reg.Register(linearProc(t), "LN"); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Register(orProc(t), "IN"); err != nil {
		t.Fatal(err)
	}
	c := NewChecker(reg, nil)
	// Kills IN-* replays (the OR split overflows a 1-configuration
	// budget) while LN-* replays, which never branch, are untouched.
	c.MaxConfigurations = 1
	return c
}

// TestSnapshotMidTrailResume snapshots a monitor holding compliant,
// violating and indeterminate cases mid-trail, restores it into a fresh
// checker, replays the tail, and requires every post-restore verdict
// and the final Status() to be identical to a monitor that never
// stopped.
func TestSnapshotMidTrailResume(t *testing.T) {
	ln1 := trailOf("LN-1", "P:T1", "P:T2", "P:T3").Entries()
	ln2bad := trailOf("LN-2", "P:T2").Entries()
	in1 := trailOf("IN-1", "P:T1", "P:T3").Entries()

	// Feed indices address the three trails back to back: 0-2 are ln1,
	// 3-4 ln2bad, 5-6 in1. The head runs before the snapshot, the tail
	// after the restore (refeeding the dead cases to check their
	// verdicts stay sticky and identical).
	feedHead := []int{0, 1, 3, 5, 6} // ln1[0], ln1[1], ln2bad[0], in1[0], in1[1]
	feedTail := []int{2, 3, 5}       // ln1[2], ln2bad[0] again, in1[0] again

	feed := func(m *Monitor, idx int) *Verdict {
		t.Helper()
		var v *Verdict
		var err error
		switch {
		case idx < 3:
			v, err = m.Feed(ln1[idx])
		case idx < 5:
			v, err = m.Feed(ln2bad[idx-3])
		default:
			v, err = m.Feed(in1[idx-5])
		}
		if err != nil {
			t.Fatalf("feed %d: %v", idx, err)
		}
		return v
	}

	// Reference: continuous monitor over head + tail.
	ref := NewMonitor(snapshotChecker(t))
	for _, i := range feedHead {
		feed(ref, i)
	}
	var refTail []*Verdict
	for _, i := range feedTail {
		refTail = append(refTail, feed(ref, i))
	}

	// Interrupted monitor: head, snapshot, restore, tail.
	m1 := NewMonitor(snapshotChecker(t))
	for _, i := range feedHead {
		feed(m1, i)
	}
	raw, err := json.Marshal(m1.State())
	if err != nil {
		t.Fatal(err)
	}

	// The snapshot is the deduplicated v2 format and records the
	// indeterminacy cause.
	var st MonitorState
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	if st.Version != 2 || len(st.States) == 0 {
		t.Fatalf("snapshot version=%d states=%d, want v2 with a state table", st.Version, len(st.States))
	}
	if cs := st.Cases["IN-1"]; !cs.Dead || cs.Cause == nil || cs.Cause.Cause != CauseConfigurationCap {
		t.Fatalf("IN-1 snapshot lost its indeterminacy: %+v", cs)
	}
	if cs := st.Cases["LN-2"]; !cs.Dead || cs.Cause != nil {
		t.Fatalf("LN-2 snapshot should be dead without a cause: %+v", cs)
	}

	m2, err := restoreJSON(snapshotChecker(t), raw)
	if err != nil {
		t.Fatal(err)
	}
	for k, i := range feedTail {
		v := feed(m2, i)
		if !reflect.DeepEqual(v, refTail[k]) {
			t.Errorf("tail verdict %d diverges after restore:\n got %+v\nwant %+v", k, v, refTail[k])
		}
	}

	refSt := statusOf(t, ref)
	gotSt := statusOf(t, m2)
	if !reflect.DeepEqual(gotSt, refSt) {
		t.Fatalf("final status diverges:\n got %+v\nwant %+v", gotSt, refSt)
	}
	for _, cs := range gotSt {
		switch cs.Case {
		case "LN-1":
			if cs.Deviated || cs.Entries != 3 {
				t.Errorf("LN-1 = %+v, want 3 compliant entries", cs)
			}
		case "LN-2":
			if !cs.Deviated || cs.Indeterminate != nil {
				t.Errorf("LN-2 = %+v, want dead violation", cs)
			}
		case "IN-1":
			if !cs.Deviated || cs.Indeterminate == nil || cs.Indeterminate.Cause != CauseConfigurationCap {
				t.Errorf("IN-1 = %+v, want dead indeterminate (configuration cap)", cs)
			}
		}
	}
}

// TestSnapshotV1Compat pins the snapshot compatibility boundary: a
// version-1 snapshot (inline state terms, no table, no cause) is
// refused with an error naming the version, never half-restored.
func TestSnapshotV1Compat(t *testing.T) {
	m1 := NewMonitor(snapshotChecker(t))
	for _, e := range trailOf("LN-1", "P:T1", "P:T2").Entries() {
		if _, err := m1.Feed(e); err != nil {
			t.Fatal(err)
		}
	}
	// Downgrade the v2 state to the v1 wire shape by hand.
	v2 := m1.State()
	type v1Config struct {
		State  string       `json:"state"`
		Active []ActiveTask `json:"active,omitempty"`
	}
	type v1Case struct {
		Purpose string     `json:"purpose"`
		Entries int        `json:"entries"`
		Configs []v1Config `json:"configs"`
	}
	v1 := struct {
		Version int               `json:"version"`
		Cases   map[string]v1Case `json:"cases"`
	}{Version: 1, Cases: map[string]v1Case{}}
	for id, cs := range v2.Cases {
		c := v1Case{Purpose: cs.Purpose, Entries: cs.Entries}
		for _, cfg := range cs.Configs {
			c.Configs = append(c.Configs, v1Config{State: v2.States[cfg.StateRef], Active: cfg.Active})
		}
		v1.Cases[id] = c
	}
	raw, err := json.Marshal(&v1)
	if err != nil {
		t.Fatal(err)
	}
	m2 := NewMonitor(snapshotChecker(t))
	var st MonitorState
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	if err := m2.LoadState(&st); err == nil || !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("v1 snapshot: err = %v, want an unsupported-version refusal", err)
	}
	if n := len(m2.State().Cases); n != 0 {
		t.Fatalf("refused snapshot left %d cases behind", n)
	}
}

// restoreJSON decodes a JSON-encoded MonitorState — the form checkpoints
// store it in — into a fresh monitor over c.
func restoreJSON(c *Checker, data []byte) (*Monitor, error) {
	var st MonitorState
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, err
	}
	m := NewMonitor(c)
	if err := m.LoadState(&st); err != nil {
		return nil, err
	}
	return m, nil
}

func statusOf(t *testing.T, m *Monitor) []CaseStatus {
	t.Helper()
	st, err := m.Status()
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(st, func(i, j int) bool { return st[i].Case < st[j].Case })
	return st
}

// TestMonitorCaseRecord checks the per-case record behind Case and
// EachCase: entry counts (unknown-purpose cases included), the first
// violation, the last entry's time and the caller's sequence number,
// no configurations once dead — and that a snapshot carries all of it.
func TestMonitorCaseRecord(t *testing.T) {
	ln1 := trailOf("LN-1", "P:T1", "P:T2").Entries()
	ln2 := trailOf("LN-2", "P:T2").Entries()
	zz := []audit.Entry{entryAt(7, "u", "P", "T1", "ZZ-9"), entryAt(8, "u", "P", "T2", "ZZ-9")}

	m := NewMonitor(snapshotChecker(t))
	feed := func(e audit.Entry, seq uint64) *Verdict {
		t.Helper()
		v, err := m.FeedSeq(e, seq)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	feed(ln1[0], 1)
	feed(ln1[1], 2)
	died := feed(ln2[0], 3)
	if !died.FirstDeviation || died.Purpose != "Linear" {
		t.Fatalf("dying verdict = %+v", died)
	}
	if again := feed(ln2[0], 0); again.FirstDeviation || again.CaseEntries != 2 {
		t.Fatalf("refeed of a dead case = %+v", again)
	}
	if v := feed(zz[0], 4); !v.FirstDeviation || v.CaseEntries != 1 {
		t.Fatalf("first unknown-purpose verdict = %+v", v)
	}
	if v := feed(zz[1], 5); v.FirstDeviation || v.CaseEntries != 2 || v.Violation.Kind != ViolationUnknownPurpose {
		t.Fatalf("second unknown-purpose verdict = %+v", v)
	}

	rec := func(m *Monitor, id string) CaseStatus {
		t.Helper()
		r, ok := m.Case(id)
		if !ok {
			t.Fatalf("case %s has no record", id)
		}
		return r
	}
	if r := rec(m, "LN-1"); r.Deviated || r.Entries != 2 || r.Configurations == 0 || r.Seq != 2 ||
		!r.Updated.Equal(ln1[1].Time) || r.Purpose != "Linear" || r.Engine != EngineInterpreted || r.Explanation != nil {
		t.Errorf("LN-1 record = %+v", r)
	}
	if r := rec(m, "LN-2"); !r.Deviated || r.Entries != 2 || r.Configurations != 0 || r.Seq != 3 ||
		r.Violation != died.Violation.String() || r.Explanation != died.Explanation {
		t.Errorf("LN-2 record = %+v", r)
	}
	if r := rec(m, "ZZ-9"); !r.Deviated || r.Entries != 2 || r.Purpose != "" || r.Engine != "" || r.Seq != 5 ||
		!r.Updated.Equal(zz[1].Time) || !strings.HasPrefix(r.Violation, "[unknown-purpose]") || r.Explanation == nil {
		t.Errorf("ZZ-9 record = %+v", r)
	}
	if _, ok := m.Case("LN-7"); ok || m.Len() != 3 {
		t.Errorf("Len = %d, want 3 with no LN-7", m.Len())
	}
	if st := statusOf(t, m); len(st) != 2 {
		t.Errorf("Status = %+v, want the two cases with a purpose", st)
	}
	if _, err := m.Enabled("ZZ-9"); err == nil {
		t.Error("Enabled on an unknown-purpose case did not fail")
	}

	raw, err := json.Marshal(m.State())
	if err != nil {
		t.Fatal(err)
	}
	m2, err := restoreJSON(snapshotChecker(t), raw)
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	m.EachCase(func(want CaseStatus) {
		seen++
		if got := rec(m2, want.Case); !reflect.DeepEqual(got, want) {
			t.Errorf("%s record after restore:\n got %+v\nwant %+v", want.Case, got, want)
		}
	})
	if seen != 3 || m2.Len() != 3 {
		t.Errorf("EachCase visited %d cases, restored monitor holds %d", seen, m2.Len())
	}
}
