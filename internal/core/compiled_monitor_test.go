package core_test

// Online-monitor and snapshot equivalence for the compiled fast path:
// Feed/Peek/Enabled/Status must agree with the interpreter entry by
// entry, and checkpoints must resume under either engine (DESIGN.md
// §11: snapshots are engine-neutral).

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/hospital"
	"repro/internal/loan"
)

func normalizeStatus(in []core.CaseStatus) []core.CaseStatus {
	out := append([]core.CaseStatus(nil), in...)
	for i := range out {
		out[i].Engine = ""
	}
	return out
}

func sortedOffers(in []core.Offer) []core.Offer {
	out := append([]core.Offer(nil), in...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Task != out[j].Task {
			return out[i].Task < out[j].Task
		}
		if out[i].Role != out[j].Role {
			return out[i].Role < out[j].Role
		}
		return !out[i].Active && out[j].Active
	})
	return out
}

// normalizeVerdict strips the engine marker so verdicts from the two
// engines can be compared field by field — Explanation included, which
// must be byte-identical across engines.
func normalizeVerdict(v *core.Verdict) *core.Verdict {
	cp := *v
	cp.Engine = ""
	return &cp
}

func TestCompiledMonitorEquivalence(t *testing.T) {
	reg, roles := hospitalRegistry(t)
	trail, err := hospital.Trail()
	if err != nil {
		t.Fatal(err)
	}
	p := newEnginePair(t, reg, roles)
	mi := core.NewMonitor(p.interp)
	mc := core.NewMonitor(p.compiled)

	for i, e := range trail.Entries() {
		pi, err := mi.Peek(e)
		if err != nil {
			t.Fatal(err)
		}
		pc, err := mc.Peek(e)
		if err != nil {
			t.Fatal(err)
		}
		if pi != pc {
			t.Fatalf("entry %d (%s): Peek %v vs %v", i, e.Task, pi, pc)
		}
		vi, err := mi.Feed(e)
		if err != nil {
			t.Fatal(err)
		}
		vc, err := mc.Feed(e)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(normalizeVerdict(vi), normalizeVerdict(vc)) {
			t.Fatalf("entry %d (%s) verdicts diverge:\ninterpreted: %+v\ncompiled:    %+v", i, e.Task, vi, vc)
		}
		oi, err := mi.Enabled(e.Case)
		if err != nil {
			t.Fatal(err)
		}
		oc, err := mc.Enabled(e.Case)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sortedOffers(oi), sortedOffers(oc)) {
			t.Fatalf("entry %d (%s) worklists diverge:\ninterpreted: %+v\ncompiled:    %+v", i, e.Task, oi, oc)
		}
	}

	si, err := mi.Status()
	if err != nil {
		t.Fatal(err)
	}
	sc, err := mc.Status()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(normalizeStatus(si), normalizeStatus(sc)) {
		t.Fatalf("status diverges:\ninterpreted: %+v\ncompiled:    %+v", si, sc)
	}
	for _, cs := range sc {
		if !cs.Deviated && cs.Engine != core.EngineCompiled {
			t.Fatalf("live case %s on engine %q", cs.Case, cs.Engine)
		}
	}
}

// resumeOn moves m's live state into a fresh monitor over c, the way a
// checkpoint restore does.
func resumeOn(t *testing.T, m *core.Monitor, c *core.Checker) *core.Monitor {
	t.Helper()
	m2 := core.NewMonitor(c)
	if err := m2.LoadState(m.State()); err != nil {
		t.Fatal(err)
	}
	return m2
}

// TestCompiledSnapshotCrossEngineResume checkpoints a monitor mid-trail
// under one engine and resumes it under the other, in both directions;
// the verdicts and final statuses must match an uninterrupted run.
func TestCompiledSnapshotCrossEngineResume(t *testing.T) {
	reg, roles := loanRegistry(t)
	entries := loan.Trail().Entries()
	half := len(entries) / 2

	run := func(first, second *core.Checker) []core.CaseStatus {
		t.Helper()
		m1 := core.NewMonitor(first)
		for _, e := range entries[:half] {
			if _, err := m1.Feed(e); err != nil {
				t.Fatal(err)
			}
		}
		m2 := resumeOn(t, m1, second)
		for _, e := range entries[half:] {
			if _, err := m2.Feed(e); err != nil {
				t.Fatal(err)
			}
		}
		st, err := m2.Status()
		if err != nil {
			t.Fatal(err)
		}
		return st
	}

	p := newEnginePair(t, reg, roles)
	baseline := run(p.interp.Clone(), p.interp.Clone())
	compiledToInterp := run(p.compiled.Clone(), p.interp.Clone())
	interpToCompiled := run(p.interp.Clone(), p.compiled.Clone())
	compiledToCompiled := run(p.compiled.Clone(), p.compiled.Clone())

	for name, got := range map[string][]core.CaseStatus{
		"compiled->interpreted": compiledToInterp,
		"interpreted->compiled": interpToCompiled,
		"compiled->compiled":    compiledToCompiled,
	} {
		if !reflect.DeepEqual(normalizeStatus(baseline), normalizeStatus(got)) {
			t.Fatalf("%s resume diverges:\nbaseline: %+v\ngot:      %+v", name, baseline, got)
		}
	}
	// Restoring under the compiled engine must actually promote the
	// live cases onto the automaton.
	for _, cs := range interpToCompiled {
		if !cs.Deviated && cs.Engine != core.EngineCompiled {
			t.Fatalf("case %s restored to engine %q, want compiled", cs.Case, cs.Engine)
		}
	}
}

// TestCompiledSnapshotDeadCases makes sure violation-dead and sticky
// verdict behavior survives a compiled checkpoint.
func TestCompiledSnapshotDeadCases(t *testing.T) {
	reg, roles := loanRegistry(t)
	p := newEnginePair(t, reg, roles)
	mc := core.NewMonitor(p.compiled.Clone())
	bad := diffTrail("LA-66", "IntakeClerk:L01", "Underwriter:L05").Entries()
	var lastV *core.Verdict
	for _, e := range bad {
		v, err := mc.Feed(e)
		if err != nil {
			t.Fatal(err)
		}
		lastV = v
	}
	if lastV.OK || lastV.Violation == nil {
		t.Fatalf("expected violation, got %+v", lastV)
	}
	m2 := resumeOn(t, mc, p.interp.Clone())
	v, err := m2.Feed(diffEntry(9, "Underwriter", "L05", "LA-66"))
	if err != nil {
		t.Fatal(err)
	}
	if v.OK || v.Violation == nil {
		t.Fatalf("dead case revived after cross-engine restore: %+v", v)
	}
	// Resumed on the compiled engine, the dead case keeps the engine it
	// died on and reports no live configurations.
	m3 := resumeOn(t, mc, p.compiled.Clone())
	if r, ok := m3.Case("LA-66"); !ok || !r.Deviated || r.Engine != core.EngineCompiled || r.Configurations != 0 {
		t.Errorf("dead case after compiled restore = %+v", r)
	}
}
