package core_test

// Differential tests for the minimized automata every compiled replay
// runs on: reports must be byte-identical — JSON-encoded — to the
// interpreter's on every workload, and checkpoints must resume across
// engines at every cut point. That minimization preserves the
// constructed table's language and metadata is proven separately, by
// product construction, in internal/automaton. Run under -race in CI.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/hospital"
	"repro/internal/loan"
)

// requireByteIdenticalReports replays the trail through the interpreter
// and the compiled (minimized) automaton and demands the two JSON
// encodings agree byte for byte (modulo the engine markers).
func requireByteIdenticalReports(t *testing.T, p enginePair, trail *audit.Trail) {
	t.Helper()
	encode := func(c *core.Checker, name string) [][]byte {
		reps, err := c.CheckTrail(trail)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out := make([][]byte, len(reps))
		for i, r := range reps {
			if name != "interpreted" && r.Engine != core.EngineCompiled {
				t.Fatalf("%s: case %s ran on %q (%s)", name, r.Case, r.Engine, r.EngineFallback)
			}
			b, err := json.Marshal(normalizeEngine(r))
			if err != nil {
				t.Fatal(err)
			}
			out[i] = b
		}
		return out
	}
	interp := encode(p.interp, "interpreted")
	compiled := encode(p.compiled, "compiled")
	if len(interp) != len(compiled) {
		t.Fatalf("report counts differ: %d interpreted, %d compiled", len(interp), len(compiled))
	}
	for i := range interp {
		if !bytes.Equal(compiled[i], interp[i]) {
			t.Fatalf("compiled report differs from interpreter:\ninterpreted: %s\ncompiled:    %s", interp[i], compiled[i])
		}
	}
}

func TestDifferentialMinimizedHospital(t *testing.T) {
	reg, roles := hospitalRegistry(t)
	p := newEnginePair(t, reg, roles)
	trail, err := hospital.Trail()
	if err != nil {
		t.Fatal(err)
	}
	requireByteIdenticalReports(t, p, trail)

	// Seeded random trails: garbage tasks, wrong roles, failures.
	tasks := []string{"T01", "T02", "T03", "T04", "T05", "T06", "T07", "T08",
		"T09", "T10", "T11", "T91", "Zed", ""}
	rolesList := []string{"GP", "Cardiologist", "Radiologist", "MedicalLabTech",
		"Physician", "Janitor", ""}
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 150; i++ {
		caseID := fmt.Sprintf("HT-%d", 5000+i)
		var entries []audit.Entry
		for j, n := 0, rng.Intn(12); j < n; j++ {
			task := tasks[rng.Intn(len(tasks))]
			if rng.Intn(8) == 0 {
				task = "!" + task
			}
			entries = append(entries, diffEntry(j, rolesList[rng.Intn(len(rolesList))], task, caseID))
		}
		requireByteIdenticalReports(t, p, audit.NewTrail(entries))
	}
}

func TestDifferentialMinimizedLoan(t *testing.T) {
	reg, roles := loanRegistry(t)
	p := newEnginePair(t, reg, roles)
	requireByteIdenticalReports(t, p, loan.Trail())
	requireByteIdenticalReports(t, p, diffTrail("LA-40",
		"IntakeClerk:L01", "CreditAnalyst:L02", "CreditAnalyst:!L02",
		"CreditAnalyst:L02b", "IntakeClerk:L01", "CreditAnalyst:L02"))
	requireByteIdenticalReports(t, p, diffTrail("LA-41",
		"IntakeClerk:L01", "BankStaff:L02"))
	requireByteIdenticalReports(t, p, diffTrail("LA-42", "IntakeClerk:L99"))
}

// TestMinimizedSnapshotResume checkpoints the hospital day at every cut
// point and resumes it across engines. An interpreter configuration set
// always matches a constructed DFA state, but minimization may have
// merged that state away: such a case has no exact minimized state and
// must resume on the interpreter, the rest promote. Either way every
// resume must reach the uninterrupted interpreter run's final status.
func TestMinimizedSnapshotResume(t *testing.T) {
	reg, roles := hospitalRegistry(t)
	trail, err := hospital.Trail()
	if err != nil {
		t.Fatal(err)
	}
	entries := trail.Entries()
	p := newEnginePair(t, reg, roles)

	run := func(first, second *core.Checker, cut int) []core.CaseStatus {
		t.Helper()
		m1 := core.NewMonitor(first)
		for _, e := range entries[:cut] {
			if _, err := m1.Feed(e); err != nil {
				t.Fatal(err)
			}
		}
		m2 := resumeOn(t, m1, second)
		for _, e := range entries[cut:] {
			if _, err := m2.Feed(e); err != nil {
				t.Fatal(err)
			}
		}
		st, err := m2.Status()
		if err != nil {
			t.Fatal(err)
		}
		return normalizeStatus(st)
	}

	baseline := run(p.interp.Clone(), p.interp.Clone(), 0)
	for cut := 1; cut < len(entries); cut++ {
		for name, got := range map[string][]core.CaseStatus{
			"interpreted->compiled": run(p.interp.Clone(), p.compiled.Clone(), cut),
			"compiled->compiled":    run(p.compiled.Clone(), p.compiled.Clone(), cut),
			"compiled->interpreted": run(p.compiled.Clone(), p.interp.Clone(), cut),
		} {
			if !reflect.DeepEqual(baseline, got) {
				t.Fatalf("cut %d: %s resume diverges:\nbaseline: %+v\ngot:      %+v", cut, name, baseline, got)
			}
		}
	}
}
