package automaton_test

import (
	"reflect"
	"testing"

	"repro/internal/automaton"
	"repro/internal/bpmn"
	"repro/internal/hospital"
)

// TestMinimizeEquivalence runs the product-construction proof
// (automaton.MinimizeProduct) on both hospital purposes and on the
// checker-flag variants that change the alphabet or the absorption
// rule.
func TestMinimizeEquivalence(t *testing.T) {
	treatment, err := hospital.Treatment()
	if err != nil {
		t.Fatal(err)
	}
	trial, err := hospital.ClinicalTrial()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		p    *bpmn.Process
		mut  func(*automaton.CompileInput)
	}{
		{"treatment", treatment, nil},
		{"trial", trial, nil},
		{"treatment-lenient", treatment, func(in *automaton.CompileInput) { in.StrictFailureTask = false }},
		{"treatment-no-absorption", treatment, func(in *automaton.CompileInput) { in.DisableAbsorption = true }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sum, err := automaton.MinimizeProduct(compileInput(t, tc.p, tc.mut))
			if err != nil {
				t.Fatal(err)
			}
			if sum.RawCoverage != sum.RawStates {
				t.Fatalf("product walk reached %d of %d constructed states", sum.RawCoverage, sum.RawStates)
			}
			if sum.MinStates > sum.RawStates {
				t.Fatalf("minimized has %d states, constructed %d", sum.MinStates, sum.RawStates)
			}
			if sum.MinColumns <= 0 || sum.MinColumns >= sum.RawSymbols {
				t.Fatalf("alphabet compaction: %d columns for %d symbols", sum.MinColumns, sum.RawSymbols)
			}
		})
	}
}

// TestMinimizeDeterministic pins the pass's output: same input, same
// tables, byte for byte — the property the artifact cache rests on.
func TestMinimizeDeterministic(t *testing.T) {
	p, err := hospital.Treatment()
	if err != nil {
		t.Fatal(err)
	}
	a := compileProcess(t, p, nil)
	b := compileProcess(t, p, nil)
	if a.Fingerprint != b.Fingerprint || a.Start != b.Start || a.Columns != b.Columns {
		t.Fatalf("headers differ: %v/%v %d/%d %d/%d", a.Fingerprint, b.Fingerprint, a.Start, b.Start, a.Columns, b.Columns)
	}
	if !reflect.DeepEqual(a.Delta, b.Delta) || !reflect.DeepEqual(a.SymMap, b.SymMap) ||
		!reflect.DeepEqual(a.States, b.States) {
		t.Fatal("minimized tables are not deterministic")
	}
}

// TestMinimizeSnapshotLookups checks the snapshot contract: every
// minimized state's member set resolves through StateOf (its own
// export is a real state key), so compiled->compiled restores promote.
func TestMinimizeSnapshotLookups(t *testing.T) {
	p, err := hospital.Treatment()
	if err != nil {
		t.Fatal(err)
	}
	min := compileProcess(t, p, nil)
	for i := range min.States {
		id, ok := min.StateOf(min.States[i].Members)
		if !ok || id != int32(i) {
			t.Fatalf("state %d member set resolves to (%d, %v)", i, id, ok)
		}
	}
}
