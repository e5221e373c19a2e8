package automaton

import (
	"fmt"
	"reflect"
)

// ProductSummary reports the size of one equivalence product walk.
type ProductSummary struct {
	Pairs       int // reachable (constructed, minimized) state pairs
	RawStates   int // states of the constructed table
	RawSymbols  int // raw alphabet size (one delta column each)
	MinStates   int
	MinColumns  int
	RawCoverage int // constructed states the walk reached
}

// MinimizeProduct proves minimize() language- and report-preserving on
// one input by product construction: from the start pair it walks the
// constructed table and its minimized form in lockstep over every raw
// symbol, and at every reachable pair requires the same reject
// decision and the same observable state metadata — the completion
// bit, the member count, and the violation and worklist views. The
// walk is exhaustive, so a pass covers every trail, not a sample.
//
// It lives in an internal test file because it needs construct(); the
// external tests drive it with real purposes.
func MinimizeProduct(in CompileInput) (ProductSummary, error) {
	raw, err := construct(in)
	if err != nil {
		return ProductSummary{}, err
	}
	min, err := Compile(in)
	if err != nil {
		return ProductSummary{}, err
	}
	nsym := int32(len(min.SymMap))
	if len(raw.Delta) != len(raw.States)*int(nsym) {
		return ProductSummary{}, fmt.Errorf("constructed delta has %d cells, want %d states × %d symbols",
			len(raw.Delta), len(raw.States), nsym)
	}
	type pair struct{ raw, min int32 }
	start := pair{raw.Start, min.Start}
	seen := map[pair]bool{start: true}
	reached := make([]bool, len(raw.States))
	queue := []pair{start}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		reached[p.raw] = true
		if err := sameObservables(&raw.States[p.raw], &min.States[p.min]); err != nil {
			return ProductSummary{}, fmt.Errorf("pair (constructed %d, minimized %d): %w", p.raw, p.min, err)
		}
		for a := int32(0); a < nsym; a++ {
			rn := raw.Delta[p.raw*nsym+a]
			mn := Reject
			if col, ok := min.mapSym(a); ok {
				mn = min.Step(p.min, col)
			}
			if (rn == Reject) != (mn == Reject) {
				return ProductSummary{}, fmt.Errorf("pair (constructed %d, minimized %d), symbol %d: constructed -> %d, minimized -> %d",
					p.raw, p.min, a, rn, mn)
			}
			if rn == Reject {
				continue
			}
			if q := (pair{rn, mn}); !seen[q] {
				seen[q] = true
				queue = append(queue, q)
			}
		}
	}
	sum := ProductSummary{
		Pairs:      len(seen),
		RawStates:  len(raw.States),
		RawSymbols: int(nsym),
		MinStates:  len(min.States),
		MinColumns: int(min.Columns),
	}
	for _, r := range reached {
		if r {
			sum.RawCoverage++
		}
	}
	return sum, nil
}

// sameObservables compares everything replay and reporting read from
// a state besides its transitions.
func sameObservables(a, b *State) error {
	if a.CanComplete != b.CanComplete || len(a.Members) != len(b.Members) ||
		!reflect.DeepEqual(a.Expected, b.Expected) ||
		!reflect.DeepEqual(a.ActiveTasks, b.ActiveTasks) ||
		!reflect.DeepEqual(a.Active, b.Active) ||
		!reflect.DeepEqual(a.Fire, b.Fire) {
		return fmt.Errorf("observable metadata diverges:\nconstructed: %+v\nminimized:   %+v", *a, *b)
	}
	return nil
}
