package automaton

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// DFA minimization, the last step of every Compile. Subset construction
// interns states by member-configuration identity, so distinct
// configuration sets with identical futures become distinct states —
// and the constructed delta carries one column per task×role-class
// symbol even when most columns reject everywhere or duplicate each
// other. Minimization runs two passes over the constructed tables:
//
//  1. Hopcroft partition refinement merges states that are equivalent
//     under every observable: the replay language (via a virtual dead
//     state absorbing Reject), the end-of-trail bit, the member count
//     (StepStats reports it), and the verdict/worklist metadata
//     (violation reports render it). Each class keeps its
//     smallest-id state as representative, metadata verbatim, so every
//     report stays byte-identical to the constructed automaton's.
//  2. Alphabet compaction deduplicates delta columns: symbols with
//     identical columns share one, and all-Reject columns vanish into
//     SymMap entries of -1 (SymbolFor answers ok=false, the same
//     verdict the full-width lookup would reach one array access
//     later).
//
// Merged states are invisible to replay but not to snapshots: a
// checkpoint taken in a merged state exports the representative's
// members. That is sound — the classes agree on every observable at
// every future step — and restore stays graceful because promoteCase
// falls back to the interpreter whenever a member set has no exact
// DFA state.

// minimize rewrites d in place. It must run after construct (tables
// complete) and before Finish (derived indexes not yet built).
func (d *DFA) minimize() {
	n := int32(len(d.States))
	if n == 0 {
		return
	}
	fail := 1
	if d.Strict {
		fail = len(d.Tasks)
	}
	nsym := int32(len(d.Tasks)*len(d.Classes) + fail)

	// States 0..n-1 are real; n is the virtual dead state every Reject
	// edge leads to.
	next := func(s, a int32) int32 {
		if s == n {
			return n
		}
		if t := d.Delta[s*nsym+a]; t != Reject {
			return t
		}
		return n
	}

	classOf := d.refineClasses(n, nsym, next)

	// Order the surviving classes by smallest member (the
	// representative), dropping the dead class, so state ids — and with
	// them every downstream artifact byte — are deterministic.
	deadClass := classOf[n]
	rep := map[int32]int32{}
	for s := int32(0); s < n; s++ {
		b := classOf[s]
		if r, ok := rep[b]; !ok || s < r {
			rep[b] = s
		}
	}
	delete(rep, deadClass)
	blocks := make([]int32, 0, len(rep))
	for b := range rep {
		blocks = append(blocks, b)
	}
	sort.Slice(blocks, func(i, j int) bool { return rep[blocks[i]] < rep[blocks[j]] })
	newID := make([]int32, len(classOf))
	states := make([]State, len(blocks))
	for i, b := range blocks {
		newID[b] = int32(i)
		states[i] = d.States[rep[b]]
	}

	m := int32(len(blocks))
	merged := make([]int32, int(m)*int(nsym))
	for i, b := range blocks {
		row := d.Delta[rep[b]*nsym : (rep[b]+1)*nsym]
		out := merged[int32(i)*nsym : (int32(i)+1)*nsym]
		for a, t := range row {
			if t == Reject {
				out[a] = Reject
			} else {
				out[a] = newID[classOf[t]]
			}
		}
	}

	// Column compaction over the merged delta.
	symMap := make([]int32, nsym)
	colIdx := map[string]int32{}
	var liveCols []int32 // first symbol of each distinct live column
	key := make([]byte, 0, 4*int(m))
	for a := int32(0); a < nsym; a++ {
		key = key[:0]
		dead := true
		for s := int32(0); s < m; s++ {
			t := merged[s*nsym+a]
			if t != Reject {
				dead = false
			}
			key = binary.LittleEndian.AppendUint32(key, uint32(t))
		}
		if dead {
			symMap[a] = -1
			continue
		}
		if id, ok := colIdx[string(key)]; ok {
			symMap[a] = id
			continue
		}
		id := int32(len(liveCols))
		colIdx[string(key)] = id
		liveCols = append(liveCols, a)
		symMap[a] = id
	}
	cols := int32(len(liveCols))
	if cols == 0 {
		// Degenerate but legal (a process with no observable move):
		// keep one all-Reject column so the delta stays non-empty.
		cols = 1
		liveCols = []int32{0}
	}
	delta := make([]int32, int(m)*int(cols))
	for s := int32(0); s < m; s++ {
		for c, a := range liveCols {
			delta[s*cols+int32(c)] = merged[s*nsym+a]
		}
	}

	d.States = states
	d.Start = newID[classOf[d.Start]]
	d.Delta = delta
	d.SymMap = symMap
	d.Columns = cols
}

// refineClasses runs Hopcroft's partition refinement over states
// 0..n (n = dead) and returns each state's class id. The initial
// partition groups states by observable signature, so only states
// indistinguishable to reports and snapshots can ever merge.
func (d *DFA) refineClasses(n, nsym int32, next func(int32, int32) int32) []int32 {
	// Inverse transitions in CSR form: predecessors of t on symbol a
	// are invTo[invAt[a*(n+1)+t] : invAt[a*(n+1)+t+1]].
	total := int(nsym) * int(n+1)
	invAt := make([]int32, total+1)
	for s := int32(0); s <= n; s++ {
		for a := int32(0); a < nsym; a++ {
			invAt[int(a)*int(n+1)+int(next(s, a))+1]++
		}
	}
	for i := 0; i < total; i++ {
		invAt[i+1] += invAt[i]
	}
	invTo := make([]int32, int(nsym)*int(n+1))
	fill := append([]int32(nil), invAt[:total]...)
	for s := int32(0); s <= n; s++ {
		for a := int32(0); a < nsym; a++ {
			slot := int(a)*int(n+1) + int(next(s, a))
			invTo[fill[slot]] = s
			fill[slot]++
		}
	}

	p := newPartition(n + 1)
	sigs := map[string][]int32{}
	for s := int32(0); s < n; s++ {
		sigs[stateSignature(&d.States[s])] = append(sigs[stateSignature(&d.States[s])], s)
	}
	sigs["\x00dead"] = []int32{n}
	var keys []string
	for k := range sigs {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	type splitter struct{ block, sym int32 }
	var work []splitter
	var inW [][]bool
	push := func(b, a int32) {
		for int(b) >= len(inW) {
			inW = append(inW, make([]bool, nsym))
		}
		if !inW[b][a] {
			inW[b][a] = true
			work = append(work, splitter{b, a})
		}
	}
	for _, k := range keys {
		b := p.addBlock(sigs[k])
		for a := int32(0); a < nsym; a++ {
			push(b, a)
		}
	}

	var pre []int32
	for len(work) > 0 {
		sp := work[len(work)-1]
		work = work[:len(work)-1]
		inW[sp.block][sp.sym] = false

		pre = pre[:0]
		base := int(sp.sym) * int(n+1)
		for i := p.first[sp.block]; i < p.past[sp.block]; i++ {
			t := p.elems[i]
			pre = append(pre, invTo[invAt[base+int(t)]:invAt[base+int(t)+1]]...)
		}
		for _, s := range pre {
			p.markState(s)
		}
		p.splitTouched(func(old, fresh int32) {
			for a := int32(0); a < nsym; a++ {
				push(old, a)
				push(fresh, a)
			}
		})
	}
	return p.blk
}

// stateSignature renders everything replay and reporting can observe
// about a state besides its transitions; states may only merge when
// these agree, keeping minimized reports byte-identical.
func stateSignature(st *State) string {
	var b []byte
	if st.CanComplete {
		b = append(b, '1')
	} else {
		b = append(b, '0')
	}
	b = append(b, fmt.Sprintf("#%d", len(st.Members))...)
	for _, e := range st.Expected {
		b = append(b, 0)
		b = append(b, e...)
	}
	b = append(b, 1)
	for _, a := range st.ActiveTasks {
		b = append(b, 0)
		b = append(b, a...)
	}
	b = append(b, 1)
	for _, o := range st.Active {
		b = append(b, 0)
		b = append(b, o.Role...)
		b = append(b, 2)
		b = append(b, o.Task...)
	}
	b = append(b, 1)
	for _, o := range st.Fire {
		b = append(b, 0)
		b = append(b, o.Role...)
		b = append(b, 2)
		b = append(b, o.Task...)
	}
	return string(b)
}

// partition is the refinable-partition structure Hopcroft needs:
// states grouped contiguously by block, O(1) marking and splitting.
type partition struct {
	elems   []int32 // states, grouped by block
	loc     []int32 // position of each state in elems
	blk     []int32 // block of each state
	first   []int32 // per block: start in elems
	past    []int32 // per block: one past the end
	mark    []int32 // per block: number of marked (front) states
	touched []int32 // blocks with marks in the current round
}

func newPartition(n int32) *partition {
	return &partition{
		elems: make([]int32, 0, n),
		loc:   make([]int32, n),
		blk:   make([]int32, n),
	}
}

func (p *partition) addBlock(states []int32) int32 {
	b := int32(len(p.first))
	p.first = append(p.first, int32(len(p.elems)))
	for _, s := range states {
		p.loc[s] = int32(len(p.elems))
		p.blk[s] = b
		p.elems = append(p.elems, s)
	}
	p.past = append(p.past, int32(len(p.elems)))
	p.mark = append(p.mark, 0)
	return b
}

// markState moves s into its block's marked prefix.
func (p *partition) markState(s int32) {
	b := p.blk[s]
	i := p.loc[s]
	f := p.first[b] + p.mark[b]
	if i < f {
		return // already marked
	}
	if p.mark[b] == 0 {
		p.touched = append(p.touched, b)
	}
	o := p.elems[f]
	p.elems[f], p.elems[i] = s, o
	p.loc[s], p.loc[o] = f, i
	p.mark[b]++
}

// splitTouched ends a refinement round: every touched block whose
// marked prefix is proper splits into (marked, rest); onSplit receives
// the surviving and the new block id.
func (p *partition) splitTouched(onSplit func(old, fresh int32)) {
	for _, b := range p.touched {
		m := p.mark[b]
		p.mark[b] = 0
		if p.first[b]+m == p.past[b] {
			continue // everything marked: no split
		}
		fresh := int32(len(p.first))
		p.first = append(p.first, p.first[b])
		p.past = append(p.past, p.first[b]+m)
		p.mark = append(p.mark, 0)
		p.first[b] += m
		for i := p.first[fresh]; i < p.past[fresh]; i++ {
			p.blk[p.elems[i]] = fresh
		}
		onSplit(b, fresh)
	}
	p.touched = p.touched[:0]
}
