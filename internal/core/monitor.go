package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/audit"
	"repro/internal/automaton"
)

// Monitor is the online variant of Algorithm 1 the paper calls for in
// Section 4 ("the analysis should be resumed when new actions within
// the process instance are recorded"): it keeps one live configuration
// set per case and consumes entries as they are logged, flagging the
// first deviating entry of each case immediately.
//
// A Monitor is NOT safe for concurrent use (it owns a Checker); wrap it
// or shard cases across monitors for concurrency.
//
// Sharding contract: a monitor's state is partitioned by case — no
// field is shared across cases except the checker's caches, which are
// concurrency-safe and semantics-free (memoization only). Feeding a
// trail through N monitors, routing every entry of one case to the
// same monitor (ShardCase) and preserving per-case entry order, yields
// verdicts and final Status() identical to one monitor consuming the
// whole trail. TestShardedMonitorEquivalence enforces this under the
// race detector; internal/server builds its worker pool on it.
type Monitor struct {
	checker *Checker
	cases   map[string]*caseState
	// syms caches (task, role, failure) → symbol lookups across feeds
	// for every compiled case; slots key on the DFA pointer so one
	// table serves all purposes. Owned by the feeding goroutine.
	syms symCacheTable
	// symHits/symMisses count syms outcomes. Atomics so an exporter on
	// another goroutine (auditd /metrics) can read them while the shard
	// goroutine feeds.
	symHits, symMisses atomic.Uint64
}

// SymbolCacheStats reports the compiled fast path's symbol-cache
// counters. Safe to call from any goroutine.
func (m *Monitor) SymbolCacheStats() (hits, misses uint64) {
	return m.symHits.Load(), m.symMisses.Load()
}

// symbolFor resolves an entry's automaton symbol through the monitor's
// persistent cache, bumping the hit/miss counters.
func (m *Monitor) symbolFor(d *automaton.DFA, e audit.Entry) (int32, bool) {
	task, role := e.Task, e.Role
	failure := e.Status == audit.Failure
	if failure {
		role = ""
	}
	sym, ok, hit := m.syms.lookup(d, task, role, failure)
	if hit {
		m.symHits.Add(1)
	} else {
		m.symMisses.Add(1)
	}
	return sym, ok
}

// ShardCase maps a case id to a shard in [0, shards) by FNV-1a hash.
// All entries of one case land on one shard, which is what preserves
// the sharding contract above. shards < 2 always yields 0.
func ShardCase(caseID string, shards int) int {
	if shards < 2 {
		return 0
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(caseID); i++ {
		h ^= uint64(caseID[i])
		h *= prime64
	}
	return int(h % uint64(shards))
}

type caseState struct {
	// purpose is nil for a case whose code is bound to no registered
	// purpose; such a case is dead from its first entry.
	purpose *Purpose
	configs []*Configuration
	entries int
	dead    bool // a violation or indeterminacy was already flagged; further entries are reported, not replayed
	// cause is set when the case died of an analysis abandon (budget,
	// configuration cap, recovered panic) rather than a violation.
	cause *Indeterminacy
	// dfa/dstate, when dfa is non-nil, carry the case on the compiled
	// fast path (DESIGN.md §11): dstate is the current automaton state
	// and configs stays nil. Cases restored from a snapshot that cannot
	// be mapped onto the automaton run interpreted instead; the two
	// engines coexist per case within one monitor.
	dfa    *automaton.DFA
	dstate int32
	// expl is the explanation captured when the case died; repeated
	// feeds of a dead case re-surface it, and snapshots carry it so a
	// restored monitor keeps the narrative.
	expl *Explanation
	// violation is the first violation's diagnosis (Violation.String()).
	violation string
	// updated is the log time of the case's last fed entry; seq is the
	// caller's sequence number for it (FeedSeq; 0 when none was given).
	updated time.Time
	seq     uint64
}

// configCount is the live configuration-set size under either engine.
func (cs *caseState) configCount() int {
	if cs.dfa != nil {
		return len(cs.dfa.States[cs.dstate].Members)
	}
	return len(cs.configs)
}

// engine names the replay engine carrying the case.
func (cs *caseState) engine() string {
	switch {
	case cs.purpose == nil:
		return ""
	case cs.dfa != nil:
		return EngineCompiled
	}
	return EngineInterpreted
}

// status copies the case's record. CanComplete is left to Status.
func (cs *caseState) status(id string) CaseStatus {
	r := CaseStatus{
		Case:          id,
		Entries:       cs.entries,
		Deviated:      cs.dead,
		Indeterminate: cs.cause,
		Engine:        cs.engine(),
		Violation:     cs.violation,
		Explanation:   cs.expl,
		Updated:       cs.updated,
		Seq:           cs.seq,
	}
	if cs.purpose != nil {
		r.Purpose = cs.purpose.Name
	}
	if !cs.dead {
		r.Configurations = cs.configCount()
	}
	return r
}

// Case returns one case's record without Status's replay, so
// CanComplete stays false.
func (m *Monitor) Case(caseID string) (CaseStatus, bool) {
	cs, ok := m.cases[caseID]
	if !ok {
		return CaseStatus{}, false
	}
	return cs.status(caseID), true
}

// EachCase calls fn with every case's record (as Case), in no order.
func (m *Monitor) EachCase(fn func(CaseStatus)) {
	for id, cs := range m.cases {
		fn(cs.status(id))
	}
}

// Len is the number of monitored cases.
func (m *Monitor) Len() int { return len(m.cases) }

// Verdict is the outcome of feeding one entry.
type Verdict struct {
	Case string
	// Purpose is the case's purpose; empty when none is bound to it.
	Purpose string
	// OK is true when the entry extended a valid execution.
	OK bool
	// Violation describes the deviation when !OK and the case's analysis
	// reached a verdict.
	Violation *Violation
	// Indeterminate is set when !OK because the case's analysis was
	// abandoned (budget, configuration cap, recovered panic); neither
	// compliance nor violation is claimed for this case.
	Indeterminate *Indeterminacy
	// CaseEntries counts entries seen for the case so far.
	CaseEntries int
	// Engine is the replay engine that consumed the entry ("compiled"
	// or "interpreted"); empty when no engine ran (unknown purpose).
	Engine string
	// Explanation accounts for a non-OK verdict (see Report.Explanation);
	// engine-neutral and sticky — repeated feeds of a dead case carry
	// the original explanation, including across snapshot restores.
	Explanation *Explanation
	// FirstDeviation is set on the case's first non-OK verdict: the
	// entry that turned it from compliant to violation or indeterminate.
	FirstDeviation bool
}

// NewMonitor builds a monitor sharing the checker's configuration (the
// checker must not be used elsewhere concurrently).
func NewMonitor(c *Checker) *Monitor {
	return &Monitor{checker: c, cases: map[string]*caseState{}}
}

// Watch initializes a case's live state without feeding an entry, so
// Enabled can be queried before any activity (a workflow engine starting
// a fresh instance).
func (m *Monitor) Watch(caseID string) error {
	_, err := m.caseStateFor(caseID)
	return err
}

// errUnknownPurpose distinguishes resolution failures in caseStateFor.
var errUnknownPurpose = fmt.Errorf("core: case code is not bound to any registered purpose")

func (m *Monitor) caseStateFor(caseID string) (*caseState, error) {
	st, ok := m.cases[caseID]
	if ok && st.purpose != nil {
		return st, nil
	}
	pur := m.checker.registry.ForCase(caseID)
	if pur == nil {
		return nil, fmt.Errorf("%w: %q", errUnknownPurpose, CaseCode(caseID))
	}
	if d, _ := m.checker.compiledFor(pur); d != nil {
		st = &caseState{purpose: pur, dfa: d, dstate: d.Start}
		m.cases[caseID] = st
		return st, nil
	}
	initial, err := m.checker.initialConfiguration(m.checker.runtime(pur), pur)
	if err != nil {
		if ind := indeterminacyFor(err); ind != nil {
			// The purpose's process cannot even be set up within budget:
			// the case is born dead-indeterminate instead of erroring out
			// the whole monitoring run.
			st = &caseState{purpose: pur, dead: true, cause: ind}
			m.cases[caseID] = st
			return st, nil
		}
		return nil, err
	}
	st = &caseState{purpose: pur, configs: []*Configuration{initial}}
	m.cases[caseID] = st
	return st, nil
}

// Offer is one unit of available work in a monitored case: either a
// task that can start now (Fire) or a task already active that can
// absorb further actions (Active). Failing describes whether the task
// may fail here (an error boundary is reachable).
type Offer struct {
	Role   string
	Task   string
	Active bool
}

// Enabled returns the union, over the case's live configurations, of
// startable tasks and active tasks — a workflow worklist. Deviated
// cases return nil.
func (m *Monitor) Enabled(caseID string) ([]Offer, error) {
	st, err := m.caseStateFor(caseID)
	if err != nil {
		return nil, err
	}
	if st.dead {
		return nil, nil
	}
	seen := map[Offer]bool{}
	var out []Offer
	add := func(o Offer) {
		if !seen[o] {
			seen[o] = true
			out = append(out, o)
		}
	}
	if st.dfa != nil {
		ds := &st.dfa.States[st.dstate]
		for _, o := range ds.Active {
			add(Offer{Role: o.Role, Task: o.Task, Active: true})
		}
		for _, o := range ds.Fire {
			add(Offer{Role: o.Role, Task: o.Task})
		}
	}
	for _, conf := range st.configs {
		for _, a := range conf.active.tasks {
			add(Offer{Role: a.Role, Task: a.Task, Active: true})
		}
		for _, s := range conf.next {
			if s.label.Op == "Err" {
				continue
			}
			if st.purpose.Process.HasTask(s.label.Op) {
				add(Offer{Role: s.label.Partner, Task: s.label.Op})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Task != out[j].Task {
			return out[i].Task < out[j].Task
		}
		return !out[i].Active && out[j].Active
	})
	return out, nil
}

// Peek reports whether the entry would extend the case's valid
// execution, without mutating any state — the dry run a workflow engine
// needs to refuse an operation instead of recording a deviation.
func (m *Monitor) Peek(e audit.Entry) (bool, error) {
	st, err := m.caseStateFor(e.Case)
	if err != nil {
		if errors.Is(err, errUnknownPurpose) {
			return false, nil
		}
		return false, err
	}
	if st.dead {
		return false, nil
	}
	if st.dfa != nil {
		sym, ok := m.symbolFor(st.dfa, e)
		return ok && st.dfa.Step(st.dstate, sym) != automaton.Reject, nil
	}
	maxConfigs := m.checker.MaxConfigurations
	if maxConfigs <= 0 {
		maxConfigs = DefaultMaxConfigurations
	}
	rt := m.checker.runtime(st.purpose)
	_, found, err := m.checker.advance(rt, st.purpose, st.configs, e, maxConfigs, nil, nil)
	if err != nil {
		return false, fmt.Errorf("core: peeking case %s: %w", e.Case, err)
	}
	return found, nil
}

// Feed consumes one entry.
func (m *Monitor) Feed(e audit.Entry) (*Verdict, error) {
	return m.feed(context.Background(), e, 0)
}

// FeedSeq is Feed that also records seq, the caller's sequence number
// for the entry (auditd passes the entry's WAL LSN), in the case's
// record. seq 0 leaves the recorded number unchanged.
func (m *Monitor) FeedSeq(e audit.Entry, seq uint64) (*Verdict, error) {
	return m.feed(context.Background(), e, seq)
}

// FeedContext is Feed honoring ctx. A budget/cap overflow or a panic
// while advancing the case yields an indeterminate verdict and kills the
// case (further feeds keep reporting it indeterminate); other monitored
// cases are unaffected.
func (m *Monitor) FeedContext(ctx context.Context, e audit.Entry) (*Verdict, error) {
	return m.feed(ctx, e, 0)
}

func (m *Monitor) feed(ctx context.Context, e audit.Entry, seq uint64) (*Verdict, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	st, err := m.caseStateFor(e.Case)
	if errors.Is(err, errUnknownPurpose) {
		if st = m.cases[e.Case]; st == nil {
			st = &caseState{dead: true}
			m.cases[e.Case] = st
		}
	} else if err != nil {
		return nil, err
	}
	v, err := m.advanceCase(st, e)
	if err != nil {
		return nil, err
	}
	st.updated = e.Time
	if seq > 0 {
		st.seq = seq
	}
	return v, nil
}

// advanceCase replays one entry of the case.
func (m *Monitor) advanceCase(st *caseState, e audit.Entry) (*Verdict, error) {
	st.entries++
	v := &Verdict{Case: e.Case, CaseEntries: st.entries, Engine: st.engine()}
	if st.purpose != nil {
		v.Purpose = st.purpose.Name
	}

	if st.dead {
		switch {
		case st.purpose == nil:
			// Every entry of a case bound to no purpose is a violation;
			// the record keeps the first.
			v.Violation = &Violation{
				Kind:   ViolationUnknownPurpose,
				Entry:  &e,
				Reason: fmt.Sprintf("case code %q is not bound to any registered purpose", CaseCode(e.Case)),
			}
			v.Explanation = m.checker.explainViolation(nil, e.Case, v.Violation, 0)
			if st.violation == "" {
				st.die(v, v.Explanation)
			}
			return v, nil
		case st.cause != nil:
			if st.expl == nil {
				// Born-dead case (setup exceeded its budget): derive the
				// narrative on first feed.
				st.expl = explainIndeterminacy(e.Case, st.purpose.Name, st.cause)
				v.FirstDeviation = true
			}
			v.Indeterminate = st.cause
		default:
			v.Violation = &Violation{
				Kind:   ViolationInvalidExecution,
				Entry:  &e,
				Reason: "case already deviated from its purpose's process",
			}
		}
		v.Explanation = st.expl
		return v, nil
	}

	if st.dfa != nil {
		dnext := automaton.Reject
		if sym, ok := m.symbolFor(st.dfa, e); ok {
			dnext = st.dfa.Step(st.dstate, sym)
		}
		if dnext == automaton.Reject {
			v.Violation = m.checker.describeViolationCompiled(st.dfa, st.dstate, st.purpose, st.entries-1, e)
			st.die(v, m.checker.explainViolation(st.purpose, e.Case, v.Violation, st.configCount()))
			return v, nil
		}
		st.dstate = dnext
		v.OK = true
		return v, nil
	}

	maxConfigs := m.checker.MaxConfigurations
	if maxConfigs <= 0 {
		maxConfigs = DefaultMaxConfigurations
	}
	rt := m.checker.runtime(st.purpose)
	next, found, err := func() (next []*Configuration, found bool, err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("%w: %v", errRecoveredPanic, r)
			}
		}()
		return m.checker.advance(rt, st.purpose, st.configs, e, maxConfigs, nil, nil)
	}()
	if err != nil {
		if ind := indeterminacyFor(err); ind != nil {
			ind.EntryIndex = st.entries - 1
			st.cause = ind
			v.Indeterminate = ind
			st.die(v, explainIndeterminacy(e.Case, st.purpose.Name, ind))
			return v, nil
		}
		return nil, fmt.Errorf("core: monitoring case %s: %w", e.Case, err)
	}
	if !found {
		v.Violation = m.checker.describeViolation(st.purpose, st.configs, st.entries-1, e)
		st.die(v, m.checker.explainViolation(st.purpose, e.Case, v.Violation, len(st.configs)))
		return v, nil
	}
	st.configs = next
	v.OK = true
	return v, nil
}

// die marks the case dead on its first non-OK verdict v, keeping the
// verdict's diagnosis and explanation in the record.
func (st *caseState) die(v *Verdict, expl *Explanation) {
	st.dead = true
	st.expl = expl
	if v.Violation != nil {
		st.violation = v.Violation.String()
	}
	v.Explanation = expl
	v.FirstDeviation = true
}

// CaseStatus is a copy of one monitored case's record.
type CaseStatus struct {
	Case string
	// Purpose is empty when the case code is bound to no purpose.
	Purpose  string
	Entries  int
	Deviated bool
	// Configurations is the live configuration count (0 once deviated).
	Configurations int
	// CanComplete is computed by Status only.
	CanComplete bool
	// Indeterminate is set when the case's analysis was abandoned
	// (budget, configuration cap, recovered panic); Deviated is then
	// true without a violation verdict.
	Indeterminate *Indeterminacy
	// Engine is the replay engine carrying the case: "compiled" or
	// "interpreted", empty without a purpose. Cases restored from
	// snapshots may stay interpreted even when the fast path is on
	// (DESIGN.md §11).
	Engine string
	// Violation is the first violation's diagnosis (Violation.String()).
	Violation string
	// Explanation accounts for the first deviation; nil while compliant.
	Explanation *Explanation
	// Updated is the log time of the last fed entry; Seq is the
	// caller's sequence number for it (FeedSeq; 0 when none was given).
	Updated time.Time
	Seq     uint64
}

// Status reports all monitored cases with a purpose, sorted by case
// id; Case and EachCase also report cases bound to no purpose.
func (m *Monitor) Status() ([]CaseStatus, error) {
	var out []CaseStatus
	for id, st := range m.cases {
		if st.purpose == nil {
			continue
		}
		cs := st.status(id)
		switch {
		case st.dead:
		case st.dfa != nil:
			cs.CanComplete = st.dfa.States[st.dstate].CanComplete
		default:
			y := m.checker.runtime(st.purpose).sys
			for _, conf := range st.configs {
				done, err := y.CanTerminateSilently(conf.state)
				if err != nil {
					if indeterminacyFor(err) != nil {
						// Completion is unknowable within budget; leave
						// CanComplete false rather than failing the sweep.
						break
					}
					return nil, err
				}
				if done {
					cs.CanComplete = true
					break
				}
			}
		}
		out = append(out, cs)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Case < out[j].Case })
	return out, nil
}

// Forget drops a case's live state (e.g. after it completed and was
// archived).
func (m *Monitor) Forget(caseID string) { delete(m.cases, caseID) }

// CheckStoreParallel fans the per-case analysis of a store out over
// nWorkers goroutines — the "massive parallelization" the paper notes is
// possible because case analyses are independent (Section 7). Workers
// share the checker (and thus its warm LTS and configuration caches; the
// caches are concurrency-safe). Dispatch is a lock-free work counter
// over the case list — per-case checks on a warm checker are
// microseconds, so channel coordination would dominate. Reports come
// back keyed by case.
func CheckStoreParallel(c *Checker, store *audit.Store, nWorkers int) (map[string]*Report, error) {
	return CheckStoreParallelContext(context.Background(), c, store, nWorkers)
}

// CheckStoreParallelContext is CheckStoreParallel honoring ctx: workers
// stop claiming cases once the context is done, and the first context
// error is returned.
func CheckStoreParallelContext(ctx context.Context, c *Checker, store *audit.Store, nWorkers int) (map[string]*Report, error) {
	cases := store.Cases()
	if nWorkers <= 0 {
		nWorkers = 1
	}
	if nWorkers > len(cases) && len(cases) > 0 {
		nWorkers = len(cases)
	}
	reports := make([]*Report, len(cases))
	errs := make([]error, len(cases))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < nWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(cases) {
					return
				}
				if err := ctx.Err(); err != nil {
					errs[i] = err
					return
				}
				reports[i], errs[i] = c.CheckCaseContext(ctx, store.Case(cases[i]), cases[i])
			}
		}()
	}
	wg.Wait()

	out := make(map[string]*Report, len(cases))
	for i := range cases {
		if errs[i] != nil {
			return nil, errs[i]
		}
		out[reports[i].Case] = reports[i]
	}
	return out, nil
}
