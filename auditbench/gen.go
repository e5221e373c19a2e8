package main

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"time"

	"repro/internal/audit"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/workload"
)

// Every workload's case templates are generated with a fixed seed, so
// every --seed draws from the same population of cases. The run's seed
// picks which cases are drawn, how they interleave, which carry an
// injected violation, their ids and the ledger key; it never changes the
// mix of case lengths (which would move the numbers with the seed
// instead of with the code).
const templateSeed = 13

// templatesPerPurpose is how many simulated cases each purpose
// contributes to the template pool; emitted cases draw from the pool
// with fresh case ids.
const templatesPerPurpose = 192

// injectShare is the fraction of emitted cases that carry an injected
// violation.
const injectShare = 0.05

// injectKinds are the workload.Injector kinds the generator applies.
// Repurpose is left out: it renames the case, which would break the
// one-template-per-case bookkeeping.
var injectKinds = []workload.ViolationKind{
	workload.SkipTask, workload.SwapAdjacent, workload.WrongRole,
	workload.ForeignTask, workload.FakeFailure,
}

// template is one simulated case: its entries without case id or time,
// plus each entry's NDJSON line split around those two fields.
type template struct {
	code    string
	entries []audit.Entry
	inject  string // injected violation kind; "" for a clean case
	lines   []lineParts
}

// lineParts is an NDJSON line as head + case id + mid + time + tail.
type lineParts struct{ head, mid, tail []byte }

// dataset is what a workload audits: the purposes (as auditd sees them)
// and the template pools the streams draw cases from.
type dataset struct {
	reg      *core.Registry
	roles    *policy.RoleHierarchy
	clean    []*template
	injected []*template
}

var (
	caseSentinel = "Q-0"
	timeSentinel = time.Date(2001, 2, 3, 4, 5, 6, 0, time.UTC)
	timeBase     = time.Date(2026, 3, 2, 8, 0, 0, 0, time.UTC)
)

// hospitalDataset builds the paper's hospital purposes (treatment and
// clinical trial), exactly as auditd -builtin hospital loads them.
func hospitalDataset() (*dataset, error) {
	sc, err := cli.Builtin("hospital")
	if err != nil {
		return nil, err
	}
	ds := &dataset{reg: sc.Registry}
	if sc.Policy != nil {
		ds.roles = sc.Policy.Roles
	}
	return ds, ds.simulate([]string{"HT", "CT"})
}

// simulate fills the template pools: valid cases simulated from each
// purpose's semantics, plus an injected variant per kind where the
// injector applies.
func (ds *dataset) simulate(codes []string) error {
	inj := workload.NewInjector(templateSeed)
	for i, code := range codes {
		tp := workload.DefaultTrailParams(templateSeed+int64(i)*1000, templatesPerPurpose, code)
		trail, err := workload.NewSimulator(ds.reg, tp).Generate()
		if err != nil {
			return err
		}
		byCase := map[string][]audit.Entry{}
		for _, e := range trail.View() {
			byCase[e.Case] = append(byCase[e.Case], e)
		}
		ids := trail.Cases()
		for k, id := range ids {
			entries := byCase[id]
			if len(entries) == 0 {
				continue
			}
			t, err := newTemplate(code, entries, "")
			if err != nil {
				return err
			}
			ds.clean = append(ds.clean, t)
			kind := injectKinds[k%len(injectKinds)]
			if mut, ok := inj.Inject(kind, entries); ok && len(mut) > 0 {
				t, err := newTemplate(code, mut, kind.String())
				if err != nil {
					return err
				}
				ds.injected = append(ds.injected, t)
			}
		}
	}
	if len(ds.clean) == 0 || len(ds.injected) == 0 {
		return fmt.Errorf("generator produced no cases for %v", codes)
	}
	return nil
}

func newTemplate(code string, entries []audit.Entry, inject string) (*template, error) {
	t := &template{code: code, inject: inject}
	for _, e := range entries {
		e.Case, e.Time = "", time.Time{}
		t.entries = append(t.entries, e)
		lp, err := splitLine(e)
		if err != nil {
			return nil, err
		}
		t.lines = append(t.lines, lp)
	}
	return t, nil
}

// splitLine encodes e once through the repository's own JSONL codec with
// sentinel case and time, and cuts the line around them, so emitting a
// line later is three appends and a time format.
func splitLine(e audit.Entry) (lineParts, error) {
	e.Case, e.Time = caseSentinel, timeSentinel
	var buf bytes.Buffer
	if err := audit.AppendJSONL(&buf, e); err != nil {
		return lineParts{}, err
	}
	line := buf.Bytes()
	cq := []byte(`"case":"` + caseSentinel + `"`)
	tq := []byte(`"time":"` + timeSentinel.Format(time.RFC3339Nano) + `"`)
	ci, ti := bytes.Index(line, cq), bytes.Index(line, tq)
	if ci < 0 || ti < 0 || ti < ci {
		return lineParts{}, fmt.Errorf("unexpected JSONL layout: %s", line)
	}
	head := append([]byte(nil), line[:ci+len(`"case":"`)]...)
	mid := append([]byte(nil), line[ci+len(cq)-1:ti+len(`"time":"`)]...)
	tail := append([]byte(nil), line[ti+len(tq)-1:]...)
	return lineParts{head: head, mid: mid, tail: tail}, nil
}

// sentCase is the ground truth for one emitted case: its template and
// the stream sequence numbers (hence timestamps) of the lines emitted.
type sentCase struct {
	id   string
	tmpl *template
	seqs []int64
}

// entries rebuilds the case's first n emitted entries exactly as sent.
func (c *sentCase) entries(n int) []audit.Entry {
	out := make([]audit.Entry, n)
	for i := 0; i < n; i++ {
		e := c.tmpl.entries[i]
		e.Case, e.Time = c.id, seqTime(c.seqs[i])
		out[i] = e
	}
	return out
}

func seqTime(seq int64) time.Time { return timeBase.Add(time.Duration(seq) * time.Second) }

// stream emits a time-ordered NDJSON log: cases interleaved across a
// pool of concurrently open cases, each case's entries in order, one
// second apart from line to line.
type stream struct {
	ds       *dataset
	rng      *rand.Rand
	open     []*sentCase
	pos      []int
	nextNum  int
	seq      int64
	all      []*sentCase
	injected map[string]string
}

func newStream(ds *dataset, seed int64, openCases int) *stream {
	s := &stream{
		ds: ds, rng: rand.New(rand.NewSource(seed * 7919)),
		nextNum: 1, injected: map[string]string{},
	}
	for i := 0; i < openCases; i++ {
		s.open = append(s.open, s.newCase())
		s.pos = append(s.pos, 0)
	}
	return s
}

// fork returns an independent continuation of s: the same cases open at
// the same positions, drawn on with a new seed.
func (s *stream) fork(seed int64) *stream {
	f := &stream{
		ds: s.ds, rng: rand.New(rand.NewSource(seed * 7919)),
		pos: slices.Clone(s.pos), nextNum: s.nextNum, seq: s.seq,
		injected: maps.Clone(s.injected),
	}
	copies := map[*sentCase]*sentCase{}
	for _, c := range s.all {
		cc := &sentCase{id: c.id, tmpl: c.tmpl, seqs: slices.Clone(c.seqs)}
		copies[c] = cc
		f.all = append(f.all, cc)
	}
	for _, c := range s.open {
		f.open = append(f.open, copies[c])
	}
	return f
}

func (s *stream) newCase() *sentCase {
	var t *template
	if s.rng.Float64() < injectShare {
		t = s.ds.injected[s.rng.Intn(len(s.ds.injected))]
	} else {
		t = s.ds.clean[s.rng.Intn(len(s.ds.clean))]
	}
	c := &sentCase{id: t.code + "-" + strconv.Itoa(s.nextNum), tmpl: t}
	s.nextNum++
	s.all = append(s.all, c)
	if t.inject != "" {
		s.injected[c.id] = t.inject
	}
	return c
}

// next appends the next line to dst and reports the case it belongs to
// and whether that line completed the case.
func (s *stream) next(dst []byte) ([]byte, *sentCase, bool) {
	i := s.rng.Intn(len(s.open))
	c, p := s.open[i], s.pos[i]
	lp := c.tmpl.lines[p]
	dst = append(dst, lp.head...)
	dst = append(dst, c.id...)
	dst = append(dst, lp.mid...)
	dst = seqTime(s.seq).AppendFormat(dst, time.RFC3339Nano)
	dst = append(dst, lp.tail...)
	c.seqs = append(c.seqs, s.seq)
	s.seq++
	s.pos[i]++
	done := s.pos[i] == len(c.tmpl.lines)
	if done {
		s.open[i], s.pos[i] = s.newCase(), 0
	}
	return dst, c, done
}

// body emits n lines as one NDJSON request body.
func (s *stream) body(n int) ([]byte, []*sentCase) {
	var b []byte
	var completed []*sentCase
	for i := 0; i < n; i++ {
		var c *sentCase
		var done bool
		b, c, done = s.next(b)
		if done {
			completed = append(completed, c)
		}
	}
	return b, completed
}

// batch is one import body and the cases it completes.
type batch struct {
	body      []byte
	lines     int
	completed []*sentCase
}

// batches emits the next lines as bulkLines-line bodies. Workloads make
// their bodies before the timed windows, so the generator's own work is
// never part of the measured time.
func (s *stream) batches(lines int) []batch {
	var out []batch
	for lines > 0 {
		n := min(bulkLines, lines)
		b, completed := s.body(n)
		out = append(out, batch{body: b, lines: n, completed: completed})
		lines -= n
	}
	return out
}

// truth lists the cases with an injected violation, sorted by case id.
func (s *stream) truth() []injectedCase {
	var out []injectedCase
	for id, kind := range s.injected {
		out = append(out, injectedCase{Case: id, Kind: kind})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Case < out[j].Case })
	return out
}

type injectedCase struct {
	Case string `json:"case"`
	Kind string `json:"kind"`
}
