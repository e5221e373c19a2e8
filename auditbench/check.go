package main

import (
	"bytes"
	"context"
	"crypto/ed25519"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/ledger"
)

// caseView mirrors the verdict fields of auditd's GET /v1/cases rows.
type caseView struct {
	Case          string `json:"case"`
	Purpose       string `json:"purpose"`
	Entries       int    `json:"entries"`
	Outcome       string `json:"outcome"`
	Violation     string `json:"violation,omitempty"`
	Indeterminate string `json:"indeterminate,omitempty"`
}

// fetchCases reads GET /v1/cases twice: as verdict rows and as raw rows
// with the fields that legitimately differ across a restart removed
// (shard placement, WAL position, live configuration count).
func fetchCases(ctx context.Context, c *http.Client, base string) ([]caseView, []byte, error) {
	b, err := getBody(ctx, c, base+"/v1/cases")
	if err != nil {
		return nil, nil, err
	}
	var typed struct {
		Cases []caseView `json:"cases"`
	}
	if err := json.Unmarshal(b, &typed); err != nil {
		return nil, nil, err
	}
	var raw struct {
		Cases []map[string]json.RawMessage `json:"cases"`
	}
	if err := json.Unmarshal(b, &raw); err != nil {
		return nil, nil, err
	}
	if raw.Cases == nil {
		raw.Cases = []map[string]json.RawMessage{} // auditd serves null when empty
	}
	for _, m := range raw.Cases {
		delete(m, "shard")
		delete(m, "wal_lsn")
		delete(m, "configurations")
		delete(m, "engine")
	}
	canon, err := json.Marshal(raw.Cases)
	return typed.Cases, canon, err
}

// referenceViews replays every sent case through a fresh interpreter
// (core.NewChecker without compiled automata) — the oracle the compiled
// engine is tested against — and renders the rows auditd should serve.
func referenceViews(ds *dataset, cases []*sentCase) ([]caseView, error) {
	const workers = 2
	out := make([]caseView, len(cases))
	errs := make([]error, workers)
	base := core.NewChecker(ds.reg, ds.roles)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			chk := base.Clone()
			for i := w; i < len(cases); i += workers {
				c := cases[i]
				rep, err := chk.CheckCase(audit.NewTrail(c.entries(len(c.seqs))), c.id)
				if err != nil {
					errs[w] = fmt.Errorf("reference %s: %w", c.id, err)
					return
				}
				v := caseView{Case: c.id, Purpose: rep.Purpose, Entries: rep.Entries, Outcome: rep.Outcome.String()}
				if rep.Violation != nil {
					v.Violation = rep.Violation.String()
				}
				if rep.Indeterminate != nil {
					v.Indeterminate = rep.Indeterminate.String()
				}
				out[i] = v
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Case < out[j].Case })
	return out, nil
}

// sent lists the cases with at least one line emitted.
func (s *stream) sent() []*sentCase {
	var out []*sentCase
	for _, c := range s.all {
		if len(c.seqs) > 0 {
			out = append(out, c)
		}
	}
	return out
}

// compareViews reports every difference between auditd's rows and the
// reference, up to a handful of examples.
func compareViews(got, want []caseView) []string {
	var bad []string
	add := func(format string, a ...any) {
		if len(bad) < 5 {
			bad = append(bad, fmt.Sprintf(format, a...))
		}
	}
	if len(got) != len(want) {
		add("auditd serves %d cases, the reference has %d", len(got), len(want))
	}
	byID := map[string]caseView{}
	for _, v := range got {
		byID[v.Case] = v
	}
	mismatches := 0
	for _, w := range want {
		g, ok := byID[w.Case]
		switch {
		case !ok:
			mismatches++
			add("case %s missing from auditd", w.Case)
		case g != w:
			mismatches++
			add("case %s: auditd %+v, reference %+v", w.Case, g, w)
		}
	}
	if mismatches > 5 {
		bad = append(bad, fmt.Sprintf("%d verdict mismatches in total", mismatches))
	}
	return bad
}

// proofCheck keeps the proof bundles served during a run and verifies
// them offline, against the pinned ledger key, after the run.
type proofCheck struct {
	pub     ed25519.PublicKey
	mu      sync.Mutex
	bundles []servedProof
}

// servedProof is a proof bundle and the completed case it was asked for.
type servedProof struct {
	c    *sentCase
	body []byte
}

// keep returns where the answer to a proof request for c goes.
func (p *proofCheck) keep(c *sentCase) func([]byte) {
	return func(b []byte) {
		p.mu.Lock()
		p.bundles = append(p.bundles, servedProof{c, b})
		p.mu.Unlock()
	}
}

// verify checks every bundle: a verdict, an unbroken chain of signed
// roots, and every entry sent for the requested case proven into one of
// them.
func (p *proofCheck) verify() []string {
	const workers = 2
	bad := make([][]string, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(p.bundles) && len(bad[w]) < 5; i += workers {
				if err := p.verifyOne(p.bundles[i]); err != nil {
					bad[w] = append(bad[w], fmt.Sprintf("proof %d: %v", i, err))
				}
			}
		}(w)
	}
	wg.Wait()
	return append(bad[0], bad[1]...)
}

func (p *proofCheck) verifyOne(sp servedProof) error {
	var bundle struct {
		Case    string            `json:"case"`
		Outcome string            `json:"outcome"`
		Proof   *ledger.CaseProof `json:"proof"`
	}
	id := sp.c.id
	switch err := json.Unmarshal(sp.body, &bundle); {
	case err != nil:
		return err
	case bundle.Case != id || bundle.Proof == nil || bundle.Proof.Case != id:
		return fmt.Errorf("asked for the proof of %s, got a bundle for %q", id, bundle.Case)
	case bundle.Outcome == "unknown":
		return fmt.Errorf("case %s has no verdict", id)
	}
	// VerifyCaseProof runs VerifyRoots over the bundle's root chain
	// before checking each entry's inclusion path.
	if err := ledger.VerifyCaseProof(p.pub, bundle.Proof); err != nil {
		return err
	}
	// The case was complete when asked for: every entry sent for it must
	// be proven, exactly as sent.
	sent := sp.c.entries(len(sp.c.seqs))
	if len(bundle.Proof.Entries) != len(sent) {
		return fmt.Errorf("case %s: %d entries proven, %d sent", id, len(bundle.Proof.Entries), len(sent))
	}
	for i, ep := range bundle.Proof.Entries {
		e, err := audit.DecodeEntryJSON(ep.Entry)
		if err != nil {
			return err
		}
		if e.String() != sent[i].String() || !e.Time.Equal(sent[i].Time) {
			return fmt.Errorf("case %s entry %d: proven %v, sent %v", id, i, e, sent[i])
		}
	}
	return nil
}

// sameBytes reports a byte-level mismatch between two documents.
func sameBytes(what string, got, want []byte) []string {
	if bytes.Equal(got, want) {
		return nil
	}
	n := 0
	for n < len(got) && n < len(want) && got[n] == want[n] {
		n++
	}
	return []string{fmt.Sprintf("%s differs from the uncrashed reference at byte %d (%d vs %d bytes)", what, n, len(got), len(want))}
}
