package hospital

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/encode"
	"repro/internal/lts"
	"repro/internal/policy"
)

func scenario(t *testing.T) *Scenario {
	t.Helper()
	sc, err := NewScenario()
	if err != nil {
		t.Fatalf("NewScenario: %v", err)
	}
	return sc
}

// TestFig1ProcessStructure (experiment F1): the treatment process
// builds, validates, and has the Figure 1 shape.
func TestFig1ProcessStructure(t *testing.T) {
	sc := scenario(t)
	p := sc.Treatment
	st := p.Stats()
	if st.Pools != 4 {
		t.Errorf("pools = %d, want 4", st.Pools)
	}
	if st.Tasks != 15 {
		t.Errorf("tasks = %d, want 15 (T01–T15)", st.Tasks)
	}
	if st.MsgFlows != 6 {
		t.Errorf("message flows = %d, want 6", st.MsgFlows)
	}
	if st.ErrorEdge != 1 {
		t.Errorf("error edges = %d, want 1 (T02)", st.ErrorEdge)
	}
	if got := p.RolesOfTasks(); len(got) != 4 {
		t.Errorf("task roles = %v, want 4", got)
	}
	if p.ORJoin("G3") != "J3" {
		t.Errorf("OR pairing missing")
	}
	if f, ok := p.ORBranchJoinFlow("G3", "T08"); !ok || f.From != "E6" {
		t.Errorf("lab branch routes to %v", f)
	}
	if f, ok := p.ORBranchJoinFlow("G3", "T09"); !ok || f.From != "E7" {
		t.Errorf("radiology branch routes to %v", f)
	}
	// The encoding exists and is non-trivial.
	rep, err := encode.Report(p)
	if err != nil {
		t.Fatalf("encode report: %v", err)
	}
	if rep.TotalSize < 100 {
		t.Errorf("encoding suspiciously small: %d nodes", rep.TotalSize)
	}
}

// TestFig2ProcessStructure (experiment F2).
func TestFig2ProcessStructure(t *testing.T) {
	sc := scenario(t)
	st := sc.Trial.Stats()
	if st.Tasks != 5 || st.Pools != 1 {
		t.Errorf("stats = %+v", st)
	}
	if got := sc.Trial.Tasks(); got[0] != "T91" || got[4] != "T95" {
		t.Errorf("tasks = %v", got)
	}
}

// TestFig3PolicyDecisions (experiment F3): Definition 3 over the
// Figure 3 statements, including role hierarchy, object hierarchy and
// consent.
func TestFig3PolicyDecisions(t *testing.T) {
	sc := scenario(t)
	pdp := sc.Framework.PDP
	obj := policy.MustParseObject

	cases := []struct {
		name string
		req  policy.AccessRequest
		want bool
	}{
		{"GP reads clinical (Physician statement via hierarchy)",
			policy.AccessRequest{User: "John", Role: "GP", Action: "read", Object: obj("[Jane]EPR/Clinical"), Task: "T01", Case: "HT-1"}, true},
		{"Cardiologist writes clinical",
			policy.AccessRequest{User: "Bob", Role: "Cardiologist", Action: "write", Object: obj("[Jane]EPR/Clinical"), Task: "T09", Case: "HT-1"}, true},
		{"Radiologist writes scan subsection (object hierarchy)",
			policy.AccessRequest{User: "Charlie", Role: "Radiologist", Action: "write", Object: obj("[Jane]EPR/Clinical/Scan"), Task: "T12", Case: "HT-1"}, true},
		{"LabTech writes tests subsection",
			policy.AccessRequest{User: "Tess", Role: "MedicalLabTech", Action: "write", Object: obj("[Jane]EPR/Clinical/Tests"), Task: "T15", Case: "HT-1"}, true},
		{"LabTech cannot write whole clinical section",
			policy.AccessRequest{User: "Tess", Role: "MedicalLabTech", Action: "write", Object: obj("[Jane]EPR/Clinical"), Task: "T15", Case: "HT-1"}, false},
		{"LabTech reads clinical via MedicalTech",
			policy.AccessRequest{User: "Tess", Role: "MedicalLabTech", Action: "read", Object: obj("[Jane]EPR/Clinical"), Task: "T13", Case: "HT-1"}, true},
		{"Physician reads consenting patient for trial",
			policy.AccessRequest{User: "Bob", Role: "Cardiologist", Action: "read", Object: obj("[Alice]EPR/Clinical"), Task: "T92", Case: "CT-1"}, true},
		{"Physician cannot read Jane for trial (no consent, Section 2)",
			policy.AccessRequest{User: "Bob", Role: "Cardiologist", Action: "read", Object: obj("[Jane]EPR/Clinical"), Task: "T92", Case: "CT-1"}, false},
		{"Demographics readable for treatment",
			policy.AccessRequest{User: "Bob", Role: "Cardiologist", Action: "read", Object: obj("[Alice]EPR/Demographics"), Task: "T06", Case: "HT-21"}, true},
		{"Task must belong to the claimed purpose's process",
			policy.AccessRequest{User: "Bob", Role: "Cardiologist", Action: "read", Object: obj("[Jane]EPR/Clinical"), Task: "T92", Case: "HT-1"}, false},
		{"MedicalTech cannot write clinical",
			policy.AccessRequest{User: "Mia", Role: "MedicalTech", Action: "write", Object: obj("[Jane]EPR/Clinical"), Task: "T13", Case: "HT-1"}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dec := pdp.Evaluate(c.req)
			if dec.Granted != c.want {
				t.Fatalf("Evaluate(%s) = %v (%s), want %v", c.req, dec.Granted, dec.Reason, c.want)
			}
		})
	}
}

// TestFig3Footnote3Visibility: a clinical-trial query returns only
// consenting patients; the same query under treatment returns all.
func TestFig3Footnote3Visibility(t *testing.T) {
	sc := scenario(t)
	candidates := []policy.Object{
		policy.MustParseObject("[Alice]EPR/Clinical"),
		policy.MustParseObject("[Jane]EPR/Clinical"),
		policy.MustParseObject("[David]EPR/Clinical"),
	}
	trial := sc.Framework.PDP.VisibleObjects(
		policy.AccessRequest{User: "Bob", Role: "Cardiologist", Action: "read", Task: "T92", Case: "CT-1"},
		candidates)
	if len(trial) != 2 { // Alice and David consented; Jane did not
		t.Fatalf("trial visibility = %v", trial)
	}
	treatment := sc.Framework.PDP.VisibleObjects(
		policy.AccessRequest{User: "Bob", Role: "Cardiologist", Action: "read", Task: "T06", Case: "HT-1"},
		candidates)
	if len(treatment) != 3 {
		t.Fatalf("treatment visibility = %v", treatment)
	}
}

// TestFig4Verdicts (experiment F4): the paper's headline result. The
// Figure 4 trail yields: HT-1 compliant and complete; HT-2 compliant but
// pending; CT-1 compliant; HT-10/11/20/21/30 are infringements (the
// cardiologist's re-purposing); and the preventive layer flags nothing.
func TestFig4Verdicts(t *testing.T) {
	sc := scenario(t)
	res, err := sc.Framework.Audit(sc.Trail)
	if err != nil {
		t.Fatalf("Audit: %v", err)
	}
	if len(res.PolicyFindings) != 0 {
		t.Errorf("preventive layer flagged %d entries; the attack is invisible to it", len(res.PolicyFindings))
		for _, f := range res.PolicyFindings {
			t.Logf("  finding: %s -> %s", f.Entry, f.Reason)
		}
	}
	want := map[string]struct {
		compliant bool
		pending   bool
	}{
		"HT-1":  {true, false},
		"HT-2":  {true, true},
		"CT-1":  {true, false},
		"HT-10": {false, false},
		"HT-11": {false, false},
		"HT-20": {false, false},
		"HT-21": {false, false},
		"HT-30": {false, false},
	}
	if len(res.CaseReports) != len(want) {
		t.Fatalf("got %d case reports, want %d", len(res.CaseReports), len(want))
	}
	for _, rep := range res.CaseReports {
		w, ok := want[rep.Case]
		if !ok {
			t.Errorf("unexpected case %s", rep.Case)
			continue
		}
		if rep.Compliant != w.compliant || rep.Pending != w.pending {
			t.Errorf("case %s: %s (want compliant=%v pending=%v)", rep.Case, rep, w.compliant, w.pending)
		}
	}
	// Exactly the five re-purposing cases are infringements.
	if got := len(res.Infringements()); got != 5 {
		t.Errorf("infringements = %d, want 5", got)
	}
	// The violation diagnostics name the re-purposed task and what the
	// process would have required instead.
	for _, rep := range res.Infringements() {
		if rep.Violation == nil || rep.Violation.Entry.Task != "T06" {
			t.Errorf("case %s: violation = %v", rep.Case, rep.Violation)
			continue
		}
		if len(rep.Violation.Expected) != 1 || rep.Violation.Expected[0] != "GP.T01" {
			t.Errorf("case %s: expected = %v, want [GP.T01]", rep.Case, rep.Violation.Expected)
		}
	}
}

// TestFig4JaneInvestigation: the Section 4 per-object workflow. Jane's
// EPR was accessed in HT-1 (valid treatment) and HT-11 (re-purposing);
// investigating her EPR surfaces exactly the HT-11 infringement.
func TestFig4JaneInvestigation(t *testing.T) {
	sc := scenario(t)
	reports, err := sc.Framework.Checker.CheckObject(sc.Trail, policy.MustParseObject("[Jane]EPR"))
	if err != nil {
		t.Fatal(err)
	}
	byCase := map[string]*core.Report{}
	for _, r := range reports {
		byCase[r.Case] = r
	}
	if len(byCase) != 2 {
		t.Fatalf("cases touching Jane's EPR: %v, want HT-1 and HT-11", byCase)
	}
	if r := byCase["HT-1"]; r == nil || !r.Compliant {
		t.Errorf("HT-1: %v", r)
	}
	if r := byCase["HT-11"]; r == nil || r.Compliant {
		t.Errorf("HT-11: %v", r)
	}
}

// TestFig6Replay (experiment F6): the transition-system walkthrough of
// Figure 6 — active-task sets along the HT-1 replay, the failure
// emptying the active set, the five-way branching after T06, and the
// OR-gateway ambiguity after T09.
func TestFig6Replay(t *testing.T) {
	sc := scenario(t)
	checker := sc.Framework.Checker

	type step struct {
		activeUnion map[string]bool
		configs     int
		nextFirst   int
	}
	var steps []step
	checker.TraceFn = func(i int, e audit.Entry, configs []*core.Configuration) {
		s := step{activeUnion: map[string]bool{}, configs: len(configs)}
		for _, conf := range configs {
			for _, a := range conf.ActiveTasks() {
				s.activeUnion[a.String()] = true
			}
		}
		s.nextFirst = len(configs[0].NextLabels())
		steps = append(steps, s)
	}
	defer func() { checker.TraceFn = nil }()

	rep, err := checker.CheckCase(sc.Trail, "HT-1")
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Compliant || !rep.CanComplete {
		t.Fatalf("HT-1: %s", rep)
	}
	if len(steps) != 16 {
		t.Fatalf("replayed %d steps, want 16", len(steps))
	}

	wantActive := []string{
		"GP·T01",           // St2
		"GP·T02",           // St3
		"",                 // St4: failure empties the active set
		"GP·T01",           // back to St2
		"GP·T05",           // St6
		"Cardiologist·T06", // St7
		"Cardiologist·T09", // St10/St11 (our origin discipline: only fired tasks)
		"Radiologist·T10",  // St13/St14
		"Radiologist·T11",  // St15/St16
		"Radiologist·T12",  //
		"Cardiologist·T06", // second visit
		"Cardiologist·T07", //
		"GP·T01",           // notification received
		"GP·T02",           //
		"GP·T03",           //
		"GP·T04",           // St36
	}
	for i, want := range wantActive {
		var got []string
		for a := range steps[i].activeUnion {
			got = append(got, a)
		}
		if want == "" {
			if len(got) != 0 {
				t.Errorf("step %d: active = %v, want empty (suspended process)", i, got)
			}
			continue
		}
		if len(got) != 1 || got[0] != want {
			t.Errorf("step %d: active = %v, want {%s}", i, got, want)
		}
	}

	// After the first T06 (step index 5), the configuration offers the
	// five-way choice of Figure 6's St7: T07, T08 (alone or with T09),
	// T09 (alone or with T08).
	if got := steps[5].nextFirst; got != 3 {
		t.Errorf("distinct next labels after T06 = %d, want 3 (T07, T08, T09)", got)
	}
	// After T09 (step index 6) the algorithm cannot yet distinguish
	// "only scans" from "scans and labs": at least two configurations
	// survive (St10 vs St11).
	if steps[6].configs < 2 {
		t.Errorf("configurations after T09 = %d, want ≥ 2 (St10/St11 ambiguity)", steps[6].configs)
	}
	// By the second T06 (step index 10) the labs-too configurations
	// have died (no lab results ever arrived): the set collapses.
	if steps[10].configs >= steps[6].configs {
		t.Errorf("configurations after second T06 = %d, want fewer than %d", steps[10].configs, steps[6].configs)
	}
}

// TestFig6FiveWaySt7 pins the exact successor structure of Figure 6's
// St7: five (label, state) successors.
func TestFig6FiveWaySt7(t *testing.T) {
	sc := scenario(t)
	pur := sc.Registry.Purpose(TreatmentPurpose)
	y := lts.NewSystem(pur.Observable)

	// Drive the encoded process to St7 via GP.T01, GP.T05, C.T06.
	state := pur.Initial
	for _, want := range []string{"T01", "T05", "T06"} {
		obs, err := y.WeakNext(state)
		if err != nil {
			t.Fatal(err)
		}
		var found bool
		for _, o := range obs {
			if o.Label.Op == want {
				state = o.State
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("label %s not offered; have %v", want, obs)
		}
	}
	obs, err := y.WeakNext(state)
	if err != nil {
		t.Fatal(err)
	}
	if len(obs) != 5 {
		for _, o := range obs {
			t.Logf("  succ: %s", o.Label)
		}
		t.Fatalf("St7 has %d successors, want 5 (Fig. 6)", len(obs))
	}
	counts := map[string]int{}
	for _, o := range obs {
		counts[o.Label.Op]++
	}
	if counts["T07"] != 1 || counts["T08"] != 2 || counts["T09"] != 2 {
		t.Fatalf("St7 successor multiset = %v, want T07:1 T08:2 T09:2", counts)
	}
}

// TestMimicryRequiresCollusion (experiment P8): a single user cannot
// simulate the whole treatment process because its tasks span four
// roles (Section 4's mimicry discussion).
func TestMimicryRequiresCollusion(t *testing.T) {
	sc := scenario(t)
	checker := sc.Framework.Checker
	base := time.Date(2026, 2, 1, 8, 0, 0, 0, time.UTC)
	mk := func(seq int, user, role, task, caseID string, st audit.Status) audit.Entry {
		return audit.Entry{
			User: user, Role: role, Action: "read",
			Object: policy.MustParseObject("[Jane]EPR/Clinical"),
			Task:   task, Case: caseID,
			Time:   base.Add(time.Duration(seq) * time.Minute),
			Status: st,
		}
	}

	// Bob (Cardiologist) tries to fake a full treatment case alone: he
	// cannot perform GP-pool tasks.
	solo := audit.NewTrail([]audit.Entry{
		mk(0, "Bob", "Cardiologist", "T01", "HT-99", audit.Success),
	})
	rep, err := checker.CheckCase(solo, "HT-99")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Compliant {
		t.Fatalf("solo mimicry accepted: %s", rep)
	}
	if !strings.Contains(rep.Violation.Reason, "may not perform") {
		t.Fatalf("reason = %q", rep.Violation.Reason)
	}

	// With a colluding GP the prefix passes — mimicry needs collusion
	// across every role the process involves.
	collusion := audit.NewTrail([]audit.Entry{
		mk(0, "John", "GP", "T01", "HT-98", audit.Success),
		mk(1, "John", "GP", "T05", "HT-98", audit.Success),
		mk(2, "Bob", "Cardiologist", "T06", "HT-98", audit.Success),
	})
	rep, err = checker.CheckCase(collusion, "HT-98")
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Compliant || !rep.Pending {
		t.Fatalf("collusion prefix: %s", rep)
	}

	// Reusing a COMPLETED case as cover fails: HT-1 ended with T04, so
	// a later T06 access cannot extend it.
	extended := append(sc.Trail.ByCase("HT-1").Entries(),
		mk(1000, "Bob", "Cardiologist", "T06", "HT-1", audit.Success))
	rep, err = checker.CheckCase(audit.NewTrail(extended), "HT-1")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Compliant {
		t.Fatalf("post-completion access accepted: %s", rep)
	}
	if rep.StepsReplayed != 16 {
		t.Fatalf("deviation at step %d, want 16", rep.StepsReplayed)
	}
}

// TestHT1SoundnessOracle cross-checks Algorithm 1's verdict on HT-1
// against the brute-force trace-acceptance oracle (Theorem 2 on the
// paper's own scenario). The expected labels pin down the complete
// origin chains: each token names the task that produced it.
func TestHT1SoundnessOracle(t *testing.T) {
	sc := scenario(t)
	pur := sc.Registry.Purpose(TreatmentPurpose)
	y := lts.NewSystem(pur.Observable)

	trace := []string{
		"GP.T01(-)",             // S1's initial token carries no origin
		"GP.T02(T01)",           //
		"sys.Err(T02)",          // the cancel failure
		"GP.T01(T02)",           // error boundary routes back to T01
		"GP.T05(T01)",           //
		"Cardiologist.T06(T05)", // referral crossed the message flow
		"Cardiologist.T09(T06)", //
		"Radiologist.T10(T09)",  // order crossed to the radiology pool
		"Radiologist.T11(T10)",  //
		"Radiologist.T12(T11)",  //
		"Cardiologist.T06(T12)", // results notification through J3
		"Cardiologist.T07(T06)", //
		"GP.T01(T07)",           // diagnosis notification through S2
		"GP.T02(T01)",           //
		"GP.T03(T02)",           //
		"GP.T04(T03)",           //
	}
	ok, err := y.AcceptsTrace(pur.Initial, trace)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("oracle rejects HT-1's observable projection")
	}
	// Appending an impossible continuation flips the verdict.
	bogus := append(append([]string(nil), trace...), "Cardiologist.T06(T04)")
	ok, err = y.AcceptsTrace(pur.Initial, bogus)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatalf("oracle accepts post-completion access")
	}
}

// TestTrailSerializationRoundTrip exercises the CSV codec on the
// Figure 4 trail.
func TestTrailSerializationRoundTrip(t *testing.T) {
	sc := scenario(t)
	var b strings.Builder
	if err := audit.WriteCSV(&b, sc.Trail); err != nil {
		t.Fatal(err)
	}
	got, err := audit.ReadCSV(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != sc.Trail.Len() {
		t.Fatalf("round trip %d != %d", got.Len(), sc.Trail.Len())
	}
	// And the verdicts survive the round trip.
	res, err := sc.Framework.Audit(got)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Infringements()) != 5 {
		t.Fatalf("infringements after round trip = %d", len(res.Infringements()))
	}
}

// TestPartialTrailSkips exercises the Section 7 extension on the
// paper's own scenario: HT-1 with the radiologist's counter-indication
// check (T10) missing from the log — a silent activity. Plain
// Algorithm 1 rejects; a skip budget of 1 accepts and names the gap.
func TestPartialTrailSkips(t *testing.T) {
	sc := scenario(t)
	var entries []audit.Entry
	for _, e := range sc.Trail.ByCase("HT-1").Entries() {
		if e.Task == "T10" {
			continue
		}
		entries = append(entries, e)
	}
	partial := audit.NewTrail(entries)
	checker := sc.Framework.Checker

	plain, err := checker.CheckCase(partial, "HT-1")
	if err != nil {
		t.Fatal(err)
	}
	if plain.Compliant {
		t.Fatalf("plain checker accepted the gapped HT-1")
	}
	rep, err := checker.CheckCaseWithSkips(partial, "HT-1", 1)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Compliant || rep.SkipsUsed != 1 {
		t.Fatalf("skip replay: %+v", rep)
	}
	if len(rep.SkippedLabels) != 1 || rep.SkippedLabels[0] != "Radiologist.T10" {
		t.Fatalf("skipped = %v, want [Radiologist.T10]", rep.SkippedLabels)
	}
	// The full HT-1 needs no skips even with budget.
	rep, err = checker.CheckCaseWithSkips(sc.Trail, "HT-1", 2)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Compliant || rep.SkipsUsed != 0 {
		t.Fatalf("full HT-1 with budget: %+v", rep)
	}
}

// TestSeverityOnScenario ranks the Figure 4 infringements: HT-11
// (Jane — no consent) must outrank the consenting patients' cases.
func TestSeverityOnScenario(t *testing.T) {
	sc := scenario(t)
	res, err := sc.Framework.Audit(sc.Trail)
	if err != nil {
		t.Fatal(err)
	}
	scorer := core.NewSeverityScorer(sc.Consents)
	ranked := scorer.Rank(res, sc.Trail)
	if len(ranked) != 5 {
		t.Fatalf("ranked %d, want 5", len(ranked))
	}
	if ranked[0].Report.Case != "HT-11" {
		for _, r := range ranked {
			t.Logf("%s score=%d consent=%d", r.Report.Case, r.Score, r.Consent)
		}
		t.Fatalf("top severity = %s, want HT-11 (Jane withheld consent)", ranked[0].Report.Case)
	}
	if ranked[0].Consent != 30 {
		t.Fatalf("HT-11 consent component = %d", ranked[0].Consent)
	}
}

// TestMonitorSnapshotMidCase snapshots the online monitor in the middle
// of HT-1 — right inside the OR-gateway ambiguity, where multiple
// configurations with in-flight cross-pool tokens are live — and
// verifies the restored monitor finishes the case identically.
func TestMonitorSnapshotMidCase(t *testing.T) {
	sc := scenario(t)
	roles, err := Roles()
	if err != nil {
		t.Fatal(err)
	}
	entries := sc.Trail.ByCase("HT-1").Entries()
	cut := 8 // after R.T10: two configurations, tokens mid-flight

	m1 := core.NewMonitor(core.NewChecker(sc.Registry, roles))
	for _, e := range entries[:cut] {
		if v, err := m1.Feed(e); err != nil || !v.OK {
			t.Fatalf("feed: %+v %v", v, err)
		}
	}
	// Through JSON, the form a checkpoint stores the state in.
	raw, err := json.Marshal(m1.State())
	if err != nil {
		t.Fatal(err)
	}
	var st core.MonitorState
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	m2 := core.NewMonitor(core.NewChecker(sc.Registry, roles))
	if err := m2.LoadState(&st); err != nil {
		t.Fatal(err)
	}
	for i, e := range entries[cut:] {
		v, err := m2.Feed(e)
		if err != nil || !v.OK {
			t.Fatalf("post-restore entry %d: %+v %v", cut+i, v, err)
		}
	}
	status, err := m2.Status()
	if err != nil {
		t.Fatal(err)
	}
	if len(status) != 1 || !status[0].CanComplete || status[0].Deviated {
		t.Fatalf("restored case status = %+v", status)
	}
}
