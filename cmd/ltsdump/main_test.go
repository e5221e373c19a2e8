package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunCOWSSource(t *testing.T) {
	if err := run(`P.T!<> | P.T?<>.P.E!<> | P.E?<>`, "", "", "", "", 5, 100, 10, false, "", ""); err != nil {
		t.Fatal(err)
	}
}

func TestRunBuiltinWithDOT(t *testing.T) {
	dot := filepath.Join(t.TempDir(), "ct.dot")
	if err := run("", "", "clinicaltrial", dot, "", 2, 1000, 20, false, "", ""); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(dot)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"digraph", "T91", "T95"} {
		if !strings.Contains(string(data), want) {
			t.Errorf("DOT missing %q", want)
		}
	}
}

func TestRunTreatmentBudget(t *testing.T) {
	// The treatment process's observable LTS is finite; exploration
	// with a generous budget must complete without error.
	if err := run("", "", "treatment", "", "", 0, 3000, 10, false, "", ""); err != nil {
		t.Fatal(err)
	}
}

func TestRunProcFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "p.json")
	spec := `{
	  "name": "Mini", "pools": ["P"],
	  "elements": [
	    {"id":"S","kind":"start","pool":"P"},
	    {"id":"T1","kind":"task","pool":"P"},
	    {"id":"E","kind":"end","pool":"P"}
	  ],
	  "flows": [
	    {"from":"S","to":"T1","kind":"sequence"},
	    {"from":"T1","to":"E","kind":"sequence"}
	  ]
	}`
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run("", path, "", "", "", 1, 100, 10, false, "", ""); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	cases := []func() error{
		func() error { return run("", "", "", "", "", 0, 100, 10, false, "", "") },    // nothing given
		func() error { return run("P.!", "", "", "", "", 0, 100, 10, false, "", "") }, // bad COWS
		func() error { return run("", "missing.json", "", "", "", 0, 100, 10, false, "", "") },
		func() error { return run("", "", "nope", "", "", 0, 100, 10, false, "", "") },
	}
	for i, f := range cases {
		if err := f(); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestRunCompileArtifact(t *testing.T) {
	dir := t.TempDir()
	if err := run("", "", "clinicaltrial", "", "", 0, 1000, 10, true, dir, ""); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || !strings.HasSuffix(ents[0].Name(), ".dfa.bin") {
		t.Fatalf("expected one .dfa.bin artifact, got %v", ents)
	}
}

func TestRunStatsNeedsProcess(t *testing.T) {
	if err := run(`P.T!<> | P.T?<>.P.E!<> | P.E?<>`, "", "", "", "", 0, 100, 10, true, "", ""); err == nil {
		t.Fatal("-stats on a raw COWS service should fail (no task alphabet)")
	}
}
