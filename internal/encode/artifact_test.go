package encode_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/automaton"
	"repro/internal/encode"
	"repro/internal/hospital"
)

func compileTreatment(t *testing.T) *automaton.DFA {
	t.Helper()
	p, err := hospital.Treatment()
	if err != nil {
		t.Fatal(err)
	}
	roles, err := hospital.Roles()
	if err != nil {
		t.Fatal(err)
	}
	d, err := encode.CompileProcess(p, roles)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestArtifactRoundTrip saves an automaton into a cache directory and
// loads it back by fingerprint: every table survives the trip through
// the file.
func TestArtifactRoundTrip(t *testing.T) {
	d := compileTreatment(t)
	dir := t.TempDir()
	if _, err := encode.SaveAutomaton(dir, d); err != nil {
		t.Fatal(err)
	}
	got, err := encode.LoadAutomaton(dir, d.Fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	requireSameDFA(t, d, got)
}

func TestArtifactSaveLoad(t *testing.T) {
	d := compileTreatment(t)
	dir := t.TempDir()
	path, err := encode.SaveAutomaton(dir, d)
	if err != nil {
		t.Fatal(err)
	}
	if path != filepath.Join(dir, d.Fingerprint+".dfa.bin") {
		t.Fatalf("saved to %q, want content address", path)
	}
	// A fingerprint with no artifact is a plain cache miss.
	if _, err := encode.LoadAutomaton(dir, "deadbeef"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing artifact: err = %v, want ErrNotExist", err)
	}
	// A file whose content disagrees with its address is rejected.
	if err := os.Rename(path, filepath.Join(dir, "deadbeef.dfa.bin")); err != nil {
		t.Fatal(err)
	}
	if _, err := encode.LoadAutomaton(dir, "deadbeef"); !errors.Is(err, encode.ErrArtifactMismatch) {
		t.Fatalf("mismatched artifact: err = %v, want ErrArtifactMismatch", err)
	}
}

// TestArtifactRejectsCorruption covers artifacts that are well-formed
// containers but not usable tables: one whose meta section carries no
// symbol map (the unminimized layout) is refused, on disk too, where
// the refusal is an error rather than a miss so the caller logs it
// before recompiling.
func TestArtifactRejectsCorruption(t *testing.T) {
	d := compileTreatment(t)
	d.SymMap, d.Columns = nil, 0
	var buf bytes.Buffer
	if err := encode.WriteAutomatonBinary(&buf, d); err != nil {
		t.Fatal(err)
	}
	_, err := encode.ReadAutomatonBinary(buf.Bytes())
	if err == nil || !strings.Contains(err.Error(), "not minimized") {
		t.Fatalf("table without a symbol map: err = %v, want a not-minimized refusal", err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, d.Fingerprint+".dfa.bin"), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := encode.LoadAutomaton(dir, d.Fingerprint); err == nil || errors.Is(err, os.ErrNotExist) {
		t.Fatalf("on-disk table without a symbol map: err = %v, want a load error", err)
	}
}
