package encode

// Compiled-automaton artifacts (DESIGN.md §11, §13). A purpose
// automaton is stored as one flat binary container (binary.go), named
// by its content address: the file name is the automaton fingerprint —
// a hash over the canonical COWS term, the compiler version and every
// semantic knob — so a cache directory can hold artifacts for many
// purposes, flag combinations and compiler versions side by side, and
// a loader that computes the expected fingerprint from its own inputs
// can never pick up a stale or mismatched table.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/automaton"
	"repro/internal/bpmn"
	"repro/internal/lts"
	"repro/internal/policy"
)

// ErrArtifactMismatch reports an artifact whose identity does not
// match what the loader expected (wrong magic, version, kind, CRC or
// fingerprint). Callers treat it like a cache miss.
var ErrArtifactMismatch = errors.New("encode: automaton artifact mismatch")

// artifactPath is the content-addressed location of the automaton with
// the given fingerprint inside dir.
func artifactPath(dir, fingerprint string) string {
	return filepath.Join(dir, fingerprint+".dfa.bin")
}

// SaveAutomaton writes d into dir under its content address
// (temp file + rename, so concurrent writers of the same fingerprint
// are harmless) and returns the final path.
func SaveAutomaton(dir string, d *automaton.DFA) (string, error) {
	if d.Fingerprint == "" {
		return "", errors.New("encode: automaton has no fingerprint")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	tmp, err := os.CreateTemp(dir, ".dfa-*")
	if err != nil {
		return "", err
	}
	defer os.Remove(tmp.Name())
	if err := WriteAutomatonBinary(tmp, d); err != nil {
		tmp.Close()
		return "", err
	}
	if err := tmp.Close(); err != nil {
		return "", err
	}
	path := artifactPath(dir, d.Fingerprint)
	if err := os.Rename(tmp.Name(), path); err != nil {
		return "", err
	}
	return path, nil
}

// LoadAutomaton loads and validates the artifact with the given
// fingerprint from dir. A missing file returns os.ErrNotExist — files
// in any other format, such as the gzip+JSON artifacts older versions
// wrote, are never looked at, so they are plain cache misses. A file
// whose content does not carry that fingerprint returns
// ErrArtifactMismatch.
func LoadAutomaton(dir, fingerprint string) (*automaton.DFA, error) {
	data, err := os.ReadFile(artifactPath(dir, fingerprint))
	if err != nil {
		return nil, err
	}
	d, err := ReadAutomatonBinary(data)
	if err != nil {
		return nil, err
	}
	if d.Fingerprint != fingerprint {
		return nil, fmt.Errorf("%w: loaded fingerprint %.12s, want %.12s",
			ErrArtifactMismatch, d.Fingerprint, fingerprint)
	}
	return d, nil
}

// CompileInput assembles the automaton compiler input for a process:
// the canonical encoding, the purpose's own observability, the task
// alphabet with pool roles, and the role hierarchy. Flags and caps are
// zero — callers overlay their own before compiling so the fingerprint
// reflects the semantics they will replay with.
func CompileInput(p *bpmn.Process, roles *policy.RoleHierarchy) (automaton.CompileInput, error) {
	initial, err := Encode(p)
	if err != nil {
		return automaton.CompileInput{}, err
	}
	in := automaton.CompileInput{
		Purpose:    p.Name,
		Initial:    initial,
		Observable: Observability(p),
		Roles:      roles,
	}
	for _, task := range p.Tasks() {
		in.Tasks = append(in.Tasks, automaton.TaskSpec{Name: task, Role: p.TaskRole(task)})
	}
	return in, nil
}

// CompileProcess is the one-call path used by the CLIs: assemble the
// input, compile, and return the DFA.
func CompileProcess(p *bpmn.Process, roles *policy.RoleHierarchy, opts ...lts.Option) (*automaton.DFA, error) {
	in, err := CompileInput(p, roles)
	if err != nil {
		return nil, err
	}
	in.System = NewSystem(p, opts...)
	return automaton.Compile(in)
}
