package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"log/slog"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cli"
	"repro/internal/core"
)

// TestMain lets a test re-run the binary as auditd itself: with
// AUDITD_TEST_MAIN_ARGS set, the process runs main on those arguments
// instead of the tests.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("AUDITD_TEST_MAIN_ARGS"); ok {
		os.Args = append([]string{"auditd"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestRemovedFlagsAreUsageErrors pins the flags that used to choose
// between equivalent engines and formats, and the two ring-size knobs
// that became one constant: each is now unknown, so auditd exits with
// the usage status before doing anything.
func TestRemovedFlagsAreUsageErrors(t *testing.T) {
	for _, flag := range []string{
		"-compiled", "-minimize", "-binary-artifacts", "-binary-checkpoint",
		"-trace-buffer 64", "-flight-events 64",
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^$")
		cmd.Env = append(os.Environ(), "AUDITD_TEST_MAIN_ARGS=-builtin hospital "+flag)
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != cli.ExitUsage {
			t.Fatalf("auditd %s: err = %v, want exit status %d\n%s", flag, err, cli.ExitUsage, out)
		}
		if !strings.Contains(string(out), "flag provided but not defined") {
			t.Errorf("auditd %s: output does not name the unknown flag:\n%s", flag, out)
		}
	}
}

// TestSetupCompiledReplacesJSONArtifact boots the compiled engine over
// an automata directory that holds only gzip+JSON artifacts, the format
// older versions wrote, under the current fingerprints. They are cache
// misses: every purpose compiles and saves <fingerprint>.dfa.bin, and
// the next boot loads those.
func TestSetupCompiledReplacesJSONArtifact(t *testing.T) {
	sc, err := cli.Builtin("hospital")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	probe := core.NewChecker(sc.Registry, sc.Policy.Roles)
	fps := map[string]string{}
	for _, name := range sc.Registry.Purposes() {
		fp, err := probe.AutomatonFingerprint(name)
		if err != nil {
			t.Fatal(err)
		}
		fps[name] = fp
		f, err := os.Create(filepath.Join(dir, fp+".dfa.json.gz"))
		if err != nil {
			t.Fatal(err)
		}
		zw := gzip.NewWriter(f)
		zw.Write([]byte(`{"magic":"purpose-automaton-artifact","version":1}`))
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}

	c := core.NewChecker(sc.Registry, sc.Policy.Roles)
	setupCompiled(testLogger(), c, sc.Registry, dir)
	for name, fp := range fps {
		if _, err := os.Stat(filepath.Join(dir, fp+".dfa.bin")); err != nil {
			t.Errorf("purpose %s: no binary artifact saved: %v", name, err)
		}
		if _, err := c.CompiledStatus(name); err != nil {
			t.Errorf("purpose %s: not compiled: %v", name, err)
		}
	}

	// The second boot loads the saved artifacts instead of compiling.
	var logs bytes.Buffer
	c2 := core.NewChecker(sc.Registry, sc.Policy.Roles)
	setupCompiled(slog.New(slog.NewTextHandler(&logs, nil)), c2, sc.Registry, dir)
	if n := strings.Count(logs.String(), `msg="automaton loaded"`); n != len(fps) {
		t.Errorf("second boot loaded %d artifacts, want %d:\n%s", n, len(fps), logs.String())
	}
}
