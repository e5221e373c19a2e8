package encode_test

// Tests for the flat binary artifact (DESIGN.md §13), the only
// automaton artifact format: a round trip keeps every table, files in
// any other format are cache misses, and a damaged or unminimized
// table is rejected, never half-loaded.

import (
	"bytes"
	"compress/gzip"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/automaton"
	"repro/internal/encode"
)

// requireSameDFA demands two decoded automata agree on every table the
// replay path touches.
func requireSameDFA(t *testing.T, a, b *automaton.DFA) {
	t.Helper()
	if a.Fingerprint != b.Fingerprint || a.Start != b.Start || a.Columns != b.Columns {
		t.Fatalf("identity differs: %s vs %s", a.Stats(), b.Stats())
	}
	if !reflect.DeepEqual(a.Delta, b.Delta) || !reflect.DeepEqual(a.SymMap, b.SymMap) {
		t.Fatal("transition tables differ")
	}
	if !reflect.DeepEqual(a.States, b.States) || !reflect.DeepEqual(a.Configs, b.Configs) {
		t.Fatal("state or config tables differ")
	}
	if !reflect.DeepEqual(a.Terms, b.Terms) || !reflect.DeepEqual(a.ActiveSets, b.ActiveSets) {
		t.Fatal("term or active-set tables differ")
	}
	if !reflect.DeepEqual(a.RoleClass, b.RoleClass) || !reflect.DeepEqual(a.Classes, b.Classes) {
		t.Fatal("role class tables differ")
	}
}

// TestBinaryArtifactRoundTrip decodes an encoded automaton back to the
// same tables, and re-encodes the decoded one to the same bytes: the
// image is a deterministic function of the tables.
func TestBinaryArtifactRoundTrip(t *testing.T) {
	t.Run("minimized", func(t *testing.T) {
		d := compileTreatment(t)
		var bin bytes.Buffer
		if err := encode.WriteAutomatonBinary(&bin, d); err != nil {
			t.Fatal(err)
		}
		got, err := encode.ReadAutomatonBinary(bin.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		requireSameDFA(t, d, got)
		var again bytes.Buffer
		if err := encode.WriteAutomatonBinary(&again, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(bin.Bytes(), again.Bytes()) {
			t.Fatal("re-encoding the decoded automaton changed the image")
		}
	})
}

// TestBinaryArtifactSaveLoad pins the cache's format rule: a directory
// that holds only the gzip+JSON artifact older versions wrote under
// the same fingerprint is a plain miss (os.ErrNotExist), so the caller
// recompiles; the fresh save writes <fingerprint>.dfa.bin beside it,
// and the next load uses that.
func TestBinaryArtifactSaveLoad(t *testing.T) {
	d := compileTreatment(t)
	dir := t.TempDir()
	old := filepath.Join(dir, d.Fingerprint+".dfa.json.gz")
	f, err := os.Create(old)
	if err != nil {
		t.Fatal(err)
	}
	zw := gzip.NewWriter(f)
	zw.Write([]byte(`{"magic":"purpose-automaton-artifact","version":1}`))
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := encode.LoadAutomaton(dir, d.Fingerprint); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("gzip+JSON-only cache: err = %v, want os.ErrNotExist", err)
	}

	path, err := encode.SaveAutomaton(dir, d)
	if err != nil {
		t.Fatal(err)
	}
	if path != filepath.Join(dir, d.Fingerprint+".dfa.bin") {
		t.Fatalf("saved to %q, want <fingerprint>.dfa.bin", path)
	}
	got, err := encode.LoadAutomaton(dir, d.Fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	requireSameDFA(t, d, got)
}

func TestBinaryArtifactRejectsCorruption(t *testing.T) {
	d := compileTreatment(t)
	var buf bytes.Buffer
	if err := encode.WriteAutomatonBinary(&buf, d); err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()

	// Wrong magic.
	if _, err := encode.ReadAutomatonBinary([]byte("not a container")); !errors.Is(err, encode.ErrArtifactMismatch) {
		t.Fatalf("bad magic accepted: %v", err)
	}
	// Truncation at every interesting boundary.
	for _, n := range []int{0, 7, 16, 23, len(img) / 2, len(img) - 1} {
		if _, err := encode.ReadAutomatonBinary(img[:n]); err == nil {
			t.Fatalf("truncated image (%d bytes) accepted", n)
		}
	}
	// A single flipped payload byte fails the CRC.
	bad := append([]byte(nil), img...)
	bad[len(bad)-1] ^= 0xff
	if _, err := encode.ReadAutomatonBinary(bad); !errors.Is(err, encode.ErrArtifactMismatch) {
		t.Fatalf("corrupt payload accepted: %v", err)
	}
	// Wrong container kind.
	var ckpt bytes.Buffer
	if err := encode.WriteContainer(&ckpt, encode.KindCheckpoint, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := encode.ReadAutomatonBinary(ckpt.Bytes()); !errors.Is(err, encode.ErrArtifactMismatch) {
		t.Fatalf("checkpoint container accepted as automaton: %v", err)
	}
}

func TestContainerSections(t *testing.T) {
	secs := []encode.Section{
		{ID: 9, Data: []byte("alpha")},
		{ID: 4, Data: nil},
		{ID: 7, Data: encode.Int32Section([]int32{-1, 0, 1 << 20})},
	}
	var buf bytes.Buffer
	if err := encode.WriteContainer(&buf, encode.KindCheckpoint, secs); err != nil {
		t.Fatal(err)
	}
	got, err := encode.ReadContainer(buf.Bytes(), encode.KindCheckpoint)
	if err != nil {
		t.Fatal(err)
	}
	if string(got[9]) != "alpha" || len(got[4]) != 0 {
		t.Fatalf("sections round-tripped wrong: %q %q", got[9], got[4])
	}
	ints, err := encode.ReadInt32Section(got[7])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ints, []int32{-1, 0, 1 << 20}) {
		t.Fatalf("int32 section round-tripped to %v", ints)
	}
	if _, err := encode.ReadInt32Section([]byte{1, 2, 3}); err == nil {
		t.Fatal("ragged int32 section accepted")
	}
}

func TestStringTableSection(t *testing.T) {
	for _, tc := range [][]string{
		nil,
		{""},
		{"a", "", "long \x00 binary \n term", "a"},
	} {
		got, err := encode.ReadStringTableSection(encode.StringTableSection(tc))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(tc) {
			t.Fatalf("%d strings round-tripped to %d", len(tc), len(got))
		}
		for i := range tc {
			if got[i] != tc[i] {
				t.Fatalf("string %d: %q != %q", i, got[i], tc[i])
			}
		}
	}
	if _, err := encode.ReadStringTableSection([]byte{0xff, 0xff, 0xff, 0x7f}); err == nil {
		t.Fatal("oversized string table header accepted")
	}
}

// TestRecordFrameRoundTrip covers the framing shared with the WAL:
// appended frames read back exactly, a short buffer is truncation (the
// torn-tail signal), and a flipped bit in a complete frame is
// corruption (ErrArtifactMismatch), never silently accepted.
func TestRecordFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{
		[]byte("x"),
		[]byte("hello record frame"),
		bytes.Repeat([]byte{0xab}, 4096),
	}
	var buf []byte
	for _, p := range payloads {
		buf = encode.AppendRecordFrame(buf, p)
	}
	rest := buf
	for i, want := range payloads {
		got, n, err := encode.ReadRecordFrame(rest)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d: payload differs", i)
		}
		rest = rest[n:]
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes after the last frame", len(rest))
	}

	// Every strict prefix of a frame is truncation, not corruption.
	one := encode.AppendRecordFrame(nil, []byte("acknowledged"))
	for cut := 0; cut < len(one); cut++ {
		_, _, err := encode.ReadRecordFrame(one[:cut])
		if !errors.Is(err, encode.ErrFrameTruncated) {
			t.Fatalf("prefix of %d bytes: err = %v, want ErrFrameTruncated", cut, err)
		}
	}
	// A zero length (zero-filled torn tail) is truncation too.
	if _, _, err := encode.ReadRecordFrame(make([]byte, 64)); !errors.Is(err, encode.ErrFrameTruncated) {
		t.Fatalf("zeroed tail: err = %v, want ErrFrameTruncated", err)
	}
	// A complete frame with any byte flipped is loud corruption.
	for _, bit := range []int{0, 5, len(one) - 1} {
		bad := append([]byte(nil), one...)
		bad[bit] ^= 0x40
		_, _, err := encode.ReadRecordFrame(bad)
		if err == nil && bit != 0 {
			t.Fatalf("flipped byte %d accepted", bit)
		}
		if err != nil && !errors.Is(err, encode.ErrArtifactMismatch) && !errors.Is(err, encode.ErrFrameTruncated) {
			t.Fatalf("flipped byte %d: err = %v, want ErrArtifactMismatch or truncation", bit, err)
		}
	}
}
