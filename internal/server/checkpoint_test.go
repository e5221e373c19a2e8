package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/encode"
	"repro/internal/wal"
)

// TestBinaryCheckpointRoundTrip writes a checkpoint that holds a
// quarantined line, checks that the file on disk is the flat binary
// container, and restores it into a server with a different shard
// count: the verdicts, entry counts and quarantine survive.
func TestBinaryCheckpointRoundTrip(t *testing.T) {
	sc := hospitalScenario(t)
	path := filepath.Join(t.TempDir(), "ckpt.bin")

	cut := sc.Trail.Len() / 2
	head := audit.NewTrail(sc.Trail.Entries()[:cut])
	tail := audit.NewTrail(sc.Trail.Entries()[cut:])

	srv1, ts1 := startServer(t, sc, Config{Shards: 4, CheckpointPath: path})
	body := append([]byte("this is not json\n"), ndjson(t, head)...)
	resp, res := post(t, ts1.URL+"/v1/events?wait=1", "application/x-ndjson", body)
	if resp.StatusCode != http.StatusAccepted || res.Accepted != cut || res.Quarantined != 1 {
		t.Fatalf("head ingest: %s %+v", resp.Status, res)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv1.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	ts1.Close()

	// The file on disk really is the binary container.
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := encode.ReadContainer(img, encode.KindCheckpoint); err != nil {
		t.Fatalf("checkpoint is not a checkpoint container: %v", err)
	}

	srv2, ts2 := startServer(t, sc, Config{Shards: 7, CheckpointPath: path})
	resp, res = post(t, ts2.URL+"/v1/events?wait=1", "application/x-ndjson", ndjson(t, tail))
	if resp.StatusCode != http.StatusAccepted || res.Accepted != sc.Trail.Len()-cut {
		t.Fatalf("tail ingest: %s %+v", resp.Status, res)
	}

	got := getCases(t, ts2.URL+"/v1/cases")
	assertOutcomes(t, got, expectedOutcomes(t, sc, sc.Trail))
	for _, v := range got.Cases {
		if n := sc.Trail.ByCase(v.Case).Len(); v.Entries != n {
			t.Errorf("case %s: %d entries after restore+tail, want %d", v.Case, v.Entries, n)
		}
	}
	code, qbody := getBody(t, ts2.URL+"/v1/quarantine")
	if code != http.StatusOK || !strings.Contains(qbody, "this is not json") {
		t.Errorf("quarantine after restore = %d %q", code, qbody)
	}
	if err := srv2.Shutdown(ctx); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
}

// TestBinaryCheckpointRejectsCorruption flips a byte in the container
// and requires Start to fail loudly instead of restoring a torn cut.
func TestBinaryCheckpointRejectsCorruption(t *testing.T) {
	sc := hospitalScenario(t)
	path := filepath.Join(t.TempDir(), "ckpt.bin")

	srv1, ts1 := startServer(t, sc, Config{Shards: 2, CheckpointPath: path})
	if resp, _ := post(t, ts1.URL+"/v1/events?wait=1", "application/x-ndjson", ndjson(t, sc.Trail)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest: %s", resp.Status)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	ts1.Close()

	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	img[len(img)-1] ^= 0xff
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	srv2 := New(sc.Registry, hospitalChecker(sc), Config{Shards: 2, CheckpointPath: path})
	if err := srv2.Start(); err == nil {
		srv2.Shutdown(ctx)
		t.Fatal("corrupt binary checkpoint restored without error")
	}
}

// TestCheckpointRefusesJSONFormat boots over a JSON checkpoint in the
// format older auditd versions wrote. Start must fail with an error
// naming the file, and leave the file and every WAL segment in place:
// booting empty over it would silently drop the state it holds.
func TestCheckpointRefusesJSONFormat(t *testing.T) {
	sc := hospitalScenario(t)
	cfg, _ := walConfig(t, 2)

	srv1, ts1 := startServer(t, sc, cfg)
	if resp, _ := post(t, ts1.URL+"/v1/events?wait=1", "application/x-ndjson", ndjson(t, sc.Trail)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest: %s", resp.Status)
	}
	srv1.Crash()
	ts1.Close()

	old := []byte(`{"version":1,"saved_unix":1700000000,"monitor":{"version":2,` +
		`"states":["0"],"cases":{"HT-1":{"purpose":"HealthcareTreatment","entries":1,"dead":false,` +
		`"configs":[{"active":[{"role":"GP","task":"T01"}]}]}}},"views":{}}` + "\n")
	if err := os.WriteFile(cfg.CheckpointPath, old, 0o644); err != nil {
		t.Fatal(err)
	}
	segsBefore := walSegments(t, cfg.WALDir)

	srv2 := New(sc.Registry, hospitalChecker(sc), cfg)
	err := srv2.Start()
	if err == nil {
		srv2.Crash()
		t.Fatal("JSON checkpoint restored without error")
	}
	if !strings.Contains(err.Error(), cfg.CheckpointPath) {
		t.Errorf("error does not name the checkpoint file: %v", err)
	}
	if got, err := os.ReadFile(cfg.CheckpointPath); err != nil || !bytes.Equal(got, old) {
		t.Errorf("checkpoint file changed by the refused boot (err %v)", err)
	}
	if got := walSegments(t, cfg.WALDir); !reflect.DeepEqual(got, segsBefore) {
		t.Errorf("WAL segments changed by the refused boot:\nbefore: %v\nafter:  %v", segsBefore, got)
	}
}

// TestCheckpointPublishFailureKeepsWAL removes the checkpoint directory
// under a running server. The checkpoint round must fail, and because
// it failed no WAL segment may be truncated: the log is then the only
// copy of the state. Once the directory is back, the next round
// succeeds and truncates, which shows the first round had segments to
// lose.
func TestCheckpointPublishFailureKeepsWAL(t *testing.T) {
	sc := hospitalScenario(t)
	cfg, _ := walConfig(t, 2)
	cfg.WALSegmentBytes = 512 // many sealed segments: truncation has teeth
	ckptDir := filepath.Join(t.TempDir(), "ckpt")
	if err := os.Mkdir(ckptDir, 0o755); err != nil {
		t.Fatal(err)
	}
	cfg.CheckpointPath = filepath.Join(ckptDir, "state.ckpt")

	srv, ts := startServer(t, sc, cfg)
	defer srv.Crash()
	if resp, _ := post(t, ts.URL+"/v1/events?wait=1", "application/x-ndjson", ndjson(t, sc.Trail)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest: %s", resp.Status)
	}
	segsBefore := walSegments(t, cfg.WALDir)
	if len(segsBefore) < 2 {
		t.Fatalf("only %d WAL segments; the scenario needs sealed ones", len(segsBefore))
	}

	if err := os.RemoveAll(ckptDir); err != nil {
		t.Fatal(err)
	}
	if err := srv.checkpointRunning(); err == nil {
		t.Fatal("checkpoint into a removed directory reported success")
	}
	if got := walSegments(t, cfg.WALDir); !reflect.DeepEqual(got, segsBefore) {
		t.Fatalf("failed checkpoint truncated the WAL:\nbefore: %v\nafter:  %v", segsBefore, got)
	}

	if err := os.Mkdir(ckptDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := srv.checkpointRunning(); err != nil {
		t.Fatalf("checkpoint after the directory came back: %v", err)
	}
	if got := walSegments(t, cfg.WALDir); len(got) >= len(segsBefore) {
		t.Fatalf("successful checkpoint truncated nothing: %d segments before, %d after", len(segsBefore), len(got))
	}
}

// walSegments lists the WAL directory's segment files.
func walSegments(t *testing.T, dir string) []string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "*.wal"))
	if err != nil {
		t.Fatal(err)
	}
	return segs
}

// TestRestoresV2Checkpoint boots over a version-2 checkpoint and the
// WAL it was cut from, both written by the previous auditd release
// (testdata/ckpt-v2: half the Figure 4 trail plus two unknown-purpose
// entries before the checkpoint, the rest after it, then a crash). Its
// views section folds into the case records: /v1/roots must match the
// release's own reboot byte for byte, and /v1/cases field for field.
// Entry counts prove that WAL records at or below each case's
// checkpointed LSN were skipped, not fed twice. The one difference is
// a fix: that release reported a dead case's pre-violation
// configuration count, where a dead case now reports none.
func TestRestoresV2Checkpoint(t *testing.T) {
	sc := hospitalScenario(t)
	dir := t.TempDir()
	src := filepath.Join("testdata", "ckpt-v2")
	cfg := Config{
		Shards: 2, WALDir: filepath.Join(dir, "wal"), WALFsync: wal.FsyncAlways,
		CheckpointPath: filepath.Join(dir, "state.ckpt"), CheckpointEvery: time.Hour,
		LedgerKey: ledgerTestKey(), LedgerBatch: 4,
	}
	if err := os.Mkdir(cfg.WALDir, 0o755); err != nil {
		t.Fatal(err)
	}
	for from, to := range map[string]string{
		"state.ckpt":               cfg.CheckpointPath,
		"wal/0000000000000001.wal": filepath.Join(cfg.WALDir, "0000000000000001.wal"),
	} {
		b, err := os.ReadFile(filepath.Join(src, from))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(to, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	c := hospitalChecker(sc)
	c.UseCompiled = true
	for _, p := range sc.Registry.Purposes() {
		if _, err := c.EnsureCompiled(p); err != nil {
			t.Fatal(err)
		}
	}
	srv := New(sc.Registry, c, cfg)
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Crash()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	wantRoots, err := os.ReadFile(filepath.Join(src, "roots.json"))
	if err != nil {
		t.Fatal(err)
	}
	if _, got := getBody(t, ts.URL+"/v1/roots"); got != string(wantRoots) {
		t.Errorf("/v1/roots differs from the previous release's reboot:\n got %s\nwant %s", got, wantRoots)
	}

	type rows struct {
		Cases []map[string]any `json:"cases"`
		Total int              `json:"total"`
	}
	var want, got rows
	b, err := os.ReadFile(filepath.Join(src, "cases.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	for _, row := range want.Cases {
		if row["outcome"] != outcomeCompliant {
			delete(row, "configurations")
		}
	}
	_, body := getBody(t, ts.URL+"/v1/cases")
	if err := json.Unmarshal([]byte(body), &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("/v1/cases after restoring the v2 checkpoint:\n got %s\nwant %s", body, b)
	}

	// The next checkpoint is written in the current format: the case
	// records carry everything, and there is no views section.
	if err := srv.checkpointRunning(); err != nil {
		t.Fatal(err)
	}
	img, err := os.ReadFile(cfg.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	secs, err := encode.ReadContainer(img, encode.KindCheckpoint)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := secs[secCkptViewsV2]; ok {
		t.Error("checkpoint still has a views section")
	}
	file, err := decodeCheckpoint(img)
	if err != nil {
		t.Fatal(err)
	}
	if zz := file.Monitor.Cases["ZZ-1"]; zz.Purpose != "" || !zz.Dead || zz.Seq == 0 || zz.Violation == "" {
		t.Errorf("unknown-purpose case record = %+v", zz)
	}
}
