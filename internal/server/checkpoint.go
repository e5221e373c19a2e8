package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/encode"
	"repro/internal/ledger"
	"repro/internal/wal"
)

// Checkpointing: the server periodically (and on shutdown, after the
// queues drain) writes its whole live state — merged monitor state
// (one record per case), quarantine, sealed ledger batches — to
// CheckpointPath
// via write-to-temp + fsync + atomic rename + directory fsync, so a
// crash never leaves a torn file and a checkpoint that the WAL
// truncation relies on is durable. On Start the
// file is read back and the cases are re-split across shards by case
// hash, which also makes the shard count a restart-time knob: a
// 4-shard snapshot restores cleanly into 16 shards.
//
// Consistency: a running checkpoint asks every shard for a dump
// through its own queue, so each shard's cut reflects exactly the
// entries fed before the request — a consistent point-in-time cut per
// shard. Entries still waiting in queues at a crash are not in the
// snapshot; producers that need zero loss should use ?wait=1 and
// retry anything unacknowledged.

// checkpointFile is the logical content of a checkpoint;
// encodeCheckpoint packs it into the on-disk container.
type checkpointFile struct {
	SavedUnix int64
	Monitor   *core.MonitorState
	// Quarantine persists the held records and the all-time total so
	// /v1/quarantine survives restarts.
	QuarantineTotal int64
	Quarantine      []QuarantineRecord
	// Ledger persists the sealed batches (open leaves rebuild from WAL
	// replay — see walSafeLSN for the truncation clamp that keeps them
	// replayable).
	Ledger *ledger.State
}

// checkpointLoop snapshots every CheckpointEvery until stopped.
func (s *Server) checkpointLoop() {
	defer close(s.ckptDone)
	if s.cfg.CheckpointPath == "" {
		<-s.stopCkpt
		return
	}
	t := time.NewTicker(s.cfg.CheckpointEvery)
	defer t.Stop()
	for {
		select {
		case <-s.stopCkpt:
			return
		case <-t.C:
			if err := s.checkpointRunning(); err != nil {
				s.metrics.snapshotErrors.Add(1)
				s.log.Error("checkpoint failed", "err", err)
			}
		}
	}
}

// checkpointRunning takes a consistent cut through the live shard
// queues and writes it. On success, WAL segments fully covered by the
// cut are truncated: the low-water mark is captured BEFORE the dump
// fan-out, so a record at or below it is provably either fed already
// or queued ahead of the dump message (see walLowWater).
func (s *Server) checkpointRunning() error {
	if s.cfg.CheckpointPath == "" {
		return nil
	}
	lowWater := s.walLowWater()
	replies := make([]<-chan *core.MonitorState, len(s.shards))
	for i, sh := range s.shards {
		replies[i] = sh.requestDump()
	}
	dumps := make([]*core.MonitorState, len(s.shards))
	for i, ch := range replies {
		dumps[i] = <-ch
	}
	for i := range dumps {
		if dumps[i] == nil {
			// The shard's dump panicked (serveSnap still replied, so
			// the loop is not wedged). Writing a cut missing its cases
			// would lose them on restore — skip the whole round and
			// retry next tick; the previous checkpoint stays in place.
			return fmt.Errorf("server: shard %d dump panicked; checkpoint skipped", i)
		}
	}
	if err := s.writeCheckpoint(dumps); err != nil {
		return err
	}
	// Clamped so records a failed shard's drainer dropped — provably
	// NOT in any dump despite sitting below the low-water mark — stay
	// in the log for boot replay (walSafeLSN). Checked after the dumps
	// are collected: a shard that fails later can only be dropping
	// records above lowWater, since anything at or below it was fed
	// before the dump this checkpoint just persisted.
	s.truncateWAL(s.walSafeLSN(lowWater))
	return nil
}

// checkpointFinal reads the monitors directly; only valid after the
// shard workers have exited.
func (s *Server) checkpointFinal() error { return s.checkpointPartial(s.shards, nil) }

// checkpointPartial is the drain-deadline checkpoint: direct dumps
// from the shards that finished, and — for the stragglers — their
// cases carried over from the previous checkpoint file, so a stuck
// shard costs at most the progress since the last cut (still replayed
// from the WAL at next boot), never its whole history.
func (s *Server) checkpointPartial(drained []*shard, stale map[int]bool) error {
	if s.cfg.CheckpointPath == "" {
		return nil
	}
	dumps := make([]*core.MonitorState, 0, len(drained)+1)
	for _, sh := range drained {
		dumps = append(dumps, sh.dump())
	}
	if len(stale) > 0 {
		prev, err := s.readCheckpointFile()
		switch {
		case err != nil:
			s.log.Warn("previous checkpoint unreadable; straggler cases not carried over", "err", err)
		case prev == nil:
			s.log.Warn("no previous checkpoint; straggler cases restored from WAL only")
		default:
			d := &core.MonitorState{
				Version: prev.Monitor.Version,
				States:  prev.Monitor.States,
				Cases:   map[string]core.CaseSnapshot{},
			}
			for id, cs := range prev.Monitor.Cases {
				if stale[core.ShardCase(id, len(s.shards))] {
					d.Cases[id] = cs
				}
			}
			dumps = append(dumps, d)
		}
	}
	return s.writeCheckpoint(dumps)
}

// writeCheckpoint merges the shard dumps and writes the file
// atomically.
func (s *Server) writeCheckpoint(dumps []*core.MonitorState) error {
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	start := time.Now()

	merged := mergeStates(dumps)
	_, qtotal := s.quar.stats()
	recs := s.quar.snapshot()
	file := checkpointFile{
		SavedUnix:       time.Now().Unix(),
		Monitor:         merged,
		QuarantineTotal: qtotal,
		Quarantine:      recs,
	}
	if s.ledger != nil {
		st, err := s.ledger.ExportState()
		if err != nil {
			return fmt.Errorf("server: exporting ledger state: %w", err)
		}
		file.Ledger = st
	}

	dir := filepath.Dir(s.cfg.CheckpointPath)
	tmp, err := os.CreateTemp(dir, ".auditd-ckpt-*")
	if err != nil {
		return fmt.Errorf("server: checkpoint temp file: %w", err)
	}
	defer os.Remove(tmp.Name())
	if err := encodeCheckpoint(tmp, &file); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("server: syncing checkpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("server: closing checkpoint: %w", err)
	}
	if err := os.Rename(tmp.Name(), s.cfg.CheckpointPath); err != nil {
		return fmt.Errorf("server: publishing checkpoint: %w", err)
	}
	// The rename is durable only once the directory entry is: without
	// this fsync a power loss could bring back the previous checkpoint
	// after checkpointRunning has already truncated the WAL records
	// that followed it.
	if err := wal.SyncDir(dir); err != nil {
		return fmt.Errorf("server: publishing checkpoint: %w", err)
	}
	if file.Ledger != nil {
		// Only now — with the state durably published — may truncation
		// advance past these sealed leaves.
		s.ledgerCkptLSN.Store(file.Ledger.LastLSN())
	}

	d := time.Since(start)
	s.metrics.snapshotDuration.observe(d)
	s.metrics.snapshots.Add(1)
	s.metrics.lastSnapshotNano.Store(time.Now().UnixNano())
	s.log.Info("checkpoint written", "path", s.cfg.CheckpointPath,
		"cases", len(merged.Cases), "dur_ms", float64(d.Microseconds())/1000)
	return nil
}

// mergeStates folds per-shard monitor states into one, re-indexing
// each shard's state table into a shared one.
func mergeStates(dumps []*core.MonitorState) *core.MonitorState {
	merged := &core.MonitorState{Version: 2, Cases: map[string]core.CaseSnapshot{}}
	index := map[string]int{}
	for _, d := range dumps {
		remap := make([]int, len(d.States))
		for i, term := range d.States {
			ref, ok := index[term]
			if !ok {
				ref = len(merged.States)
				index[term] = ref
				merged.States = append(merged.States, term)
			}
			remap[i] = ref
		}
		for id, cs := range d.Cases {
			configs := make([]core.ConfigSnapshot, len(cs.Configs))
			for i, cfg := range cs.Configs {
				configs[i] = core.ConfigSnapshot{StateRef: remap[cfg.StateRef], Active: cfg.Active}
			}
			cs.Configs = configs
			merged.Cases[id] = cs
		}
	}
	return merged
}

// readCheckpointFile reads and decodes the checkpoint file. A missing
// file is (nil, nil); anything that is not a valid checkpoint
// container — a JSON checkpoint from an older auditd included — is an
// error naming the path, so Start refuses to boot over it instead of
// silently starting empty.
func (s *Server) readCheckpointFile() (*checkpointFile, error) {
	data, err := os.ReadFile(s.cfg.CheckpointPath)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("server: opening checkpoint: %w", err)
	}
	file, err := decodeCheckpoint(data)
	if err != nil {
		return nil, fmt.Errorf("server: decoding checkpoint %s (only the binary checkpoint container is read): %w", s.cfg.CheckpointPath, err)
	}
	return file, nil
}

// restore loads the checkpoint file, if configured and present, and
// splits it across the shards. Called from Start, before the workers
// run.
func (s *Server) restore() error {
	if s.cfg.CheckpointPath == "" {
		return nil
	}
	file, err := s.readCheckpointFile()
	if err != nil || file == nil {
		return err
	}
	// Split cases by hash; every per-shard state shares the full term
	// table, so no re-indexing is needed.
	parts := make([]*core.MonitorState, len(s.shards))
	for id, cs := range file.Monitor.Cases {
		i := core.ShardCase(id, len(s.shards))
		if parts[i] == nil {
			parts[i] = &core.MonitorState{
				Version: file.Monitor.Version,
				States:  file.Monitor.States,
				Cases:   map[string]core.CaseSnapshot{},
			}
		}
		parts[i].Cases[id] = cs
	}
	for i, part := range parts {
		if part == nil {
			continue
		}
		// Locked: handlers may already be reading.
		sh := s.shards[i]
		sh.mu.Lock()
		err := sh.mon.LoadState(part)
		sh.mu.Unlock()
		if err != nil {
			return fmt.Errorf("server: restoring shard %d: %w", i, err)
		}
	}
	s.quar.load(file.QuarantineTotal, file.Quarantine)
	if s.ledger != nil && file.Ledger != nil {
		// LoadState re-derives every chain, root and signature and
		// refuses a checkpoint that fails any of them: a tampered
		// checkpoint cannot smuggle state into the ledger.
		if err := s.ledger.LoadState(file.Ledger); err != nil {
			return fmt.Errorf("server: restoring ledger: %w", err)
		}
		s.ledgerCkptLSN.Store(file.Ledger.LastLSN())
	}
	s.metrics.lastSnapshotNano.Store(time.Unix(file.SavedUnix, 0).UnixNano())
	s.log.Info("checkpoint restored", "path", s.cfg.CheckpointPath,
		"cases", len(file.Monitor.Cases), "saved", time.Unix(file.SavedUnix, 0).Format(time.RFC3339))
	return nil
}

// Checkpoint encoding: the logical checkpointFile packed into the flat
// binary container from internal/encode (DESIGN.md §13). The monitor's
// canonical COWS terms — long, punctuation-heavy strings — ride as a
// raw string-table section; only the small, irregular remainder (case
// records, quarantine, ledger) is JSON.

// checkpointVersion is the checkpoint format version carried in the
// container's meta section. Version 1 was the JSON file older auditd
// versions wrote; it is no longer read. Version 2 also carried a views
// section beside the cases; it is still read (foldViewsV2), since a
// version-2 checkpoint has had its WAL truncated behind it.
const checkpointVersion = 3

// Checkpoint section ids.
const (
	secCkptMeta       = uint32(1) // JSON: version, timestamp, totals
	secCkptTerms      = uint32(2) // string table: monitor state terms
	secCkptCases      = uint32(3) // JSON: case snapshots (StateRef into terms)
	secCkptViewsV2    = uint32(4) // JSON: case views (version 2 only)
	secCkptQuarantine = uint32(5) // JSON: held quarantine records
	secCkptLedger     = uint32(6) // JSON: sealed ledger batches (absent without a ledger)
)

// binCkptMeta is the checkpoint's JSON metadata section.
type binCkptMeta struct {
	Version         int   `json:"version"`
	SavedUnix       int64 `json:"saved_unix"`
	MonitorVersion  int   `json:"monitor_version,omitempty"`
	QuarantineTotal int64 `json:"quarantine_total,omitempty"`
}

// encodeCheckpoint packs the assembled checkpoint into a container on
// w.
func encodeCheckpoint(w io.Writer, file *checkpointFile) error {
	meta := binCkptMeta{
		Version:         checkpointVersion,
		SavedUnix:       file.SavedUnix,
		MonitorVersion:  file.Monitor.Version,
		QuarantineTotal: file.QuarantineTotal,
	}
	metaJSON, err := json.Marshal(&meta)
	if err != nil {
		return fmt.Errorf("server: encoding checkpoint meta: %w", err)
	}
	casesJSON, err := json.Marshal(file.Monitor.Cases)
	if err != nil {
		return fmt.Errorf("server: encoding checkpoint cases: %w", err)
	}
	quarJSON, err := json.Marshal(file.Quarantine)
	if err != nil {
		return fmt.Errorf("server: encoding checkpoint quarantine: %w", err)
	}
	sections := []encode.Section{
		{ID: secCkptMeta, Data: metaJSON},
		{ID: secCkptTerms, Data: encode.StringTableSection(file.Monitor.States)},
		{ID: secCkptCases, Data: casesJSON},
		{ID: secCkptQuarantine, Data: quarJSON},
	}
	if file.Ledger != nil {
		// The ledger state is irregular (hex hashes, raw entry JSON), so
		// it rides as a JSON section; its integrity does not depend on
		// the container — LoadState re-verifies every byte.
		ledgerJSON, err := json.Marshal(file.Ledger)
		if err != nil {
			return fmt.Errorf("server: encoding checkpoint ledger: %w", err)
		}
		sections = append(sections, encode.Section{ID: secCkptLedger, Data: ledgerJSON})
	}
	return encode.WriteContainer(w, encode.KindCheckpoint, sections)
}

// decodeCheckpoint decodes a checkpoint image back into the logical
// checkpointFile shape restore splits across shards.
func decodeCheckpoint(data []byte) (*checkpointFile, error) {
	secs, err := encode.ReadContainer(data, encode.KindCheckpoint)
	if err != nil {
		return nil, err
	}
	var meta binCkptMeta
	if err := json.Unmarshal(secs[secCkptMeta], &meta); err != nil {
		return nil, fmt.Errorf("server: checkpoint meta section: %w", err)
	}
	if meta.Version != 2 && meta.Version != checkpointVersion {
		return nil, fmt.Errorf("server: unsupported checkpoint version %d", meta.Version)
	}
	terms, err := encode.ReadStringTableSection(secs[secCkptTerms])
	if err != nil {
		return nil, fmt.Errorf("server: checkpoint terms section: %w", err)
	}
	var cases map[string]core.CaseSnapshot
	if err := json.Unmarshal(secs[secCkptCases], &cases); err != nil {
		return nil, fmt.Errorf("server: checkpoint cases section: %w", err)
	}
	if cases == nil {
		cases = map[string]core.CaseSnapshot{}
	}
	if meta.Version == 2 {
		if err := foldViewsV2(secs[secCkptViewsV2], cases); err != nil {
			return nil, err
		}
	}
	file := &checkpointFile{
		SavedUnix:       meta.SavedUnix,
		Monitor:         &core.MonitorState{Version: meta.MonitorVersion, States: terms, Cases: cases},
		QuarantineTotal: meta.QuarantineTotal,
	}
	if err := json.Unmarshal(secs[secCkptQuarantine], &file.Quarantine); err != nil {
		return nil, fmt.Errorf("server: checkpoint quarantine section: %w", err)
	}
	if data, ok := secs[secCkptLedger]; ok {
		if err := json.Unmarshal(data, &file.Ledger); err != nil {
			return nil, fmt.Errorf("server: checkpoint ledger section: %w", err)
		}
	}
	return file, nil
}

// foldViewsV2 folds a version-2 views section into the case snapshots:
// each view's WAL LSN, update time and violation join its case, and a
// view with no case — a case bound to no purpose — becomes a dead case
// with no purpose.
func foldViewsV2(data []byte, cases map[string]core.CaseSnapshot) error {
	var views map[string]CaseView
	if err := json.Unmarshal(data, &views); err != nil {
		return fmt.Errorf("server: checkpoint views section: %w", err)
	}
	for id, v := range views {
		cs, ok := cases[id]
		if !ok {
			cs = core.CaseSnapshot{Entries: v.Entries, Dead: true, Explanation: v.Explanation}
		}
		cs.Violation, cs.Updated, cs.Seq = v.Violation, v.Updated, v.WalLSN
		cases[id] = cs
	}
	return nil
}
