package main

import (
	"bytes"
	"crypto/ed25519"
	"fmt"
	"io"
	"log/slog"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/audit"
	"repro/internal/automaton"
	"repro/internal/core"
	"repro/internal/encode"
	"repro/internal/ledger"
	"repro/internal/server"
	"repro/internal/wal"
)

// layerLines is how many of the workload's own lines the in-process
// layer calls process.
const layerLines = 20000

// layerInput is a workload's traffic in the shape auditd receives it.
type layerInput struct {
	ds      *dataset
	bodies  [][]byte
	entries [][]audit.Entry // bodies decoded, one batch per body
	n       int
	key     ed25519.PrivateKey
}

// newLayerInput regenerates at least lines of the workloads' bodies
// from the seed.
func newLayerInput(e *env, lines int) (*layerInput, error) {
	ds, err := hospitalDataset()
	if err != nil {
		return nil, err
	}
	in := &layerInput{ds: ds, key: ledgerSeed(e.seed)}
	for _, b := range newStream(ds, e.seed, openCases).batches(lines) {
		batch, q, err := audit.DecodeJSONLEntries(bytes.NewReader(b.body), audit.DecodeOptions{})
		if err != nil || len(q.Records) > 0 {
			return nil, fmt.Errorf("generated body does not decode: %v", err)
		}
		in.bodies = append(in.bodies, b.body)
		in.entries = append(in.entries, batch)
		in.n += len(batch)
	}
	return in, nil
}

// layerRun times calls into single layers: each call is a span under the
// layer's root span, and the layer's numbers come from those spans.
type layerRun struct {
	e   *env
	in  *layerInput
	tr  *tracer
	out map[string]metric
	tmp string
}

func (r *layerRun) set(name, unit string, v float64) { r.out[name] = metric{v, unit} }

// timed runs fn under a span named name, a child of parent.
func (r *layerRun) timed(name string, parent spanRef, fn func() error) error {
	sp := r.tr.child(name, parent)
	err := fn()
	r.tr.end(sp)
	return err
}

func (r *layerRun) dir(name string) (string, error) {
	p := filepath.Join(r.tmp, name)
	if err := os.RemoveAll(p); err != nil {
		return "", err
	}
	return p, os.MkdirAll(p, 0o755)
}

// checker returns a checker configured like auditd's: compiled automata
// with the interpreter as per-purpose fallback.
func (r *layerRun) checker() (*core.Checker, error) {
	c := core.NewChecker(r.in.ds.reg, r.in.ds.roles)
	c.UseCompiled = true
	for _, p := range r.in.ds.reg.Purposes() {
		if _, err := c.EnsureCompiled(p); err != nil && !core.IsNotCompilable(err) {
			return nil, err
		}
	}
	return c, nil
}

// medianDur is the median of the durations (0 for none).
func medianDur(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

// layers runs every in-process layer call over the workload's bodies.
func (r *layerRun) layers() error {
	for _, step := range []struct {
		name string
		fn   func(spanRef) error
	}{
		{"audit", r.audit}, {"core", r.core}, {"automaton", r.automaton},
		{"wal", r.wal}, {"ledger", r.ledger}, {"server", r.server},
	} {
		root := r.tr.start("layer." + step.name)
		err := step.fn(root)
		r.tr.end(root)
		if err != nil {
			return fmt.Errorf("layer %s: %w", step.name, err)
		}
		r.e.logf("layer %s measured", step.name)
	}
	r.fromSpans()
	return nil
}

// fromSpans derives the timed layer metrics from the recorded spans:
// per-entry costs and totals from self time, per-call costs as medians.
func (r *layerRun) fromSpans() {
	spans := r.tr.snapshot()
	self := selfTimes(spans)
	for metric, name := range map[string]string{
		"audit.scan_ns_per_entry":    "audit.scan",
		"server.ingest_ns_per_entry": "server.ingest",
		"core.feed_ns_per_entry":     "core.feed",
		"wal.append_ns_per_entry":    "wal.append",
		"wal.replay_ns_per_entry":    "wal.replay",
		"ledger.append_ns_per_entry": "ledger.append",
	} {
		r.set(metric, "ns", float64(self[name].Nanoseconds())/float64(r.in.n))
	}
	for metric, name := range map[string]string{
		"automaton.compile_ms":    "automaton.compile",
		"encode.artifact_load_ms": "encode.load",
		"ledger.load_state_ms":    "ledger.load_state",
		"server.restore_ms":       "server.restore",
	} {
		r.set(metric, "ms", float64(self[name])/1e6)
	}
	calls := map[string][]time.Duration{}
	for _, sp := range spans {
		calls[sp.Name] = append(calls[sp.Name], time.Duration(sp.End-sp.Start))
	}
	for metric, name := range map[string]string{
		"server.flush_us":       "server.flush",
		"server.case_get_us":    "server.case_get",
		"ledger.prove_early_us": "ledger.prove_early",
		"ledger.prove_late_us":  "ledger.prove_late",
	} {
		r.set(metric, "us", float64(medianDur(calls[name]))/1e3)
	}
}

// audit: EntryScanner.Scan over the workload's own bodies.
func (r *layerRun) audit(root spanRef) error {
	for _, b := range r.in.bodies {
		err := r.timed("audit.scan", root, func() error {
			sc := audit.NewEntryScanner(bytes.NewReader(b), audit.DecodeOptions{Lenient: true})
			for sc.Scan() {
			}
			return sc.Err()
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// core: Monitor.Feed on the compiled engine, and its symbol cache.
func (r *layerRun) core(root spanRef) error {
	c, err := r.checker()
	if err != nil {
		return err
	}
	mon := core.NewMonitor(c.Clone())
	for _, batch := range r.in.entries {
		err := r.timed("core.feed", root, func() error {
			for _, e := range batch {
				if _, err := mon.Feed(e); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	hits, misses := mon.SymbolCacheStats()
	r.set("core.symcache_hit_ratio", "ratio", float64(hits)/float64(max(1, hits+misses)))
	return nil
}

// automaton and encode: compile each purpose on a fresh checker, save
// the artifact, and load it back.
func (r *layerRun) automaton(root spanRef) error {
	dir, err := r.dir("artifacts")
	if err != nil {
		return err
	}
	states := 0
	for _, p := range r.in.ds.reg.Purposes() {
		c := core.NewChecker(r.in.ds.reg, r.in.ds.roles)
		c.UseCompiled = true
		var dfa *automaton.DFA
		err := r.timed("automaton.compile", root, func() error {
			var err error
			dfa, err = c.EnsureCompiled(p)
			return err
		})
		if core.IsNotCompilable(err) {
			continue
		}
		if err != nil {
			return err
		}
		states += dfa.NumStates()
		if _, err := encode.SaveAutomaton(dir, dfa); err != nil {
			return err
		}
		err = r.timed("encode.load", root, func() error {
			_, err := encode.LoadAutomaton(dir, dfa.Fingerprint)
			return err
		})
		if err != nil {
			return err
		}
	}
	r.set("automaton.states", "count", float64(states))
	return nil
}

// wal: Log.Append with the workload's batch shape under the interval
// fsync policy, then Log.Replay of everything appended.
func (r *layerRun) wal(root spanRef) error {
	dir, err := r.dir("wal")
	if err != nil {
		return err
	}
	l, err := wal.Open(dir, wal.Options{Fsync: wal.FsyncInterval})
	if err != nil {
		return err
	}
	defer l.Close()
	for _, batch := range r.in.entries {
		err := r.timed("wal.append", root, func() error {
			_, _, err := l.Append(batch)
			return err
		})
		if err != nil {
			return err
		}
	}
	if err := l.Sync(); err != nil {
		return err
	}
	_, syncs, _, size := l.Stats()
	replayed := 0
	err = r.timed("wal.replay", root, func() error {
		return l.Replay(1, func(uint64, audit.Entry) error { replayed++; return nil })
	})
	if err != nil {
		return err
	}
	if replayed != r.in.n {
		return fmt.Errorf("replayed %d of %d records", replayed, r.in.n)
	}
	r.set("wal.bytes_per_entry", "B", float64(size)/float64(r.in.n))
	r.set("wal.syncs", "count", float64(syncs))
	return nil
}

// ledger: Append at the default batch size, ProveCase on the earliest
// and the latest case, and an ExportState → LoadState round trip.
func (r *layerRun) ledger(root spanRef) error {
	l, err := ledger.New(ledger.Options{Key: r.in.key})
	if err != nil {
		return err
	}
	defer l.Close()
	lsn := uint64(1)
	for _, batch := range r.in.entries {
		if err := r.timed("ledger.append", root, func() error { return l.Append(batch, lsn) }); err != nil {
			return err
		}
		lsn += uint64(len(batch))
	}
	l.Cut()
	batches, _, _, _ := l.Stats()
	first, last := r.in.entries[0][0].Case, r.in.entries[len(r.in.entries)-1][0].Case
	for _, pc := range []struct{ span, id string }{
		{"ledger.prove_early", first}, {"ledger.prove_late", last},
	} {
		for i := 0; i < 5; i++ {
			err := r.timed(pc.span, root, func() error {
				_, err := l.ProveCase(pc.id)
				return err
			})
			if err != nil {
				return err
			}
		}
	}
	st, err := l.ExportState()
	if err != nil {
		return err
	}
	fresh, err := ledger.New(ledger.Options{Key: r.in.key})
	if err != nil {
		return err
	}
	defer fresh.Close()
	if err := r.timed("ledger.load_state", root, func() error { return fresh.LoadState(st) }); err != nil {
		return err
	}
	r.set("ledger.batches", "count", float64(batches))
	return nil
}

// config is the workloads' durable auditd configuration for in-process
// servers: a WAL, a checkpoint and a signing ledger under dir.
func (r *layerRun) config(dir string) server.Config {
	return server.Config{
		Logger:          slog.New(slog.NewTextHandler(io.Discard, nil)),
		WALDir:          filepath.Join(dir, "wal"),
		CheckpointPath:  filepath.Join(dir, "state.ckpt"),
		CheckpointEvery: time.Hour,
		LedgerKey:       r.in.key,
	}
}

// newServer builds and starts an in-process server.
func (r *layerRun) newServer(cfg server.Config) (*server.Server, error) {
	c, err := r.checker()
	if err != nil {
		return nil, err
	}
	s := server.New(r.in.ds.reg, c, cfg)
	return s, s.Start()
}

// ingest feeds batches through IngestEntries, resuming after a Flush
// when a shard refuses (the in-process 429), and counts the refusals.
func (r *layerRun) ingest(s *server.Server, root spanRef, batches [][]audit.Entry) (int, error) {
	rejects := 0
	for _, batch := range batches {
		for len(batch) > 0 {
			var n int
			var ok bool
			_ = r.timed("server.ingest", root, func() error {
				n, ok = s.IngestEntries(batch)
				return nil
			})
			batch = batch[n:]
			if !ok {
				rejects++
				if rejects > 100000 {
					return 0, fmt.Errorf("ingest makes no progress")
				}
				s.Flush()
			}
		}
	}
	s.Flush()
	return rejects, nil
}

// server: IngestEntries and Flush on the workload's configuration, case
// reads through Handler, and Start over a crash-time checkpoint + WAL.
func (r *layerRun) server(root spanRef) error {
	dir, err := r.dir("server-ingest")
	if err != nil {
		return err
	}
	s, err := r.newServer(r.config(dir))
	if err != nil {
		return err
	}
	rejects, err := r.ingest(s, root, r.in.entries)
	if err != nil {
		s.Crash()
		return err
	}
	r.set("server.rejects", "count", float64(rejects))

	// Flush after each 4-entry ingest, and point reads of those cases.
	h := s.Handler()
	quads := quadsOf(r.in.entries, 2000)
	for _, q := range quads {
		if _, ok := s.IngestEntries(q); !ok {
			s.Flush()
			continue
		}
		_ = r.timed("server.flush", root, func() error { s.Flush(); return nil })
		err := r.timed("server.case_get", root, func() error {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/cases/"+q[0].Case, nil))
			if rec.Code != 200 {
				return fmt.Errorf("GET /v1/cases/%s: %d", q[0].Case, rec.Code)
			}
			return nil
		})
		if err != nil {
			s.Crash()
			return err
		}
	}
	s.Crash()

	// Restore: half the bodies, graceful shutdown (checkpoint), the rest,
	// then a crash; Start on that state is the timed call.
	if dir, err = r.dir("server-restore"); err != nil {
		return err
	}
	cfg := r.config(dir)
	half := len(r.in.entries) / 2
	for i, part := range [][][]audit.Entry{r.in.entries[:half], r.in.entries[half:]} {
		s, err := r.newServer(cfg)
		if err != nil {
			return err
		}
		if _, err := r.ingest(s, spanRef{}, part); err != nil {
			s.Crash()
			return err
		}
		if i == 0 {
			if err := s.Shutdown(r.e.ctx); err != nil {
				return err
			}
		} else {
			s.Crash()
		}
	}
	c, err := r.checker()
	if err != nil {
		return err
	}
	s = server.New(r.in.ds.reg, c, cfg)
	if err := r.timed("server.restore", root, s.Start); err != nil {
		return err
	}
	s.Crash()
	return nil
}

// quadsOf cuts up to n four-entry batches from the input.
func quadsOf(batches [][]audit.Entry, n int) [][]audit.Entry {
	var out [][]audit.Entry
	for _, b := range batches {
		for len(b) >= 4 && len(out) < n {
			out = append(out, b[:4])
			b = b[4:]
		}
	}
	return out
}

// stageRow is one pipeline stage's histogram growth over the traced
// windows, as auditd's /metrics reports it.
type stageRow struct {
	Batches float64 `json:"batches"`
	MeanUS  float64 `json:"mean_us"`
}

// stages reads auditd_stage_latency_seconds growth per stage.
func stages(counters map[string]float64) map[string]stageRow {
	out := map[string]stageRow{}
	for _, st := range []string{"decode", "wal_append", "wal_fsync", "queue_wait", "replay", "ledger_seal"} {
		sum := counters[`auditd_stage_latency_seconds_sum{stage="`+st+`"}`]
		n := counters[`auditd_stage_latency_seconds_count{stage="`+st+`"}`]
		row := stageRow{Batches: n}
		if n > 0 {
			row.MeanUS = sum / n * 1e6
		}
		out[st] = row
	}
	return out
}

// perLayer assembles the traced run's metrics: the in-process layer
// calls, auditd's own stage histograms, the residuals no layer
// explains and the tracing overhead.
func perLayer(e *env, in *layerInput, p, tp *pass, plain, traced map[string]metric, tr *tracer) (map[string]metric, error) {
	tmp, err := e.subdir("layers")
	if err != nil {
		return nil, err
	}
	r := &layerRun{e: e, in: in, tr: tr, out: map[string]metric{}, tmp: tmp}
	if err := r.layers(); err != nil {
		return nil, err
	}

	st := stages(tp.counters)
	e.rec.Stages = st
	for _, name := range []string{"decode", "queue_wait", "replay"} {
		r.set("stage."+name+"_us", "us", st[name].MeanUS)
	}
	r.set("stage.batches", "count", st["replay"].Batches)

	// http.overhead_us: a POST's span as the client saw it minus the
	// handler time auditd's request log records for it. (Stage times are
	// per shard batch and overlap across shards, so their sum can exceed
	// the request; the handler time is what the request waited for.)
	var reqNS float64
	posts := tp.writes
	for _, s := range posts {
		reqNS += float64(s.done.Sub(s.sent).Nanoseconds())
	}
	meanSpan := reqNS / float64(max(1, len(posts)))
	meanHandler := float64(tp.handler.Nanoseconds()) / float64(max(1, tp.posts))
	r.set("http.overhead_us", "us", (meanSpan-meanHandler)/1e3)

	// unattributed_ns_per_entry: the end-to-end time per entry of the
	// write requests minus the self time of every layer an entry passes
	// through.
	var spanNS, lines float64
	for _, s := range p.writes {
		spanNS += float64(s.done.Sub(s.sent).Nanoseconds())
		lines += float64(s.lines)
	}
	e2e := spanNS / max(1, lines)
	layered := r.out["audit.scan_ns_per_entry"].Value + r.out["server.ingest_ns_per_entry"].Value +
		r.out["core.feed_ns_per_entry"].Value
	r.set("unattributed_ns_per_entry", "ns", e2e-layered)

	all := append(append([]sample(nil), p.writes...), p.reads...)
	refused := 0
	for _, s := range all {
		refused += s.refusals + s.transport
	}
	r.set("failed_ratio", "ratio", float64(refused+p.failed)/float64(max(1, p.attempted)))
	r.set("verdict.samples", "count", float64(len(p.writes)))
	r.set("read.samples", "count", float64(len(p.reads)))
	r.set("verdict.p99_ms", "ms", tail(latenciesMS(p.writes)))
	r.set("read.p99_ms", "ms", tail(latenciesMS(p.reads)))
	for _, m := range []string{"verdict_p50_ms", "ingest_entries_per_s"} {
		r.set("trace.overhead."+m, traced[m].Unit, traced[m].Value-plain[m].Value)
	}
	return r.out, nil
}
