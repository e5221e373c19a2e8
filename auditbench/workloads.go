package main

import (
	"context"
	"crypto/ed25519"
	"encoding/hex"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"
)

// Workload sizing. Rates are per second.
const (
	bulkLines = 1000 // lines per import body
	openCases = 300  // concurrently open cases in a stream

	// A run is cut into rounds, one per roundSeconds of --seconds, and
	// every round takes its share of every metric's samples: first boots,
	// crash reboots, an import and proof reads. A slow phase of a shared
	// host then moves a few samples of each metric, and their medians
	// hold, instead of moving every sample of one metric.
	roundSeconds     = 2
	setupPerRound    = 5 // first boots timed per round
	recoveryPerRound = 2 // crash reboots timed per round

	backfillEpoch     = 200000 // lines per backfill round
	backfillWarmEpoch = 50000  // lines in the untimed warm-up round
	recoverPartOne    = 30000  // lines imported before the graceful restart
	recoverPartTwo    = 10000  // lines imported after it, before the SIGKILL
	recoverRoundLines = 40000  // lines imported per recover round

	proofWindow = 500 * time.Millisecond // of back-to-back proof reads per round
	// proofPool is how many of the latest completed cases a proof read
	// draws from. A proof carries every root from the case's first batch
	// to the head, so reading older cases would read ever larger proofs.
	proofPool = 256

	// walSettle is how long the crash state waits before its SIGKILL:
	// five of auditd's default 100 ms WAL flush intervals. Under the
	// interval fsync policy a SIGKILL inside one loses accepted lines, by
	// design.
	walSettle = 500 * time.Millisecond
)

// env is one benchmark invocation's context.
type env struct {
	ctx    context.Context
	auditd string
	dir    string // run directory (auditd logs, data, run record)
	seed   int64
	window time.Duration
	rec    *runRecord
	boots  int
	t0     time.Time
}

// pass is one end-to-end execution of a workload.
type pass struct {
	setup     []time.Duration
	recovery  []time.Duration
	writes    []sample
	reads     []sample
	entries   int           // lines accepted in the timed windows
	ingest    time.Duration // first POST sent → final ?wait=1 returned
	rssMB     float64
	counters  map[string]float64 // /metrics growth over the measured windows
	handler   time.Duration      // auditd's logged handler time for the windows' POSTs
	posts     int                // POSTs in that log
	problems  []string           // output-check failures
	attempted int
	failed    int
}

// logf reports progress on stderr, stamped with the run's elapsed time.
func (e *env) logf(format string, a ...any) {
	fmt.Fprintf(os.Stderr, "auditbench %6.1fs: %s\n", time.Since(e.t0).Seconds(), fmt.Sprintf(format, a...))
}

// boot starts auditd with args, logging to a numbered file in the run
// directory, and records the exact flags.
func (e *env) boot(tag string, args []string) (*daemon, error) {
	e.boots++
	e.logf("boot %d (%s)", e.boots, tag)
	e.rec.Boots = append(e.rec.Boots, bootRecord{Tag: tag, Args: args})
	return startDaemon(e.auditd, args, filepath.Join(e.dir, fmt.Sprintf("auditd-%02d-%s.log", e.boots, tag)))
}

// subdir creates a fresh directory under the run directory.
func (e *env) subdir(name string) (string, error) {
	p := filepath.Join(e.dir, name)
	if err := os.RemoveAll(p); err != nil {
		return "", err
	}
	return p, os.MkdirAll(p, 0o755)
}

// ledgerKey writes a seed-derived ed25519 seed where auditd -ledger-key
// reads it and returns the public key proofs are pinned to.
func (e *env) ledgerKey() (string, ed25519.PublicKey, error) {
	key := ledgerSeed(e.seed)
	path := filepath.Join(e.dir, "ledger.key")
	if err := os.WriteFile(path, []byte(hex.EncodeToString(key.Seed())+"\n"), 0o600); err != nil {
		return "", nil, err
	}
	return path, key.Public().(ed25519.PublicKey), nil
}

// ledgerSeed derives the run's ledger signing key from the seed.
func ledgerSeed(seed int64) ed25519.PrivateKey {
	b := make([]byte, ed25519.SeedSize)
	rand.New(rand.NewSource(seed)).Read(b)
	return ed25519.NewKeyFromSeed(b)
}

// rounds is how many timed rounds the run's --seconds buy.
func (e *env) rounds() int { return max(2, int(e.window/(roundSeconds*time.Second))) }

// firstBoots times n first boots, each on fresh state from mkArgs.
func (e *env) firstBoots(p *pass, n int, mkArgs func() ([]string, error)) error {
	for i := 0; i < n; i++ {
		args, err := mkArgs()
		if err != nil {
			return err
		}
		d, err := e.boot("setup", args)
		if err != nil {
			return err
		}
		p.setup = append(p.setup, d.ready)
		d.stop(syscall.SIGKILL)
	}
	return nil
}

// crashReboots SIGKILLs d (when running) and reboots n times, timing
// SIGKILL → /readyz 200 and checking the restored state after every
// reboot. reset, when set, restores the crash state before each reboot,
// untimed. The last reboot keeps running.
func (e *env) crashReboots(p *pass, n int, d *daemon, args []string, reset func() error, verify func(*daemon) []string) (*daemon, error) {
	for i := 0; i < n; i++ {
		t0 := time.Now()
		d.stop(syscall.SIGKILL)
		killed := time.Since(t0)
		if reset != nil {
			if err := reset(); err != nil {
				return nil, err
			}
		}
		var err error
		if d, err = e.boot("recover", args); err != nil {
			return nil, err
		}
		p.recovery = append(p.recovery, killed+d.ready)
		p.problems = append(p.problems, verify(d)...)
	}
	return d, nil
}

// measure runs the lanes against d, brackets them with /metrics scrapes
// and reads the handler time auditd logged for their POSTs. Every write
// is a ?wait=1 POST, so when the lanes end every accepted line has its
// verdict, and the returned time covers them all.
func (e *env) measure(p *pass, d *daemon, window time.Duration, loads ...*laneLoad) (time.Duration, error) {
	ctl := newClient()
	before, err := scrape(e.ctx, ctl, d.url("/metrics"))
	if err != nil {
		return 0, err
	}
	off, err := d.logSize()
	if err != nil {
		return 0, err
	}
	// The generator collects its garbage before the window and not
	// during it, so its collector does not compete with auditd for the
	// CPUs while requests are timed.
	runtime.GC()
	gc := debug.SetGCPercent(-1)
	start := time.Now()
	p.failed += runLanes(e.ctx, start.Add(window), loads...)
	elapsed := time.Since(start)
	debug.SetGCPercent(gc)
	var writes, reads, posts int
	for _, ll := range loads {
		for _, s := range ll.l.samples() {
			p.attempted++
			if s.kind == opWrite {
				p.writes = append(p.writes, s)
				writes++
			} else {
				p.reads = append(p.reads, s)
				reads++
			}
		}
		posts += ll.l.posts
	}
	after, err := scrape(e.ctx, ctl, d.url("/metrics"))
	if err != nil {
		return 0, err
	}
	if p.counters == nil {
		p.counters = map[string]float64{}
	}
	for k, v := range after {
		p.counters[k] += v - before[k]
	}
	handler, err := d.postTime(off, posts)
	if err != nil {
		return 0, err
	}
	p.handler += handler
	p.posts += posts
	rss, err := d.peakRSSMB()
	p.rssMB = max(p.rssMB, rss)
	e.logf("window done: %d writes, %d reads in %v", writes, reads, elapsed)
	return elapsed, err
}

// reference replays everything st emitted through the interpreter and
// records the run's ground truth.
func (e *env) reference(ds *dataset, st *stream) ([]caseView, error) {
	want, err := referenceViews(ds, st.sent())
	if err != nil {
		return nil, err
	}
	e.rec.Cases += len(want)
	e.rec.Injected = append(e.rec.Injected, st.truth()...)
	for _, v := range want {
		if v.Outcome != "compliant" {
			e.rec.NonCompliant++
		}
	}
	return want, nil
}

// checkVerdicts compares auditd's final verdicts with the reference.
func (e *env) checkVerdicts(p *pass, d *daemon, want []caseView) error {
	got, _, err := fetchCases(e.ctx, newClient(), d.url(""))
	if err != nil {
		return err
	}
	p.problems = append(p.problems, compareViews(got, want)...)
	return nil
}

// sameState returns a verifier that the restored /v1/cases (and, when
// roots is set, /v1/roots) match what the server served before.
func (e *env) sameState(cases, roots []byte) func(*daemon) []string {
	return func(d *daemon) []string {
		c := newClient()
		_, got, err := fetchCases(e.ctx, c, d.url(""))
		if err != nil {
			return []string{err.Error()}
		}
		bad := sameBytes("/v1/cases", got, cases)
		if roots != nil {
			r, err := getBody(e.ctx, c, d.url("/v1/roots"))
			if err != nil {
				return append(bad, err.Error())
			}
			bad = append(bad, sameBytes("/v1/roots", r, roots)...)
		}
		return bad
	}
}

// durableFlags is the durable configuration both workloads run: a WAL and
// a signing ledger under data, and an artifact cache in cache. Traced
// passes time every ingest batch.
func durableFlags(data, cache, keyPath string, traced bool) []string {
	args := []string{"-builtin", "hospital",
		"-wal-dir", filepath.Join(data, "wal"), "-ledger", "-ledger-key", keyPath,
		"-automata-dir", cache}
	if traced {
		args = append(args, "-stage-sample", "1")
	}
	return args
}

// backfill: closed-loop bulk imports of a seeded hospital log into the
// durable configuration. Each round imports backfillEpoch lines into a
// freshly booted auditd, so memory and restart time stay bounded, reads
// proofs on the second connection, reboots twice after a SIGKILL and
// times first boots on empty state with a cold artifact cache.
func (e *env) backfill(traced bool, tr *tracer) (*pass, error) {
	ds, err := hospitalDataset()
	if err != nil {
		return nil, err
	}
	keyPath, pub, err := e.ledgerKey()
	if err != nil {
		return nil, err
	}
	fresh := func(name string) func() ([]string, error) {
		return func() ([]string, error) {
			data, err := e.subdir(name)
			return durableFlags(data, filepath.Join(data, "automata"), keyPath, traced), err
		}
	}
	p := &pass{}
	for round := 0; round <= e.rounds(); round++ {
		// Round 0 is a shorter warm-up: imported and checked, not timed.
		warm := round == 0
		rp, lines := p, backfillEpoch
		if warm {
			rp, lines = &pass{}, backfillWarmEpoch
		}
		seed := e.seed + int64(round)*1_000_003
		st := newStream(ds, seed, openCases)
		bodies := st.batches(lines)
		want, err := e.reference(ds, st)
		if err != nil {
			return nil, err
		}
		args, err := fresh("backfill")()
		if err != nil {
			return nil, err
		}
		d, err := e.boot("round", args)
		if err != nil {
			return nil, err
		}
		err = e.importThenProve(rp, d, tr, bodies, pub, seed)
		if err == nil {
			err = e.checkVerdicts(rp, d, want)
		}
		if err != nil || warm {
			d.stop(syscall.SIGKILL)
			if err != nil {
				return nil, err
			}
			p.problems = append(p.problems, rp.problems...)
			p.attempted += rp.attempted
			p.failed += rp.failed
			continue
		}
		_, cases, err := fetchCases(e.ctx, newClient(), d.url(""))
		if err == nil {
			d, err = e.crashReboots(p, recoveryPerRound, d, args, nil, e.sameState(cases, nil))
		}
		d.stop(syscall.SIGKILL)
		if err == nil {
			err = e.firstBoots(p, setupPerRound, fresh("setup"))
		}
		if err != nil {
			return nil, err
		}
	}
	return p, nil
}

// recover: crash recovery on the durable configuration with checkpoints
// and a warm artifact cache. Part one is imported, auditd restarts
// gracefully (checkpoint written, WAL truncated), part two is imported,
// and auditd is SIGKILLed; that crash state is kept. Each round times
// first boots, then reboots twice from a fresh copy of the crash state,
// each reboot checked byte for byte against an uncrashed reference's
// verdicts and root chain, and the last reboot resumes the import and
// serves proofs.
func (e *env) recover(traced bool, tr *tracer) (*pass, error) {
	p := &pass{}
	ds, err := hospitalDataset()
	if err != nil {
		return nil, err
	}
	keyPath, pub, err := e.ledgerKey()
	if err != nil {
		return nil, err
	}
	cache, err := e.subdir("recover-automata")
	if err != nil {
		return nil, err
	}
	durable := func(name string) ([]string, error) {
		data, err := e.subdir(name)
		return append(durableFlags(data, cache, keyPath, traced), "-ledger-wait", "0",
			"-checkpoint", filepath.Join(data, "state.ckpt"), "-checkpoint-every", "1h"), err
	}
	// Fill the artifact cache (untimed).
	primeArgs, err := durable("recover-prime")
	if err != nil {
		return nil, err
	}
	prime, err := e.boot("prime", primeArgs)
	if err != nil {
		return nil, err
	}
	prime.stop(syscall.SIGKILL)

	st := newStream(ds, e.seed, openCases)
	one, two := st.batches(recoverPartOne), st.batches(recoverPartTwo)
	// The uncrashed reference: part one, graceful restart, part two.
	ctlArgs, err := durable("recover-control")
	if err != nil {
		return nil, err
	}
	ctl, err := e.boot("control", ctlArgs)
	if err == nil {
		ctl, err = e.importWithRestart(p, ctl, ctlArgs, tr, one, two)
	}
	var cases, roots []byte
	if err == nil {
		if _, cases, err = fetchCases(e.ctx, newClient(), ctl.url("")); err == nil {
			roots, err = getBody(e.ctx, newClient(), ctl.url("/v1/roots"))
		}
	}
	ctl.stop(syscall.SIGKILL)
	if err != nil {
		return nil, err
	}
	// The crash state: the same, then SIGKILL; a pristine copy is kept.
	args, err := durable("recover-crash")
	if err != nil {
		return nil, err
	}
	d, err := e.boot("crash", args)
	if err == nil {
		d, err = e.importWithRestart(p, d, args, tr, one, two)
	}
	time.Sleep(walSettle)
	d.stop(syscall.SIGKILL)
	crashDir := filepath.Join(e.dir, "recover-crash")
	if err == nil {
		err = copyTree(crashDir, crashDir+".orig")
	}
	if err != nil {
		return nil, err
	}
	reset := func() error { return copyTree(crashDir+".orig", crashDir) }

	for round := 0; round < e.rounds(); round++ {
		// Each round resumes with its own continuation of the log, so the
		// proofs read come from a different set of cases every round.
		rs := st.fork(e.seed + int64(round+1)*1_000_003)
		more := rs.batches(recoverRoundLines)
		want, err := e.reference(ds, rs)
		if err != nil {
			return nil, err
		}
		err = e.firstBoots(p, setupPerRound, func() ([]string, error) { return durable("setup") })
		if err != nil {
			return nil, err
		}
		d, err := e.crashReboots(p, recoveryPerRound, nil, args, reset, e.sameState(cases, roots))
		if err == nil {
			err = e.importThenProve(p, d, tr, more, pub, e.seed+int64(round))
		}
		if err == nil {
			err = e.checkVerdicts(p, d, want)
		}
		d.stop(syscall.SIGKILL)
		if err != nil {
			return nil, err
		}
	}
	return p, nil
}

// importThenProve imports the bodies into d on one connection (closed
// loop, timed), then reads proofs of recently completed cases back to
// back on a second connection for proofWindow, and verifies every proof
// offline. Read during the import, proof latency mostly measured how
// long the proof queued for the ledger lock behind it.
func (e *env) importThenProve(p *pass, d *daemon, tr *tracer, bodies []batch, pub ed25519.PublicKey, seed int64) error {
	done := newPicker(seed + 1)
	took, err := e.measure(p, d, 0, importer(newLane(d.url(""), tr), bodies, done, &p.entries))
	if err != nil {
		return err
	}
	p.ingest += took
	proofs := &proofCheck{pub: pub}
	reader := &laneLoad{l: newLane(d.url(""), tr),
		read: func() (string, func([]byte), bool) {
			c, ok := done.pick()
			if !ok {
				return "", nil, false
			}
			return "/v1/proofs/" + c.id, proofs.keep(c), true
		}}
	if _, err := e.measure(p, d, proofWindow, reader); err != nil {
		return err
	}
	p.problems = append(p.problems, proofs.verify()...)
	e.logf("%d proofs checked", len(proofs.bundles))
	return nil
}

// importWithRestart imports part one into d, restarts auditd
// gracefully (SIGTERM writes the checkpoint and truncates the WAL) and
// imports part two into the new process, which it returns. Neither
// import is timed.
func (e *env) importWithRestart(p *pass, d *daemon, args []string, tr *tracer, one, two []batch) (*daemon, error) {
	if err := e.send(p, d, tr, one); err != nil {
		d.stop(syscall.SIGKILL)
		return nil, err
	}
	d.stop(syscall.SIGTERM)
	d, err := e.boot("restart", args)
	if err != nil {
		return nil, err
	}
	if err := e.send(p, d, tr, two); err != nil {
		d.stop(syscall.SIGKILL)
		return nil, err
	}
	return d, nil
}

// copyTree replaces dst with a copy of the directory tree src.
func copyTree(src, dst string) error {
	if err := os.RemoveAll(dst); err != nil {
		return err
	}
	return filepath.WalkDir(src, func(path string, de fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		to := filepath.Join(dst, rel)
		if de.IsDir() {
			return os.MkdirAll(to, 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(to, b, 0o600)
	})
}

// send imports the bodies into d, untimed.
func (e *env) send(p *pass, d *daemon, tr *tracer, bodies []batch) error {
	var entries int
	ll := importer(newLane(d.url(""), tr), bodies, newPicker(0), &entries)
	failed := runLanes(e.ctx, time.Now(), ll)
	p.attempted += len(ll.l.samples())
	p.failed += failed
	if failed > 0 {
		return fmt.Errorf("%d of %d untimed imports failed", failed, len(bodies))
	}
	return nil
}

// workloads maps names to their drivers.
var workloads = map[string]func(e *env, traced bool, tr *tracer) (*pass, error){
	"backfill": (*env).backfill,
	"recover":  (*env).recover,
}

func workloadNames() []string {
	var out []string
	for k := range workloads {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
