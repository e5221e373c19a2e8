// Command auditbench is auditd's end-to-end benchmark. It starts the
// real cmd/auditd binary as a child process, drives it over loopback
// HTTP from at most two connections, checks every output against a
// reference, and prints one JSON result line.
//
// Usage (run.sh builds both binaries first):
//
//	auditbench -root DIR -auditd BIN --workload backfill|recover \
//	           --seed N --seconds S --trace 0|1
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// runs the workload twice, untraced and traced, reports the tracing
// overhead, and adds the per-layer breakdown (see README.md).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// runRecord is written next to the auditd logs of every run.
type runRecord struct {
	Workload     string              `json:"workload"`
	Seed         int64               `json:"seed"`
	Seconds      int                 `json:"seconds"`
	Trace        bool                `json:"trace"`
	NumCPU       int                 `json:"num_cpu"`
	GOMAXPROCS   int                 `json:"gomaxprocs"`
	GoVersion    string              `json:"go_version"`
	Commit       string              `json:"commit"`
	Boots        []bootRecord        `json:"boots"`
	Cases        int                 `json:"cases"`
	NonCompliant int                 `json:"non_compliant"`
	Injected     []injectedCase      `json:"injected"`
	Stages       map[string]stageRow `json:"stages,omitempty"`
	SetupS       []float64           `json:"setup_s"`
	RecoveryS    []float64           `json:"recovery_s"`
	// StealShare is the share of the machine's CPU time its hypervisor
	// gave to other guests during the run: a slow run with a high share
	// was slowed by the host, not by the code.
	StealShare float64  `json:"host_steal_share"`
	Problems   []string `json:"problems,omitempty"`
}

type bootRecord struct {
	Tag  string   `json:"tag"`
	Args []string `json:"args"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		root     = flag.String("root", ".", "repository checkout the benchmark runs in")
		auditd   = flag.String("auditd", "", "auditd binary")
		name     = flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
		seed     = flag.Int64("seed", 1, "workload seed")
		seconds  = flag.Int("seconds", 10, "run length in seconds: one measured round per 2 s")
		traceArg = flag.Int("trace", 0, "1 = traced run with the per-layer breakdown")
	)
	flag.Parse()
	// Lanes wait in nanosleep(2), a blocking syscall that holds its P
	// until the runtime's monitor retakes it; spare Ps keep the HTTP
	// transport's goroutines running meanwhile.
	runtime.GOMAXPROCS(max(8, runtime.NumCPU()))
	// The generator keeps every sent case and proof in memory; fewer
	// collections leave more CPU to auditd.
	debug.SetGCPercent(400)
	res, err := run(*root, *auditd, *name, *seed, *seconds, *traceArg == 1)
	stopAll()
	if err != nil {
		fmt.Fprintln(os.Stderr, "auditbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "auditbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func run(root, auditd, name string, seed int64, seconds int, traced bool) (*result, error) {
	drive, ok := workloads[name]
	switch {
	case !ok:
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames(), ", "))
	case auditd == "":
		return nil, fmt.Errorf("-auditd is required")
	case seconds < 1:
		return nil, fmt.Errorf("--seconds must be at least 1")
	}
	dir := filepath.Join(root, ".bench_runs", name)
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	e := &env{ctx: ctx, auditd: auditd, dir: dir, seed: seed, window: time.Duration(seconds) * time.Second, t0: time.Now()}
	e.rec = &runRecord{
		Workload: name, Seed: seed, Seconds: seconds, Trace: traced,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit(root),
	}

	total0, steal0 := cpuTimes()
	p, err := drive(e, false, nil)
	if err != nil {
		return nil, err
	}
	if err := writeSamples(filepath.Join(dir, "samples.csv"), p); err != nil {
		return nil, err
	}
	e.rec.SetupS, e.rec.RecoveryS = secondsOf(p.setup), secondsOf(p.recovery)
	metrics := endToEnd(p)
	problems := p.problems
	attempted, failed := p.attempted, p.failed
	if traced {
		tr := newTracer()
		tp, err := drive(e, true, tr)
		if err != nil {
			return nil, err
		}
		problems = append(problems, tp.problems...)
		attempted += tp.attempted
		failed += tp.failed
		in, err := newLayerInput(e, layerLines)
		if err != nil {
			return nil, err
		}
		lm, err := perLayer(e, in, p, tp, metrics, endToEnd(tp), tr)
		if err != nil {
			return nil, err
		}
		metrics = lm
		if err := writeSpans(filepath.Join(dir, "spans.jsonl"), tr.snapshot()); err != nil {
			return nil, err
		}
	}
	for name, m := range metrics {
		if math.IsInf(m.Value, 0) || math.IsNaN(m.Value) {
			problems = append(problems, name+" is not finite")
			metrics[name] = metric{-1, m.Unit}
		}
	}
	total1, steal1 := cpuTimes()
	e.rec.StealShare = (steal1 - steal0) / max(1, total1-total0)
	e.rec.Problems = problems
	for _, msg := range problems {
		fmt.Fprintln(os.Stderr, "auditbench: check failed:", msg)
	}
	if err := writeJSON(filepath.Join(dir, "run.json"), e.rec); err != nil {
		return nil, err
	}
	cleanData(dir)
	return &result{Correct: len(problems) == 0, Attempted: attempted, Failed: failed, Metrics: metrics}, nil
}

// commit names the checked-out revision when the checkout is a git
// repository.
func commit(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown (not a git checkout)"
	}
	return strings.TrimSpace(string(out))
}

// cpuTimes reads the machine's total and stolen CPU time, in clock
// ticks, from the first line of /proc/stat (zeros when it is missing).
func cpuTimes() (total, steal float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	// cpu user nice system idle iowait irq softirq steal [guest guest_nice]:
	// guest time is already counted in user.
	for i := 1; i < len(fields) && i <= 8; i++ {
		v, _ := strconv.ParseFloat(fields[i], 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return total, steal
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// cleanData removes the WAL, checkpoint and artifact directories of a
// finished run, keeping the logs, spans and run record.
func cleanData(dir string) {
	entries, _ := os.ReadDir(dir)
	for _, de := range entries {
		if de.IsDir() {
			_ = os.RemoveAll(filepath.Join(dir, de.Name()))
		}
	}
}

// writeSamples stores every timed request of a pass as CSV: kind, size,
// send time relative to the first request and latency.
func writeSamples(path string, p *pass) error {
	var b strings.Builder
	b.WriteString("kind,lines,bytes,sent_ms,latency_ms,ok\n")
	var t0 time.Time
	for _, set := range [][]sample{p.writes, p.reads} {
		for _, s := range set {
			if t0.IsZero() || s.sent.Before(t0) {
				t0 = s.sent
			}
		}
	}
	for _, set := range [][]sample{p.writes, p.reads} {
		for _, s := range set {
			kind := "write"
			if s.kind == opRead {
				kind = "read"
			}
			fmt.Fprintf(&b, "%s,%d,%d,%.3f,%.3f,%t\n", kind, s.lines, s.bytes,
				float64(s.sent.Sub(t0))/1e6, float64(s.latency())/1e6, s.ok)
		}
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}
