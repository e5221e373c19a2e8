package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one auditd child process.
type daemon struct {
	cmd     *exec.Cmd
	addr    string
	log     *os.File
	logPath string
	ready   time.Duration // exec → first /readyz 200
	done    chan struct{}
}

// bootTimeout bounds exec → /readyz 200; recovery of the largest
// history the benchmark builds stays far below it.
const bootTimeout = 60 * time.Second

// procs tracks every live child so a failing run still stops them all.
var procs = map[*daemon]bool{}

// startDaemon execs auditd with args plus a loopback listener, sends its
// stderr to logPath and waits for /readyz to answer 200.
func startDaemon(bin string, args []string, logPath string) (*daemon, error) {
	addrFile := logPath + ".addr"
	_ = os.Remove(addrFile)
	lf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	full := append(append([]string(nil), args...), "-addr", "127.0.0.1:0", "-addr-file", addrFile)
	cmd := exec.Command(bin, full...)
	cmd.Stdout, cmd.Stderr = lf, lf
	d := &daemon{cmd: cmd, log: lf, logPath: logPath, done: make(chan struct{})}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		lf.Close()
		return nil, err
	}
	procs[d] = true
	go func() { _ = cmd.Wait(); close(d.done) }()

	client := &http.Client{Timeout: time.Second}
	deadline := start.Add(bootTimeout)
	for time.Now().Before(deadline) {
		select {
		case <-d.done:
			d.stop(syscall.SIGKILL)
			return nil, fmt.Errorf("auditd exited during boot (see %s)", logPath)
		default:
		}
		if d.addr == "" {
			if b, err := os.ReadFile(addrFile); err == nil && bytes.HasSuffix(b, []byte("\n")) {
				d.addr = strings.TrimSpace(string(b))
			}
		}
		if d.addr != "" {
			resp, err := client.Get("http://" + d.addr + "/readyz")
			if err == nil {
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					d.ready = time.Since(start)
					return d, nil
				}
			}
		}
		sleepFor(500 * time.Microsecond)
	}
	d.stop(syscall.SIGKILL)
	return nil, fmt.Errorf("auditd not ready after %v (see %s)", bootTimeout, logPath)
}

// stop signals the process and waits for it to exit (SIGKILL after 60s
// if a graceful signal is ignored).
func (d *daemon) stop(sig syscall.Signal) {
	if d == nil || !procs[d] {
		return
	}
	_ = d.cmd.Process.Signal(sig)
	select {
	case <-d.done:
	case <-time.After(60 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
	d.log.Close()
	delete(procs, d)
}

// stopAll kills every child still running.
func stopAll() {
	for d := range procs {
		d.stop(syscall.SIGKILL)
	}
}

// url joins the daemon's base URL and a path.
func (d *daemon) url(path string) string { return "http://" + d.addr + path }

// peakRSSMB reads VmHWM (peak resident set) from /proc/<pid>/status.
func (d *daemon) peakRSSMB() (float64, error) {
	f, err := os.Open(filepath.Join("/proc", strconv.Itoa(d.cmd.Process.Pid), "status"))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM missing from /proc status")
}

// getBody GETs a path and returns the body of a 200 answer.
func getBody(ctx context.Context, c *http.Client, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return b, nil
}

// scrape parses a Prometheus text exposition into series → value.
func scrape(ctx context.Context, c *http.Client, url string) (map[string]float64, error) {
	b, err := getBody(ctx, c, url)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(b), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, nil
}

// newClient returns a client holding at most one connection, so a lane
// is exactly one TCP connection to auditd.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
		DisableCompression:  true,
	}}
}

// logSize is where the next line of auditd's log will start.
func (d *daemon) logSize() (int64, error) {
	st, err := os.Stat(d.logPath)
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// postTime sums the handler time auditd's request log records for the
// first n POST /v1/events lines written after offset off. auditd may log
// a request just after answering it, so it waits briefly for all n.
func (d *daemon) postTime(off int64, n int) (time.Duration, error) {
	deadline := time.Now().Add(2 * time.Second)
	for {
		total, seen, err := d.postLines(off, n)
		switch {
		case err != nil:
			return 0, err
		case seen == n:
			return total, nil
		case time.Now().After(deadline):
			return 0, fmt.Errorf("request log holds %d of %d POSTs (see %s)", seen, n, d.logPath)
		}
		sleepFor(time.Millisecond)
	}
}

// postLines parses up to n POST /v1/events request-log lines after off.
func (d *daemon) postLines(off int64, n int) (time.Duration, int, error) {
	f, err := os.Open(d.logPath)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	b, err := io.ReadAll(io.NewSectionReader(f, off, 1<<62))
	if err != nil {
		return 0, 0, err
	}
	var total float64
	seen := 0
	for _, line := range strings.SplitAfter(string(b), "\n") {
		if seen == n || !strings.HasSuffix(line, "\n") {
			break
		}
		if !strings.Contains(line, "msg=request method=POST path=/v1/events ") {
			continue
		}
		_, rest, ok := strings.Cut(line, " dur_ms=")
		if !ok {
			continue
		}
		ms, err := strconv.ParseFloat(strings.Fields(rest)[0], 64)
		if err != nil {
			return 0, 0, fmt.Errorf("request log: %w", err)
		}
		total += ms
		seen++
	}
	return time.Duration(total * 1e6), seen, nil
}
