package main

import (
	"bytes"
	"context"
	"crypto/ed25519"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/ledger"
)

func streamBytes(t *testing.T, ds *dataset, seed int64, lines int) []byte {
	t.Helper()
	b, _ := newStream(ds, seed, openCases).body(lines)
	return b
}

func TestSameSeedSameBytes(t *testing.T) {
	a, err := hospitalDataset()
	if err != nil {
		t.Fatal(err)
	}
	b, err := hospitalDataset()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(streamBytes(t, a, 5, 5000), streamBytes(t, b, 5, 5000)) {
		t.Fatal("seed 5 produced different hospital streams")
	}
	if bytes.Equal(streamBytes(t, a, 5, 5000), streamBytes(t, b, 6, 5000)) {
		t.Fatal("seeds 5 and 6 produced the same stream")
	}

}

// The generator's spliced lines must be exactly what the repository's
// own codec writes for the same entry, and its ground truth must rebuild
// every case exactly as sent, also after a fork.
func TestEmittedLinesMatchCodec(t *testing.T) {
	ds, err := hospitalDataset()
	if err != nil {
		t.Fatal(err)
	}
	st := newStream(ds, 7, 50)
	body, _ := st.body(3000)
	// Two forks of one stream continue it independently of each other.
	f, g := st.fork(8), st.fork(9)
	moreF, _ := f.body(2000)
	moreG, _ := g.body(2000)
	checkSent(t, st, body)
	checkSent(t, f, append(append([]byte(nil), body...), moreF...))
	checkSent(t, g, append(append([]byte(nil), body...), moreG...))
	if len(st.injected) == 0 {
		t.Fatal("no injected cases recorded")
	}
}

func checkSent(t *testing.T, st *stream, body []byte) {
	t.Helper()
	entries, q, err := audit.DecodeJSONLEntries(bytes.NewReader(body), audit.DecodeOptions{})
	if err != nil || len(q.Records) > 0 {
		t.Fatalf("decode: %v, %d quarantined", err, len(q.Records))
	}
	var again bytes.Buffer
	for _, e := range entries {
		if err := audit.AppendJSONL(&again, e); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(body, again.Bytes()) {
		t.Fatal("spliced lines differ from audit.AppendJSONL")
	}
	byCase := map[string][]audit.Entry{}
	for _, e := range entries {
		byCase[e.Case] = append(byCase[e.Case], e)
	}
	sent := st.sent()
	if len(sent) != len(byCase) {
		t.Fatalf("%d cases recorded, %d sent", len(sent), len(byCase))
	}
	for _, c := range sent {
		got := c.entries(len(c.seqs))
		want := byCase[c.id]
		if len(got) != len(want) {
			t.Fatalf("case %s: %d entries recorded, %d sent", c.id, len(got), len(want))
		}
		for i := range got {
			if got[i].String() != want[i].String() || !got[i].Time.Equal(want[i].Time) {
				t.Fatalf("case %s entry %d: recorded %v, sent %v", c.id, i, got[i], want[i])
			}
		}
	}
}

// A server that stalls once must show the stall as the latency of the
// request it stalled, and a reader must stop at the end of its window.
func TestStalledServerShowsAsLatency(t *testing.T) {
	const stall = 60 * time.Millisecond
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == 5 {
			time.Sleep(stall)
		}
		w.Write([]byte(`{}`))
	}))
	defer srv.Close()

	l := newLane(srv.URL, nil)
	ll := &laneLoad{l: l, read: func() (string, func([]byte), bool) { return "/v1/cases/X-1", nil, true }}
	end := time.Now().Add(2 * stall)
	ll.run(context.Background(), end)
	ss := l.samples()
	if len(ss) < 6 || ll.failed != 0 {
		t.Fatalf("sent %d requests (%d failed), want more than 5", len(ss), ll.failed)
	}
	if ss[4].latency() < stall {
		t.Fatalf("stalled request latency %v, want ≥ %v", ss[4].latency(), stall)
	}
	for i, s := range ss {
		if !s.sent.Before(end) {
			t.Errorf("request %d sent %v after the window closed", i, s.sent.Sub(end))
		}
	}
}

// A proof passes only for the case it was asked for, and only when it
// proves every entry sent for that case.
func TestProofMustMatchRequest(t *testing.T) {
	ds, err := hospitalDataset()
	if err != nil {
		t.Fatal(err)
	}
	st := newStream(ds, 9, 20)
	body, completed := st.body(2000)
	if len(completed) < 2 {
		t.Fatalf("%d cases completed, want 2", len(completed))
	}
	entries, _, err := audit.DecodeJSONLEntries(bytes.NewReader(body), audit.DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	key := ledgerSeed(9)
	l, err := ledger.New(ledger.Options{Key: key})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(entries, 1); err != nil {
		t.Fatal(err)
	}
	l.Cut()
	a, b := completed[0], completed[1]
	proof, err := l.ProveCase(a.id)
	if err != nil {
		t.Fatal(err)
	}
	bundle, err := json.Marshal(map[string]any{"case": a.id, "outcome": "compliant", "proof": proof})
	if err != nil {
		t.Fatal(err)
	}
	pc := &proofCheck{pub: key.Public().(ed25519.PublicKey)}
	if err := pc.verifyOne(servedProof{a, bundle}); err != nil {
		t.Fatalf("valid proof of %s refused: %v", a.id, err)
	}
	if err := pc.verifyOne(servedProof{b, bundle}); err == nil {
		t.Errorf("proof of %s accepted for %s", a.id, b.id)
	}
	more := *a
	more.seqs = append(append([]int64(nil), a.seqs...), a.seqs[len(a.seqs)-1]+1)
	more.tmpl = &template{entries: append(append([]audit.Entry(nil), a.tmpl.entries...), a.tmpl.entries[0])}
	if err := pc.verifyOne(servedProof{&more, bundle}); err == nil {
		t.Errorf("proof missing a sent entry of %s accepted", a.id)
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// Every metric the benchmark emits is declared in BENCHMARK.json, and
// every declared metric is emitted, under a well-formed name.
func TestMetricNames(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	ok := sample{kind: opWrite, sent: now, done: now.Add(time.Millisecond), lines: 4, ok: true}
	p := &pass{
		setup: []time.Duration{time.Second}, recovery: []time.Duration{time.Second},
		writes: []sample{ok}, reads: []sample{{kind: opRead, sent: now, done: now.Add(time.Millisecond), ok: true}},
		entries: 4, ingest: time.Second, rssMB: 1, counters: map[string]float64{},
	}
	e := &env{ctx: context.Background(), dir: t.TempDir(), seed: 3, t0: now, rec: &runRecord{}}
	in, err := newLayerInput(e, 400)
	if err != nil {
		t.Fatal(err)
	}
	e2e := endToEnd(p)
	layers, err := perLayer(e, in, p, p, e2e, e2e, newTracer())
	if err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got map[string]metric, want []struct{ Name, Unit string }) {
		names := map[string]bool{}
		for _, m := range want {
			names[m.Name] = true
			g, ok := got[m.Name]
			switch {
			case !metricName.MatchString(m.Name):
				t.Errorf("%s metric %q: malformed name", kind, m.Name)
			case !ok:
				t.Errorf("%s metric %q declared but not emitted", kind, m.Name)
			case g.Unit != m.Unit:
				t.Errorf("%s metric %q: emitted unit %q, declared %q", kind, m.Name, g.Unit, m.Unit)
			}
		}
		for name := range got {
			if !names[name] {
				t.Errorf("%s metric %q emitted but not declared", kind, name)
			}
		}
	}
	check("end_to_end", e2e, spec.EndToEnd)
	check("per_layer", layers, spec.PerLayer)
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "p", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "c", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "c", Start: 20, End: 50},
		{ID: 4, Parent: 1, Name: "c", Start: 80, End: 120},
	}
	got := selfTimes(spans)
	// Children cover [10,50) and [80,100) of the parent.
	if got["p"] != 40 || got["c"] != 90 {
		t.Fatalf("self times %v, want p=40 c=90", got)
	}
}

func TestTailNeedsTenBeyond(t *testing.T) {
	v := make([]float64, 200)
	for i := range v {
		v[i] = float64(i + 1)
	}
	// 200 samples support p95 (ten beyond it), not p99.
	if got := tail(v); got != 190 {
		t.Fatalf("tail of 200 samples = %v, want 190", got)
	}
	v = make([]float64, 2000)
	for i := range v {
		v[i] = float64(i + 1)
	}
	if got := tail(v); got != 1980 {
		t.Fatalf("tail of 2000 samples = %v, want 1980", got)
	}
}
