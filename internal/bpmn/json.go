package bpmn

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Spec is the JSON interchange form of a process, used by the command
// line tools. Marshal a *Process with EncodeJSON; DecodeJSON rebuilds
// and re-validates it through the normal Builder path.
type Spec struct {
	Name     string     `json:"name"`
	Pools    []string   `json:"pools"`
	Elements []ElemSpec `json:"elements"`
	Flows    []FlowSpec `json:"flows"`
	ORPairs  []ORPair   `json:"orPairs,omitempty"`
}

// ElemSpec is the JSON form of an element.
type ElemSpec struct {
	ID      string `json:"id"`
	Kind    string `json:"kind"`
	Pool    string `json:"pool"`
	Name    string `json:"name,omitempty"`
	OnError string `json:"onError,omitempty"`
}

// FlowSpec is the JSON form of a flow.
type FlowSpec struct {
	From string `json:"from"`
	To   string `json:"to"`
	Kind string `json:"kind"` // "sequence" or "message"
}

// ORPair is the JSON form of an inclusive split/join pairing.
type ORPair struct {
	Split string `json:"split"`
	Join  string `json:"join"`
}

var kindNames = map[Kind]string{
	KindStart:        "start",
	KindMessageStart: "messageStart",
	KindEnd:          "end",
	KindMessageEnd:   "messageEnd",
	KindTask:         "task",
	KindGatewayXOR:   "xor",
	KindGatewayAND:   "and",
	KindGatewayOR:    "or",
}

var kindByName = func() map[string]Kind {
	m := map[string]Kind{}
	for k, n := range kindNames {
		m[n] = k
	}
	return m
}()

// ToSpec converts a validated process to its interchange form. OR
// pairs are sorted by split gateway, so the encoding is deterministic.
func (p *Process) ToSpec() Spec {
	spec := Spec{Name: p.Name, Pools: append([]string(nil), p.pools...)}
	for _, e := range p.elements {
		spec.Elements = append(spec.Elements, ElemSpec{
			ID: e.ID, Kind: kindNames[e.Kind], Pool: e.Pool, Name: e.Name, OnError: e.OnError,
		})
	}
	for _, f := range p.flows {
		spec.Flows = append(spec.Flows, FlowSpec{From: f.From, To: f.To, Kind: f.Kind.String()})
	}
	for split, join := range p.orPairs {
		spec.ORPairs = append(spec.ORPairs, ORPair{Split: split, Join: join})
	}
	sort.Slice(spec.ORPairs, func(i, j int) bool { return spec.ORPairs[i].Split < spec.ORPairs[j].Split })
	return spec
}

// EncodeJSON writes the process as indented JSON.
func (p *Process) EncodeJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(p.ToSpec()); err != nil {
		return fmt.Errorf("bpmn: encoding process %q: %w", p.Name, err)
	}
	return nil
}

// FromSpec rebuilds (and re-validates) a process from its interchange
// form.
func FromSpec(spec Spec) (*Process, error) {
	b := NewBuilder(spec.Name)
	for _, pool := range spec.Pools {
		b.Pool(pool)
	}
	for _, e := range spec.Elements {
		kind, ok := kindByName[e.Kind]
		if !ok {
			return nil, fmt.Errorf("bpmn: unknown element kind %q for %q", e.Kind, e.ID)
		}
		el := &Element{ID: e.ID, Kind: kind, Pool: e.Pool, Name: e.Name, OnError: e.OnError}
		b.add(el)
	}
	for _, f := range spec.Flows {
		switch f.Kind {
		case "sequence", "":
			b.Seq(f.From, f.To)
		case "message":
			b.Msg(f.From, f.To)
		default:
			return nil, fmt.Errorf("bpmn: unknown flow kind %q for %s→%s", f.Kind, f.From, f.To)
		}
	}
	for _, pr := range spec.ORPairs {
		b.PairOR(pr.Split, pr.Join)
	}
	return b.Build()
}

// DecodeJSON reads one process from JSON.
func DecodeJSON(r io.Reader) (*Process, error) {
	var spec Spec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return nil, fmt.Errorf("bpmn: decoding process JSON: %w", err)
	}
	return FromSpec(spec)
}
