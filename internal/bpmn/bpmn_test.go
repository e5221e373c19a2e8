package bpmn

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// linear builds S→T1→T2→E in one pool.
func linear(t *testing.T) *Process {
	t.Helper()
	p, err := NewBuilder("linear").
		Pool("P").
		Start("S", "P").
		Task("T1", "P", "first").
		Task("T2", "P", "second").
		End("E", "P").
		Seq("S", "T1", "T2", "E").
		Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return p
}

func TestBuildLinear(t *testing.T) {
	p := linear(t)
	if got := p.Tasks(); len(got) != 2 || got[0] != "T1" || got[1] != "T2" {
		t.Errorf("Tasks = %v", got)
	}
	if !p.HasTask("T1") || p.HasTask("S") || p.HasTask("missing") {
		t.Errorf("HasTask misclassifies")
	}
	if got := p.TaskRole("T2"); got != "P" {
		t.Errorf("TaskRole(T2) = %q", got)
	}
	if got := p.TaskRole("S"); got != "" {
		t.Errorf("TaskRole(S) = %q, want empty", got)
	}
	st := p.Stats()
	if st.Tasks != 2 || st.Events != 2 || st.SeqFlows != 3 || st.Pools != 1 {
		t.Errorf("Stats = %+v", st)
	}
	if got := p.RolesOfTasks(); len(got) != 1 || got[0] != "P" {
		t.Errorf("RolesOfTasks = %v", got)
	}
}

func TestValidationErrors(t *testing.T) {
	cases := []struct {
		name  string
		build func() (*Process, error)
		want  string
	}{
		{
			"duplicate pool",
			func() (*Process, error) {
				return NewBuilder("x").Pool("P").Pool("P").Start("S", "P").Task("T", "P", "").End("E", "P").Seq("S", "T", "E").Build()
			},
			"duplicate pool",
		},
		{
			"duplicate element",
			func() (*Process, error) {
				return NewBuilder("x").Pool("P").Start("S", "P").Task("S", "P", "").Build()
			},
			"duplicate element id",
		},
		{
			"undeclared pool",
			func() (*Process, error) {
				return NewBuilder("x").Start("S", "P").Build()
			},
			"undeclared pool",
		},
		{
			"reserved id",
			func() (*Process, error) {
				return NewBuilder("x").Pool("P").Start("S", "P").Task("Err", "P", "").End("E", "P").Seq("S", "Err", "E").Build()
			},
			"reserved",
		},
		{
			"no start",
			func() (*Process, error) {
				return NewBuilder("x").Pool("P").MessageStart("S", "P").Task("T", "P", "").End("E", "P").Seq("S", "T", "E").Build()
			},
			"no plain start",
		},
		{
			"dangling flow",
			func() (*Process, error) {
				return NewBuilder("x").Pool("P").Start("S", "P").End("E", "P").Seq("S", "missing", "E").Build()
			},
			"missing element",
		},
		{
			"cross-pool sequence flow",
			func() (*Process, error) {
				return NewBuilder("x").Pool("P").Pool("Q").
					Start("S", "P").Task("T", "Q", "").End("E", "Q").
					Seq("S", "T", "E").Build()
			},
			"crosses pools",
		},
		{
			"same-pool message flow",
			func() (*Process, error) {
				return NewBuilder("x").Pool("P").
					Start("S", "P").MessageEnd("E", "P").MessageStart("M", "P").
					Task("T", "P", "").End("E2", "P").
					Seq("S", "E").Msg("E", "M").Seq("M", "T", "E2").Build()
			},
			"stays within pool",
		},
		{
			"task without outgoing",
			func() (*Process, error) {
				return NewBuilder("x").Pool("P").Start("S", "P").Task("T", "P", "").Seq("S", "T").Build()
			},
			"exactly one outgoing",
		},
		{
			"start with incoming",
			func() (*Process, error) {
				return NewBuilder("x").Pool("P").Start("S", "P").Task("T", "P", "").End("E", "P").
					Seq("S", "T", "E").Seq("T", "S").Build()
			},
			"incoming",
		},
		{
			"gateway split+join",
			func() (*Process, error) {
				return NewBuilder("x").Pool("P").
					Start("S", "P").Start("S2", "P").XOR("G", "P").
					Task("T1", "P", "").Task("T2", "P", "").End("E1", "P").End("E2", "P").
					Seq("S", "G").Seq("S2", "G").Seq("G", "T1", "E1").Seq("G", "T2", "E2").Build()
			},
			"mixes split and join",
		},
		{
			"error handler in other pool",
			func() (*Process, error) {
				return NewBuilder("x").Pool("P").Pool("Q").
					Start("S", "P").FallibleTask("T", "P", "", "H").End("E", "P").
					Start("S2", "Q").Task("H", "Q", "").End("E2", "Q").
					Seq("S", "T", "E").Seq("S2", "H", "E2").Build()
			},
			"in pool",
		},
		{
			"unpaired OR join",
			func() (*Process, error) {
				return NewBuilder("x").Pool("P").
					Start("S", "P").OR("G", "P").Task("T1", "P", "").Task("T2", "P", "").
					OR("J", "P").Task("T3", "P", "").End("E", "P").
					Seq("S", "G").Seq("G", "T1", "J").Seq("G", "T2", "J").Seq("J", "T3", "E").
					Build()
			},
			"not paired",
		},
		{
			"unreachable fragment",
			func() (*Process, error) {
				return NewBuilder("x").Pool("P").
					Start("S", "P").Task("T", "P", "").End("E", "P").
					Task("U", "P", "").End("E2", "P").
					Seq("S", "T", "E").Seq("T", "U").Seq("U", "E2").Build()
			},
			"exactly one outgoing",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := c.build()
			if err == nil {
				t.Fatalf("Build succeeded, want error containing %q", c.want)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not contain %q", err, c.want)
			}
		})
	}
}

func TestWellFoundedness(t *testing.T) {
	// A cycle through a task is fine.
	_, err := NewBuilder("taskCycle").Pool("P").
		Start("S", "P").Task("T", "P", "").XOR("G", "P").End("E", "P").
		Seq("S", "T", "G").Seq("G", "T").Seq("G", "E").
		Build()
	if err != nil {
		t.Fatalf("task cycle rejected: %v", err)
	}

	// A gateway-only cycle is not well-founded.
	_, err = NewBuilder("gateCycle").Pool("P").
		Start("S", "P").XOR("G1", "P").XOR("G2", "P").Task("T", "P", "").End("E", "P").
		Seq("S", "G1").Seq("G1", "G2").Seq("G2", "G1").Seq("G2", "T", "E").
		Build()
	if !errors.Is(err, ErrNotWellFounded) {
		t.Fatalf("gateway cycle: err = %v, want ErrNotWellFounded", err)
	}

	// An error-edge cycle without tasks cannot be constructed (error
	// edges originate at tasks), but a message-flow cycle without
	// tasks can.
	_, err = NewBuilder("msgCycle").Pool("P").Pool("Q").
		Start("S", "P").MessageEnd("E1", "P").
		MessageStart("M2", "Q").MessageEnd("E2", "Q").
		MessageStart("M1", "P").XOR("G", "P").End("E", "P").Task("T", "P", "").
		Seq("S", "E1").Msg("E1", "M2").Seq("M2", "E2").Msg("E2", "M1").
		Seq("M1", "G").Seq("G", "E1b").Build()
	if err == nil {
		t.Fatalf("expected error for malformed message cycle fixture")
	}
}

func TestWellFoundedMessageCycle(t *testing.T) {
	// Fig. 10's shape: a cross-pool cycle containing tasks — valid.
	p, err := NewBuilder("fig10").Pool("P1").Pool("P2").
		Start("S1", "P1").MessageStart("S2", "P1").Task("T1", "P1", "").MessageEnd("E1", "P1").
		MessageStart("S3", "P2").Task("T2", "P2", "").MessageEnd("E2", "P2").
		Seq("S1", "T1").Seq("S2", "T1").Seq("T1", "E1").
		Msg("E1", "S3").Seq("S3", "T2", "E2").Msg("E2", "S2").
		Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if got := p.RolesOfTasks(); len(got) != 2 {
		t.Errorf("RolesOfTasks = %v, want 2 pools", got)
	}

	// Same shape with the tasks removed: silent message cycle →
	// rejected.
	_, err = NewBuilder("fig10silent").Pool("P1").Pool("P2").
		Start("S1", "P1").MessageStart("M1", "P1").
		XOR("Gm", "P1").XOR("Gs", "P1").MessageEnd("E1", "P1").
		MessageStart("M2", "P2").MessageEnd("E2", "P2").
		Task("T", "P1", "").End("E", "P1").
		Seq("S1", "Gm").Seq("M1", "Gm").Seq("Gm", "Gs").
		Seq("Gs", "E1").Seq("Gs", "T", "E").
		Msg("E1", "M2").Seq("M2", "E2").Msg("E2", "M1").
		Build()
	if !errors.Is(err, ErrNotWellFounded) {
		t.Fatalf("silent message cycle: err = %v, want ErrNotWellFounded", err)
	}
}

// orFixture builds S→G(OR)→T1,T2→J(OR join)→T3→E with pairing.
func orFixture(t *testing.T) *Process {
	t.Helper()
	p, err := NewBuilder("orj").Pool("P").
		Start("S", "P").OR("G", "P").Task("T1", "P", "").Task("T2", "P", "").
		OR("J", "P").Task("T3", "P", "").End("E", "P").
		Seq("S", "G").Seq("G", "T1", "J").Seq("G", "T2", "J").Seq("J", "T3", "E").
		PairOR("G", "J").
		Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return p
}

func TestORRouting(t *testing.T) {
	p := orFixture(t)
	if !p.IsORJoin("J") {
		t.Fatalf("J not recognized as OR join")
	}
	if p.IsORJoin("G") {
		t.Fatalf("G misrecognized as OR join")
	}
	f, ok := p.ORBranchJoinFlow("G", "T1")
	if !ok || f.From != "T1" || f.To != "J" {
		t.Fatalf("ORBranchJoinFlow(G,T1) = %+v, %v", f, ok)
	}
	f, ok = p.ORBranchJoinFlow("G", "T2")
	if !ok || f.From != "T2" {
		t.Fatalf("ORBranchJoinFlow(G,T2) = %+v, %v", f, ok)
	}
}

func TestANDJoinRecognition(t *testing.T) {
	p, err := NewBuilder("andj").Pool("P").
		Start("S", "P").AND("G", "P").Task("T1", "P", "").Task("T2", "P", "").
		AND("J", "P").Task("T3", "P", "").End("E", "P").
		Seq("S", "G").Seq("G", "T1", "J").Seq("G", "T2", "J").Seq("J", "T3", "E").
		Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if !p.IsANDJoin("J") || p.IsANDJoin("G") || p.IsANDJoin("T1") {
		t.Fatalf("AND join misclassification")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	p := orFixture(t)
	var buf bytes.Buffer
	if err := p.EncodeJSON(&buf); err != nil {
		t.Fatalf("EncodeJSON: %v", err)
	}
	q, err := DecodeJSON(&buf)
	if err != nil {
		t.Fatalf("DecodeJSON: %v", err)
	}
	if q.Name != p.Name {
		t.Errorf("name %q != %q", q.Name, p.Name)
	}
	if len(q.Elements()) != len(p.Elements()) {
		t.Errorf("element count %d != %d", len(q.Elements()), len(p.Elements()))
	}
	if len(q.Flows()) != len(p.Flows()) {
		t.Errorf("flow count %d != %d", len(q.Flows()), len(p.Flows()))
	}
	if q.ORJoin("G") != "J" {
		t.Errorf("OR pairing lost in round trip")
	}
	// Re-validation happens on decode: routing must be rebuilt.
	if _, ok := q.ORBranchJoinFlow("G", "T1"); !ok {
		t.Errorf("OR routing missing after round trip")
	}
}

// TestEncodeJSONDeterministic: a process with two OR pairs encodes to
// the same bytes every time (the pairs live in a map).
func TestEncodeJSONDeterministic(t *testing.T) {
	p, err := NewBuilder("or2").Pool("P").
		Start("S", "P").OR("G1", "P").Task("T1", "P", "").Task("T2", "P", "").OR("J1", "P").
		OR("G2", "P").Task("T3", "P", "").Task("T4", "P", "").OR("J2", "P").End("E", "P").
		Seq("S", "G1").Seq("G1", "T1", "J1").Seq("G1", "T2", "J1").Seq("J1", "G2").
		Seq("G2", "T3", "J2").Seq("G2", "T4", "J2").Seq("J2", "E").
		PairOR("G1", "J1").PairOR("G2", "J2").
		Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	var first bytes.Buffer
	if err := p.EncodeJSON(&first); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(first.String(), `"split": "G1"`) || !strings.Contains(first.String(), `"split": "G2"`) {
		t.Fatalf("OR pairs missing from encoding:\n%s", first.String())
	}
	for i := 1; i < 20; i++ {
		var buf bytes.Buffer
		if err := p.EncodeJSON(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), first.Bytes()) {
			t.Fatalf("encoding %d differs:\n%s\nvs\n%s", i, buf.String(), first.String())
		}
	}
}

func TestDecodeRejectsUnknownFields(t *testing.T) {
	_, err := DecodeJSON(strings.NewReader(`{"name":"x","bogus":1}`))
	if err == nil {
		t.Fatalf("unknown field accepted")
	}
}

func TestDecodeRejectsUnknownKinds(t *testing.T) {
	_, err := DecodeJSON(strings.NewReader(
		`{"name":"x","pools":["P"],"elements":[{"id":"S","kind":"nope","pool":"P"}],"flows":[]}`))
	if err == nil || !strings.Contains(err.Error(), "unknown element kind") {
		t.Fatalf("err = %v", err)
	}
}

func TestORBranchSharingJoinInputRejected(t *testing.T) {
	// Both branches funnel through the same element before J, so the
	// join cannot attribute inputs: must be rejected.
	_, err := NewBuilder("orShared").Pool("P").
		Start("S", "P").OR("G", "P").Task("T1", "P", "").Task("T2", "P", "").
		XOR("M", "P").OR("J", "P").Task("T3", "P", "").End("E", "P").
		Task("T4", "P", "").
		Seq("S", "G").Seq("G", "T1", "M").Seq("G", "T2", "M").
		Seq("M", "T4", "J").Seq("J", "T3", "E").
		PairOR("G", "J").
		Build()
	if err == nil {
		t.Fatalf("shared join input accepted")
	}
}

func TestMustBuildPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("MustBuild did not panic")
		}
	}()
	NewBuilder("bad").MustBuild()
}
