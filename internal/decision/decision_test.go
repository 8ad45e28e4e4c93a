package decision

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// buildLedger assembles a small but structurally complete tuning
// ledger through the public constructors.
func buildLedger() *Ledger {
	l := NewLedger()
	root := l.Record(-1, RunStarted("Web", "Skylake18", "independent", "mips", 7, 0.95, 2))
	sweep := l.Record(root, SweepStarted("sweep/thp", "thp", "off"))
	ev := []Evidence{
		{Metric: "mips", Control: Stat{N: 300, Mean: 100, Var: 4}, Treatment: Stat{N: 300, Mean: 103, Var: 4}},
		{Metric: "p99", Control: Stat{N: 32, Mean: 0.01, Var: 1e-8}, Treatment: Stat{N: 32, Mean: 0.012, Var: 1e-8}},
	}
	trial := l.Record(sweep, TrialMeasured("sweep/thp/1", "thp", "on", "thp=off", "thp=on", TrialOutcome{
		DeltaPct: 3, PValue: 0.001, Significant: true, Samples: 300, VirtualSec: 150,
		EvidenceID: "00deadbeef00cafe", Evidence: ev,
	}))
	l.Record(trial, ArmAccepted("thp", "on", 3))
	l.Record(root, RunFinished("thp=on", 3, 5, 0, 0))
	return l
}

func TestLedgerSeqAndParents(t *testing.T) {
	l := buildLedger()
	evs := l.Events()
	if len(evs) != 5 {
		t.Fatalf("got %d events", len(evs))
	}
	for i, e := range evs {
		if e.Seq != i {
			t.Fatalf("event %d has seq %d", i, e.Seq)
		}
		if e.Parent >= e.Seq {
			t.Fatalf("event %d parents forward to %d", i, e.Parent)
		}
	}
	if evs[0].Parent != -1 || evs[2].Parent != 1 || evs[3].Parent != 2 {
		t.Fatalf("parent links wrong: %+v", evs)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	l := buildLedger()
	var buf bytes.Buffer
	if err := l.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(buf.String(), "\n"); n != l.Len() {
		t.Fatalf("JSONL has %d lines for %d events", n, l.Len())
	}
	back, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, l.Events()) {
		t.Fatalf("round trip diverged:\n%+v\n%+v", back, l.Events())
	}
}

func TestJSONLRejectsCorruptLedgers(t *testing.T) {
	for _, bad := range []string{
		`{"seq":1,"parent":-1,"kind":"run_started"}`,                                               // seq gap
		`{"seq":0,"parent":0,"kind":"run_started"}`,                                                // self-parent
		`{"seq":0,"parent":-1,"kind":"run_started"}` + "\n" + `{"seq":1,"parent":5,"kind":"skip"}`, // forward parent
		`not json`,
	} {
		if _, err := ReadJSONL(strings.NewReader(bad)); err == nil {
			t.Errorf("ledger %q parsed without error", bad)
		}
	}
}

func TestFiniteSanitizesFloats(t *testing.T) {
	e := TrialMeasured("l", "k", "s", "c", "t", TrialOutcome{DeltaPct: math.Inf(1), PValue: math.NaN()})
	if e.DeltaPct != math.MaxFloat64 || e.PValue != 0 {
		t.Fatalf("infinities not clamped: %+v", e)
	}
	if _, err := json.Marshal(e); err != nil {
		t.Fatalf("sanitized event not marshalable: %v", err)
	}
}

func TestBufferDrainRebasesParents(t *testing.T) {
	l := NewLedger()
	root := l.Record(-1, RunStarted("Web", "Skylake18", "independent", "mips", 1, 0.95, 0))
	var b Buffer
	first := b.Record(-1, TrialStarted(0.95, 300, 30000, 2))
	b.Record(first, GuardrailTrip(-4, 120, 2))
	trial := l.Record(root, TrialMeasured("t", "thp", "on", "c", "t", TrialOutcome{}))
	b.DrainTo(l, trial)
	evs := l.Events()
	if b.Len() != 0 {
		t.Fatal("drain did not empty the buffer")
	}
	started, trip := evs[2], evs[3]
	if started.Kind != KindTrialStarted || started.Parent != trial {
		t.Fatalf("buffered root not rebased onto trial: %+v", started)
	}
	if trip.Kind != KindGuardrailTrip || trip.Parent != started.Seq {
		t.Fatalf("buffer-local parent not rebased: %+v", trip)
	}
}

func TestWriteTreeIndentsByCausality(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTree(&buf, buildLedger().Events()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("tree has %d lines", len(lines))
	}
	wantDepth := []int{0, 1, 2, 3, 1}
	for i, line := range lines {
		indent := (len(line) - len(strings.TrimLeft(line, " "))) / 2
		if indent != wantDepth[i] {
			t.Fatalf("line %d indented %d, want %d: %q", i, indent, wantDepth[i], line)
		}
	}
	if !strings.Contains(buf.String(), "accepted thp=on") {
		t.Fatalf("tree missing acceptance summary:\n%s", buf.String())
	}
}

func TestDiff(t *testing.T) {
	a, b := buildLedger().Events(), buildLedger().Events()
	if d := Diff(a, b); d != nil {
		t.Fatalf("identical ledgers diff: %v", d)
	}
	b[2].DeltaPct = 99
	d := Diff(a, b)
	if len(d) != 1 || !strings.Contains(d[0], "#2") {
		t.Fatalf("diff missed the changed event: %v", d)
	}
	if d := Diff(a, a[:3]); len(d) == 0 {
		t.Fatal("length mismatch not reported")
	}
}

func TestHandlerServesTail(t *testing.T) {
	l := buildLedger()
	rr := httptest.NewRecorder()
	l.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/decisions?n=2", nil))
	var got struct {
		Total  int     `json:"total"`
		Events []Event `json:"events"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &got); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, rr.Body.String())
	}
	if got.Total != 5 || len(got.Events) != 2 || got.Events[1].Kind != KindRunFinished {
		t.Fatalf("tail wrong: %+v", got)
	}
	rr = httptest.NewRecorder()
	l.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/decisions?n=bogus", nil))
	if rr.Code != 400 {
		t.Fatalf("bad n accepted: %d", rr.Code)
	}
}

// realLedgerLines opens the ledger of `musku -service Web -knobs thp
// -max-samples 1500`: run_started, the thp sweep, its first trial with
// the four-objective evidence panel replay reads, and (renumbered to
// follow) that trial's arm_accepted.
const realLedgerLines = `{"seq":0,"parent":-1,"kind":"run_started","service":"Web","platform":"Skylake18","sweep":"independent","metric":"mips","seed":1,"confidence":0.95}
{"seq":1,"parent":0,"kind":"sweep_started","label":"sweep/thp","knob":"thp","control":"madvise"}
{"seq":2,"parent":1,"kind":"trial_measured","label":"sweep/thp/1","knob":"thp","setting":"always","control":"core=2.2GHz uncore=1.8GHz cores=18 cdp=off pf=all-on thp=madvise shp=200","treatment":"core=2.2GHz uncore=1.8GHz cores=18 cdp=off pf=all-on thp=always shp=200","delta_pct":3.4781968854416228,"significant":true,"samples":300,"virtual_sec":330,"evidence_id":"25db1c244a14d730","evidence":[{"metric":"mips","control":{"n":32,"mean":30860.201025848983,"var":543672.9460302902},"treatment":{"n":32,"mean":31861.017102088827,"var":640789.2626706776}},{"metric":"qps","control":{"n":32,"mean":1026.2367228686012,"var":536.3941006566539},"treatment":{"n":32,"mean":1058.4620876161173,"var":839.5939402885774}},{"metric":"perfwatt","control":{"n":32,"mean":155.5679798627864,"var":5.997572653910288},"treatment":{"n":32,"mean":160.62606600996412,"var":4.18156972000082}},{"metric":"p99","control":{"n":32,"mean":2.1547806978030044,"var":0.9088875972524315},"treatment":{"n":32,"mean":2.0841053190297476,"var":0.8947151850812717}}]}
{"seq":3,"parent":2,"kind":"trial_started","confidence":0.95,"samples":1500,"detail":"per-arm sample budget 300..1500"}
{"seq":4,"parent":2,"kind":"arm_accepted","knob":"thp","setting":"always","delta_pct":3.4781968854416228}
`

// FuzzReadJSONL feeds the ledger reader arbitrary text. It must never
// panic, and every ledger it accepts must round-trip: each event,
// re-marshaled one per line, reads back deeply equal.
func FuzzReadJSONL(f *testing.F) {
	var built bytes.Buffer
	if err := buildLedger().WriteJSONL(&built); err != nil {
		f.Fatal(err)
	}
	f.Add(built.String())
	f.Add(realLedgerLines)
	for _, line := range strings.SplitAfter(realLedgerLines, "\n")[:3] {
		f.Add(line)
	}
	f.Add(`{"seq":0,"parent":-1,"kind":"twin_pruned","delta_pct":-1.7976931348623157e308,"evidence":[]}` + "\n\n")
	f.Fuzz(func(t *testing.T, text string) {
		events, err := ReadJSONL(strings.NewReader(text))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		for _, e := range events {
			line, err := json.Marshal(e)
			if err != nil {
				t.Fatalf("accepted event does not marshal: %v", err)
			}
			buf.Write(append(line, '\n'))
		}
		back, err := ReadJSONL(&buf)
		if err != nil {
			t.Fatalf("re-marshaled ledger rejected: %v\n%s", err, buf.String())
		}
		if !reflect.DeepEqual(back, events) {
			t.Fatalf("ledger changed in a round trip:\n got  %#v\n want %#v", back, events)
		}
	})
}
