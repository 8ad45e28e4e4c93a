package core

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"softsku/internal/chaos"
	"softsku/internal/decision"
	"softsku/internal/knob"
)

// ledgerAt runs a full tuning pass with the flight recorder attached
// and returns the ledger serialized as JSONL.
func ledgerAt(t *testing.T, par int, withChaos bool) []byte {
	t.Helper()
	var in Input
	if withChaos {
		in = fastInput("Web", "Skylake18", knob.THP, knob.CoreFreq)
		in.AB.GuardrailPct = 1
	} else {
		in = fastInput("Web", "Skylake18", knob.THP, knob.SHP)
	}
	in.Parallel = par
	tool, err := New(in)
	if err != nil {
		t.Fatal(err)
	}
	if withChaos {
		tool.SetChaos(chaos.New(42, chaos.DefaultConfig()))
	}
	led := decision.NewLedger()
	tool.SetRecorder(led)
	if _, err := tool.Run(); err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := led.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// Golden SHA-256 digests of the independent sweep's ledgers, recorded
// on the hand-written sweep loop before the sweep moved behind the
// Searcher driver: the digests are the oracle that the move changed no
// decision, label, or event order. A deliberate change to what the
// sweep records must update them and say why.
const (
	goldenLedgerPlain = "95517a7374cc78f16873012762603603b060faaf9823f242306e483d5ba62284"
	goldenLedgerChaos = "09f677d5d183e64b4d1f54f27101acba2db40db0735a9f4dbda33dd85e3b788d"
)

func ledgerDigest(b []byte) string { return fmt.Sprintf("%x", sha256.Sum256(b)) }

// TestLedgerBitIdentical is the flight recorder's acceptance test:
// the ledger two runs of the same core.Input and seed write must be
// byte-identical at -parallel 1 and -parallel 8, with and without a
// chaos engine attached — recording must ride the deterministic merge
// phase, never the scheduler — and must match the pinned digest.
func TestLedgerBitIdentical(t *testing.T) {
	for _, withChaos := range []bool{false, true} {
		name, golden := "plain", goldenLedgerPlain
		if withChaos {
			name, golden = "chaos", goldenLedgerChaos
		}
		t.Run(name, func(t *testing.T) {
			serial := ledgerAt(t, 1, withChaos)
			par := ledgerAt(t, 8, withChaos)
			if !bytes.Equal(serial, par) {
				t.Fatalf("ledger diverged between -parallel 1 and 8:\n%s",
					firstLineDiff(serial, par))
			}
			if len(serial) == 0 {
				t.Fatal("run recorded an empty ledger")
			}
			if got := ledgerDigest(serial); got != golden {
				t.Fatalf("ledger digest %s, want %s", got, golden)
			}
		})
	}
}

func firstLineDiff(a, b []byte) string {
	al, bl := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
	for i := 0; i < len(al) && i < len(bl); i++ {
		if !bytes.Equal(al[i], bl[i]) {
			return fmt.Sprintf("line %d:\nserial:   %s\nparallel: %s", i, al[i], bl[i])
		}
	}
	return "ledgers differ in length"
}

// TestLedgerRecordsFullRunShape walks a real run's ledger: causal
// links must be well-formed, the run must open and close, every
// measured trial must carry a four-metric evidence panel with a span-
// linkable evidence ID, and a counterfactual replay under the recorded
// objective must report zero divergences (the replay-identity law on
// production output, not just the synthetic fixture).
func TestLedgerRecordsFullRunShape(t *testing.T) {
	raw := ledgerAt(t, 4, false)
	events, err := decision.ReadJSONL(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("ledger does not round-trip: %v", err)
	}
	if events[0].Kind != decision.KindRunStarted {
		t.Fatalf("first event is %s, want run_started", events[0].Kind)
	}
	last := events[len(events)-1]
	if last.Kind != decision.KindRunFinished {
		t.Fatalf("last event is %s, want run_finished", last.Kind)
	}
	measured := 0
	for _, e := range events {
		if e.Kind != decision.KindTrialMeasured {
			continue
		}
		measured++
		if e.EvidenceID == "" {
			t.Errorf("seq %d (%s): no evidence ID linking ledger to trace span", e.Seq, e.Label)
		}
		if len(e.Evidence) != len(decision.KnownMetrics()) {
			t.Errorf("seq %d (%s): %d evidence panels, want %d", e.Seq, e.Label, len(e.Evidence), len(decision.KnownMetrics()))
		}
		for _, ev := range e.Evidence {
			if ev.Control.N == 0 || ev.Treatment.N == 0 {
				t.Errorf("seq %d: empty evidence moments for %s", e.Seq, ev.Metric)
			}
		}
	}
	if measured < 3 {
		t.Fatalf("only %d measured trials; fixture should sweep two knobs plus final validations", measured)
	}

	rep, err := decision.Replay(events, decision.Objective{})
	if err != nil {
		t.Fatalf("replay of a real ledger failed: %v", err)
	}
	if len(rep.Divergences) != 0 {
		t.Fatalf("replay under the recorded objective diverged: %+v", rep.Divergences)
	}
	if rep.Trials != measured {
		t.Fatalf("replay analyzed %d trials, want %d", rep.Trials, measured)
	}
}

// TestLedgerReplayP99OnRealRun replays a real mips-objective ledger
// under the p99 objective: the engine must work purely from recorded
// evidence (no simulator), analyze every sweep trial, and keep the
// recorded SKU string intact for the report.
func TestLedgerReplayP99OnRealRun(t *testing.T) {
	raw := ledgerAt(t, 4, false)
	events, err := decision.ReadJSONL(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := decision.Replay(events, decision.Objective{Metric: "p99"})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Trials == 0 {
		t.Fatal("p99 replay analyzed no trials; evidence panels must cover p99")
	}
	if rep.Missing != 0 {
		t.Fatalf("%d trials lacked p99 evidence", rep.Missing)
	}
	if rep.RecordedSKU == "" {
		t.Fatal("replay report lost the recorded soft SKU")
	}
}
