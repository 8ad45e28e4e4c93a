package cpu

import (
	"encoding/binary"
	"math"
	"testing"
)

// refAnalyze is Analyze as it stood before the model was split at
// memory latency: one pass over every term. It is the oracle Analyze
// and Prepared.Price must match bit for bit.
func refAnalyze(c Counts, p Params) Result {
	if p.Width <= 0 {
		p.Width = 4
	}
	instr := float64(c.Instructions)
	if instr == 0 {
		return Result{Throughput: Throughput{SMTBoost: 1}}
	}

	base := instr / (float64(p.Width) * baseDisp)

	frontend := feExposeL2*float64(c.CodeL2)*p.L2LatCycles +
		feExposeLLC*float64(c.CodeLLC)*p.LLCLatCycles +
		feExposeMem*float64(c.CodeMem)*p.MemLatCycles +
		itlbExpose*float64(c.ITLBWalkCycles)

	badspec := float64(c.Mispredicts) * p.MispredictPen

	beOverlap := p.BEOverlap
	if beOverlap == 0 {
		beOverlap = DefaultBEOverlap
	}
	backend := beOverlap*(float64(c.DataL2)*p.L2LatCycles+
		float64(c.DataLLC)*p.LLCLatCycles+
		float64(c.DataMem)*p.MemLatCycles) +
		storeOverlap*(float64(c.StoreL2)*p.L2LatCycles+
			float64(c.StoreLLC)*p.LLCLatCycles+
			float64(c.StoreMem)*p.MemLatCycles) +
		dtlbExpose*float64(c.DTLBWalkCycles) +
		p.DepStallCPI*instr

	frontend += float64(c.CtxSwitchCycles)

	cycles := base + frontend + badspec + backend
	ipc := instr / cycles

	boost := 1.0
	if p.SMT {
		stallFrac := (frontend + badspec + backend) / cycles
		boost = 1 + smtHideGain*stallFrac*2
		if boost > smtMaxBoost {
			boost = smtMaxBoost
		}
	}

	slots := cycles * float64(p.Width)
	retiring := instr / slots
	lost := 1 - retiring
	stall := frontend + badspec + backend
	td := TopDown{Retiring: retiring}
	if stall > 0 {
		slack := base - instr/float64(p.Width)
		total := stall + slack
		td.FrontEnd = lost * frontend / total
		td.BadSpec = lost * badspec / total
		td.BackEnd = lost * (backend + slack) / total
	} else {
		td.BackEnd = lost
	}

	return Result{
		Throughput:     Throughput{Cycles: cycles, IPC: ipc, SMTBoost: boost},
		TopDown:        td,
		BaseCycles:     base,
		FrontEndCycles: frontend,
		BadSpecCycles:  badspec,
		BackEndCycles:  backend,
	}
}

// resultBits returns the bits of every float64 in r. Go leaves the
// sign and payload of a NaN to the hardware and the order the compiler
// picks for commutative operands, so every NaN maps to one value.
func resultBits(r Result) [11]uint64 {
	var b [11]uint64
	for i, v := range []float64{r.Cycles, r.IPC, r.SMTBoost,
		r.TopDown.Retiring, r.TopDown.FrontEnd, r.TopDown.BadSpec, r.TopDown.BackEnd,
		r.BaseCycles, r.FrontEndCycles, r.BadSpecCycles, r.BackEndCycles} {
		if math.IsNaN(v) {
			v = math.NaN()
		}
		b[i] = math.Float64bits(v)
	}
	return b
}

// FuzzAnalyzeMatchesReference holds Analyze, and Prepared.Price and
// Result at a second memory latency, to refAnalyze bit for bit (any
// NaN equal to any other). counts is read as
// up to 15 little-endian uint32s, the Counts fields in declaration
// order.
func FuzzAnalyzeMatchesReference(f *testing.F) {
	f.Add([]byte{}, int8(4), 11.0, 40.0, 200.0, 350.0, 15.0, 0.0, 0.0, false)
	f.Add([]byte{0x40, 0x42, 0x0f, 0, 0x10, 0x27, 0, 0, 0xe8, 3, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12},
		int8(4), 13.2, 55.0, 190.0, 900.0, 15.0, 0.3, 0.1, true)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, int8(0), 0.0, 0.0, 0.0, 1e9, 0.0, 0.0, 0.22, true)
	f.Add([]byte{1, 0, 0, 0}, int8(-3), -11.0, math.Inf(1), math.NaN(), -5.0, 15.0, -0.5, 1.0, true)
	f.Add([]byte{0x40, 0x42, 0x0f, 0}, int8(6), 12.0, 48.0, 0.0, 0.0, 15.0, 0.0, 0.0, true)
	f.Fuzz(func(t *testing.T, counts []byte, width int8, l2, llc, memLat, memLat2, mispredict, dep, beOverlap float64, smt bool) {
		var v [15]uint64
		for i := range v {
			var b [4]byte
			if 4*i < len(counts) {
				copy(b[:], counts[4*i:])
			}
			v[i] = uint64(binary.LittleEndian.Uint32(b[:]))
		}
		c := Counts{
			Instructions: v[0], Branches: v[1], Mispredicts: v[2],
			CodeL2: v[3], CodeLLC: v[4], CodeMem: v[5],
			DataL2: v[6], DataLLC: v[7], DataMem: v[8],
			StoreL2: v[9], StoreLLC: v[10], StoreMem: v[11],
			ITLBWalkCycles: v[12], DTLBWalkCycles: v[13], CtxSwitchCycles: v[14],
		}
		p := Params{Width: int(width), L2LatCycles: l2, LLCLatCycles: llc, MemLatCycles: memLat,
			MispredictPen: mispredict, DepStallCPI: dep, BEOverlap: beOverlap, SMT: smt}
		if got, want := resultBits(Analyze(c, p)), resultBits(refAnalyze(c, p)); got != want {
			t.Fatalf("Analyze diverges from the reference: got %x, want %x", got, want)
		}
		q := Prepare(c, p)
		p.MemLatCycles = memLat2
		want := refAnalyze(c, p)
		if got := q.Price(memLat2); resultBits(Result{Throughput: got}) != resultBits(Result{Throughput: want.Throughput}) {
			t.Fatalf("Price(%g) = %+v, want %+v", memLat2, got, want.Throughput)
		}
		if got := q.Result(memLat2); resultBits(got) != resultBits(want) {
			t.Fatalf("Result(%g) diverges from the reference", memLat2)
		}
	})
}
