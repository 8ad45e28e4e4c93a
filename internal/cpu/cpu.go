// Package cpu implements the cycle-accounting core model that turns
// measured memory-hierarchy event counts into cycles, IPC, and the
// Top-down Microarchitecture Analysis (TMAM) slot breakdown the paper
// uses in §2.4.1 (Fig 7).
//
// The model mirrors how TMAM attributes lost pipeline slots:
// front-end stalls from instruction fetch misses (barely hidden by the
// decoupled front end), bad speculation from branch-misprediction
// recovery, back-end stalls from data misses (substantially overlapped
// by out-of-order execution and memory-level parallelism) and
// dependency chains, and retiring for useful work.
package cpu

import "fmt"

// Counts are the per-window event totals the simulator measures by
// driving workload streams through the cache/TLB models.
type Counts struct {
	Instructions uint64

	Branches    uint64
	Mispredicts uint64

	// Code fetch accesses satisfied at each level beyond L1.
	CodeL2, CodeLLC, CodeMem uint64
	// Data load accesses satisfied at each level beyond L1.
	DataL2, DataLLC, DataMem uint64
	// Data store accesses satisfied at each level beyond L1. Store
	// misses drain through the store buffer and overlap almost fully.
	StoreL2, StoreLLC, StoreMem uint64

	// Page-walk cycles charged by the TLB model.
	ITLBWalkCycles uint64
	DTLBWalkCycles uint64

	// Direct context-switch cost in cycles (register/state save,
	// scheduler path), charged by the scheduler model.
	CtxSwitchCycles uint64
}

// Add accumulates other into c.
func (c *Counts) Add(o Counts) {
	c.Instructions += o.Instructions
	c.Branches += o.Branches
	c.Mispredicts += o.Mispredicts
	c.CodeL2 += o.CodeL2
	c.CodeLLC += o.CodeLLC
	c.CodeMem += o.CodeMem
	c.DataL2 += o.DataL2
	c.DataLLC += o.DataLLC
	c.DataMem += o.DataMem
	c.StoreL2 += o.StoreL2
	c.StoreLLC += o.StoreLLC
	c.StoreMem += o.StoreMem
	c.ITLBWalkCycles += o.ITLBWalkCycles
	c.DTLBWalkCycles += o.DTLBWalkCycles
	c.CtxSwitchCycles += o.CtxSwitchCycles
}

// Params parameterize the pipeline and the (configuration-dependent)
// latencies of the hierarchy levels, all in core cycles.
type Params struct {
	Width         int     // pipeline slots per cycle
	L2LatCycles   float64 // L1-miss L2-hit penalty
	LLCLatCycles  float64 // L2-miss LLC-hit penalty (uncore-scaled)
	MemLatCycles  float64 // LLC-miss memory penalty (load- and uncore-dependent)
	MispredictPen float64 // recovery cycles per mispredicted branch
	DepStallCPI   float64 // workload-inherent dependency stalls per instruction
	BEOverlap     float64 // exposed fraction of data-miss latency (0 = default)
	SMT           bool    // simultaneous multithreading active (2 threads/core)
}

// Attribution constants. Short fetch misses are substantially hidden
// by the decoupled front end (fetch/decode queues); the deeper the
// miss, the more of its latency reaches the pipeline. Data-miss
// latency is overlapped by out-of-order execution and MLP.
const (
	feExposeL2  = 0.20 // exposed fraction of an L2-hit code miss
	feExposeLLC = 0.25 // exposed fraction of an LLC-hit code miss
	feExposeMem = 0.95 // exposed fraction of a memory code miss
	// DefaultBEOverlap is the exposed fraction of data-miss latency
	// when Params.BEOverlap is zero; workloads with deep memory-level
	// parallelism (vector crunching) override it downward.
	DefaultBEOverlap = 0.22
	itlbExpose       = 0.30 // exposed fraction of instruction page-walk cycles
	dtlbExpose       = 0.12 // exposed fraction of data page-walk cycles
	storeOverlap     = 0.05 // exposed fraction of store-miss latency
	baseDisp         = 0.90 // dispatch efficiency on unstalled cycles
	smtHideGain      = 0.40 // fraction of a thread's stall cycles the sibling fills
	smtMaxBoost      = 1.35 // cap on SMT core-throughput gain
)

// TopDown is the Fig 7 pipeline-slot breakdown; fractions sum to 1.
type TopDown struct {
	Retiring float64
	FrontEnd float64
	BadSpec  float64
	BackEnd  float64
}

// String renders the breakdown as percentages.
func (t TopDown) String() string {
	return fmt.Sprintf("retiring=%.0f%% frontend=%.0f%% badspec=%.0f%% backend=%.0f%%",
		t.Retiring*100, t.FrontEnd*100, t.BadSpec*100, t.BackEnd*100)
}

// Throughput is the part of the core model's output that sets a
// core's instruction rate: what a bandwidth↔latency fixed point reads
// at each memory latency it tries.
type Throughput struct {
	Cycles   float64 // total core cycles for Counts.Instructions
	IPC      float64 // per-thread instructions per cycle
	SMTBoost float64 // core throughput multiplier from SMT (1 if off)
}

// CoreIPS returns one core's instruction throughput at the given
// frequency, including the SMT boost.
func (t Throughput) CoreIPS(freqMHz int) float64 {
	if t.Cycles == 0 {
		return 0
	}
	return t.IPC * t.SMTBoost * float64(freqMHz) * 1e6
}

// Result is the core model's output for one measurement window.
type Result struct {
	Throughput
	TopDown TopDown

	// Stall components in cycles, for diagnostics and tests.
	BaseCycles     float64
	FrontEndCycles float64
	BadSpecCycles  float64
	BackEndCycles  float64
}

// Analyze converts event counts into cycles and the TMAM breakdown.
func Analyze(c Counts, p Params) Result {
	q := Prepare(c, p)
	return q.Result(p.MemLatCycles)
}

// Prepared is the cycle model for one set of counts and parameters,
// split at memory latency: every term that does not depend on
// Params.MemLatCycles is folded once, so pricing a latency repeats only
// the terms that do. A fixed point that varies nothing else (sim's
// bandwidth↔latency bisection) prices each candidate with Price and
// builds the full Result once, at the point it settles on.
//
// Each folded term is a left-associative prefix of a sum or product of
// the one-pass model, and the remaining terms are applied in the same
// order, so every price is bit-identical to evaluating all the terms at
// that latency. Pre-multiplying factors in a different order would not
// be: floating-point products and sums do not reassociate.
type Prepared struct {
	instr float64 // 0: no instructions, every price is the zero result
	width float64
	smt   bool

	base    float64
	badspec float64

	// Front end: feFixed + feMem·lat + itlb + ctx.
	feFixed, feMem, itlb, ctx float64

	// Back end: beOverlap·(dataFixed + dataMem·lat) +
	// storeOverlap·(storeFixed + storeMem·lat) + dtlb + dep.
	beOverlap            float64
	dataFixed, dataMem   float64
	storeFixed, storeMem float64
	dtlb, dep            float64
}

// Prepare folds every latency-independent term of the cycle model.
// p.MemLatCycles is ignored: it is the argument of Price and Result.
func Prepare(c Counts, p Params) Prepared {
	if p.Width <= 0 {
		p.Width = 4
	}
	instr := float64(c.Instructions)
	if instr == 0 {
		return Prepared{}
	}
	beOverlap := p.BEOverlap
	if beOverlap == 0 {
		beOverlap = DefaultBEOverlap
	}
	return Prepared{
		instr: instr,
		width: float64(p.Width),
		smt:   p.SMT,

		base:    instr / (float64(p.Width) * baseDisp),
		badspec: float64(c.Mispredicts) * p.MispredictPen,

		feFixed: feExposeL2*float64(c.CodeL2)*p.L2LatCycles +
			feExposeLLC*float64(c.CodeLLC)*p.LLCLatCycles,
		feMem: feExposeMem * float64(c.CodeMem),
		itlb:  itlbExpose * float64(c.ITLBWalkCycles),
		// Context-switch direct cost executes kernel code: charge it as
		// front-end-heavy OS time (register save/restore plus scheduler
		// path is fetch-bound on cold code).
		ctx: float64(c.CtxSwitchCycles),

		beOverlap:  beOverlap,
		dataFixed:  float64(c.DataL2)*p.L2LatCycles + float64(c.DataLLC)*p.LLCLatCycles,
		dataMem:    float64(c.DataMem),
		storeFixed: float64(c.StoreL2)*p.L2LatCycles + float64(c.StoreLLC)*p.LLCLatCycles,
		storeMem:   float64(c.StoreMem),
		dtlb:       dtlbExpose * float64(c.DTLBWalkCycles),
		dep:        p.DepStallCPI * instr,
	}
}

// Price returns cycles, IPC and SMT boost at a memory latency of
// memLatCycles: Result without the TopDown breakdown.
func (q *Prepared) Price(memLatCycles float64) Throughput {
	t, _, _ := q.price(memLatCycles)
	return t
}

// price is the one copy of the latency-dependent arithmetic; it also
// returns the front-end and back-end stall cycles Result reports.
func (q *Prepared) price(memLat float64) (t Throughput, frontend, backend float64) {
	if q.instr == 0 {
		return Throughput{SMTBoost: 1}, 0, 0
	}
	frontend = q.feFixed + q.feMem*memLat + q.itlb + q.ctx
	backend = q.beOverlap*(q.dataFixed+q.dataMem*memLat) +
		storeOverlap*(q.storeFixed+q.storeMem*memLat) +
		q.dtlb +
		q.dep

	cycles := q.base + frontend + q.badspec + backend
	boost := 1.0
	if q.smt {
		stallFrac := (frontend + q.badspec + backend) / cycles
		boost = 1 + smtHideGain*stallFrac*2 // sibling fills some stall slots
		if boost > smtMaxBoost {
			boost = smtMaxBoost
		}
	}
	return Throughput{Cycles: cycles, IPC: q.instr / cycles, SMTBoost: boost}, frontend, backend
}

// Result returns the full model output, TopDown included, at a memory
// latency of memLatCycles.
func (q *Prepared) Result(memLatCycles float64) Result {
	t, frontend, backend := q.price(memLatCycles)
	if q.instr == 0 {
		return Result{Throughput: t}
	}
	instr, base, badspec := q.instr, q.base, q.badspec

	slots := t.Cycles * q.width
	retiring := instr / slots
	lost := 1 - retiring
	stall := frontend + badspec + backend
	td := TopDown{Retiring: retiring}
	if stall > 0 {
		// Distribute non-retiring slots across stall causes, folding
		// the dispatch-inefficiency share of base cycles into the
		// back end (it is resource-bound in TMAM terms).
		slack := base - instr/q.width
		total := stall + slack
		td.FrontEnd = lost * frontend / total
		td.BadSpec = lost * badspec / total
		td.BackEnd = lost * (backend + slack) / total
	} else {
		td.BackEnd = lost
	}

	return Result{
		Throughput:     t,
		TopDown:        td,
		BaseCycles:     base,
		FrontEndCycles: frontend,
		BadSpecCycles:  badspec,
		BackEndCycles:  backend,
	}
}
