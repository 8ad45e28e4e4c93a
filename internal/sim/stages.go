package sim

import (
	"runtime"
	"sync"
	"sync/atomic"

	"softsku/internal/cache"
	"softsku/internal/tlb"
	"softsku/internal/workload"
)

// A window pass runs in stages (DESIGN.md §11, window stages). The
// LLC's answers feed only statistics: whether a demand access hit the
// LLC or memory reaches the load/store tally and nothing else, and
// whether a prefetch fill came from memory reaches only its engine's
// Moved and FromMemory counts. So each thread's stream, TLBs, private
// caches and prefetch tables evolve independently of the LLC and of
// the other threads, and only the LLC needs the serial order: thread
// 0's chunk c, then thread 1's chunk c, and so on. Each thread runs in
// a thread stage of its own, logging its LLC operations
// (cache.LLCLog); one LLC stage, the caller's goroutine, applies the
// logs in that order. Every cache and count ends bit for bit where
// the serial loop would have left it. Where the stages cannot gain,
// a pass runs the same thread steps and applies the same logs inline
// on one goroutine (stagesPay).
const (
	// windowChunk is how many instructions each simulated thread runs
	// between interleavings in a window. Context switches land on chunk
	// boundaries, so PredictCtxSwitches takes them from the same
	// chunk arithmetic as runWindow.
	windowChunk = 2000

	// stageGenInstr is how many instructions a thread stage generates
	// and runs at a time. A stream continues exactly where its last
	// Generate stopped, so short calls give the same accesses as one
	// per chunk.
	stageGenInstr = 64
	// stageGenCap bounds the accesses of stageGenInstr instructions:
	// at most one data access each, plus a fetch per fetch group.
	stageGenCap = stageGenInstr + stageGenInstr/8 + 1

	// A thread stage hands its LLC ops over once a batch holds
	// stageBatchOps, checked after each stageGenInstr instructions, and
	// at the end of each chunk; stageBatches batches per thread
	// circulate between it and the LLC stage. An access adds at most
	// maxOpsPerAccess ops (a demand, an adjacent-line, four stream and
	// two DCU fills), so a batch never outgrows stageBatchCap. This
	// bounds how far a thread runs ahead of the LLC stage, and the
	// stages' memory: 4 threads × 3 batches × 1096 ops × 8 B, ~105 KB.
	stageBatchOps   = 512
	stageBatches    = 3
	maxOpsPerAccess = 8
	stageBatchCap   = stageBatchOps + stageGenCap*maxOpsPerAccess
)

// numChunks returns how many chunks a pass of instr instructions per
// thread runs in.
func numChunks(instr int) int { return (instr + windowChunk - 1) / windowChunk }

// chunk returns the length of chunk c of a pass of instr instructions
// per thread, and whether a context switch lands at its end: whether
// the chunk reaches a new multiple of the switch interval.
func chunk(instr, interval, c int) (n int, switchAfter bool) {
	done := c * windowChunk
	n = min(windowChunk, instr-done)
	return n, done/interval != (done+n)/interval
}

// chunkSwitches returns how many context switches each thread takes
// in a pass of instr instructions.
func chunkSwitches(instr, interval int) uint64 {
	var k uint64
	for c := 0; c < numChunks(instr); c++ {
		if _, sw := chunk(instr, interval, c); sw {
			k++
		}
	}
	return k
}

// llcBatch is a piece of one thread's LLC log; last marks the end of
// the thread's chunk.
type llcBatch struct {
	ops  cache.LLCLog
	last bool
}

// stageBufs is one thread stage's storage, recycled across windows:
// its generate buffer and the log batches it circulates with the LLC
// stage.
type stageBufs struct {
	gen  []workload.Access
	logs [stageBatches]cache.LLCLog
}

var stageBufPool = sync.Pool{New: func() any {
	b := &stageBufs{gen: make([]workload.Access, 0, stageGenCap)}
	for i := range b.logs {
		b.logs[i] = cache.NewLLCLog(stageBatchCap)
	}
	return b
}}

// windowsRunning counts the windows of this process whose passes are
// running (window.run).
var windowsRunning atomic.Int32

// stagesPay reports whether a pass gains from running in stages: only
// when its window runs alone, so the thread stages find CPUs idle, on
// more than one CPU and with more than one thread. Where trial workers
// already run windows side by side the hand-overs are pure cost, so
// every pass there runs inline. Both ways give the same result bit for
// bit; only the wall time differs.
func stagesPay(running, procs, threads int) bool {
	return running == 1 && procs > 1 && threads > 1
}

// runWindow advances every thread by instr instructions in chunks,
// feeding each chunk of its stream to the halves the window simulates,
// and returns the number of context switches injected. It runs in
// stages when they pay (stagesPay), else inline.
func (w *window) runWindow(instr int) uint64 {
	interval := ctxSwitchInterval(w.m.srv.Config().CoreFreqMHz, w.m.prof.CtxSwitchRate)
	//lint:ignore detflow the CPU count only picks between the staged and the inline pass, which are bit-identical (pinned by TestWindowStagesMatchSerial)
	procs := runtime.GOMAXPROCS(0)
	if stagesPay(int(windowsRunning.Load()), procs, len(w.threads)) {
		w.runStaged(instr, interval)
	} else {
		w.runInline(instr, interval)
	}
	return uint64(len(w.threads)) * chunkSwitches(instr, interval)
}

// runInline runs the pass on the caller's goroutine: each thread's
// chunk in turn, its LLC ops applied as each batch fills, so the LLC
// sees them in the serial order. The threads take turns with one
// generate buffer and one log.
func (w *window) runInline(instr, interval int) {
	bufs := stageBufPool.Get().(*stageBufs)
	log := bufs.logs[0]
	var th *thread
	apply := func(bool) bool {
		if w.hier != nil {
			w.hier.ApplyLLC(&th.llc, &w.llcOut)
		}
		th.llc.Reset()
		return true
	}
	for c := 0; c < numChunks(instr); c++ {
		for ti := range w.threads {
			th = &w.threads[ti]
			th.llc = log
			w.runChunk(ti, c, instr, interval, bufs.gen, apply)
			log, th.llc = th.llc, cache.LLCLog{}
		}
	}
	bufs.logs[0] = log
	stageBufPool.Put(bufs)
}

// runStaged runs one thread stage per thread and the LLC stage on the
// caller's goroutine, and returns once every stage has stopped. A
// panic in any stage stops them all and then re-panics here: a thread
// stage's panic once the LLC stage has applied every op the thread
// logged before it.
func (w *window) runStaged(instr, interval int) {
	n := len(w.threads)
	bufs := make([]*stageBufs, n)
	full := make([]chan llcBatch, n)
	free := make([]chan cache.LLCLog, n)
	panics := make([]any, n)
	// Each channel holds all of its thread's stageBatches batches, so
	// no send blocks: a thread stage blocks only for an empty batch, and
	// the LLC stage only for its next full one.
	for ti := range w.threads {
		bufs[ti] = stageBufPool.Get().(*stageBufs)
		full[ti] = make(chan llcBatch, stageBatches)
		free[ti] = make(chan cache.LLCLog, stageBatches)
		w.threads[ti].llc = bufs[ti].logs[0]
		for _, l := range bufs[ti].logs[1:] {
			free[ti] <- l
		}
	}
	var wg sync.WaitGroup
	for ti := range w.threads {
		wg.Add(1)
		//lint:ignore goroutine a window's thread stages: one per simulated thread, joined before runWindow returns, their LLC ops applied in the serial order (DESIGN.md §11)
		go func() {
			defer wg.Done()
			defer close(full[ti])
			defer func() {
				if r := recover(); r != nil {
					panics[ti] = r
				}
			}()
			w.threadStage(ti, instr, interval, bufs[ti].gen, full[ti], free[ti])
		}()
	}
	// stop ends the thread stages: one blocked on, or next asking for,
	// an empty batch finds its free channel closed and returns.
	stopped := false
	stop := func() {
		if !stopped {
			stopped = true
			for _, f := range free {
				close(f)
			}
			wg.Wait()
		}
	}
	defer stop()

	for c := 0; c < numChunks(instr); c++ {
		for ti := range w.threads {
			for {
				b, ok := <-full[ti]
				if !ok {
					stop()
					panic(panics[ti])
				}
				if w.hier != nil {
					w.hier.ApplyLLC(&b.ops, &w.llcOut)
				}
				b.ops.Reset()
				free[ti] <- b.ops
				if b.last {
					break
				}
			}
		}
	}
	stop()
	for _, b := range bufs {
		stageBufPool.Put(b)
	}
}

// threadStage runs thread ti's instr instructions chunk by chunk. It
// hands its LLC ops to the LLC stage through full and takes empty
// batches from free; it returns early once free is closed.
func (w *window) threadStage(ti, instr, interval int, gen []workload.Access, full chan<- llcBatch, free <-chan cache.LLCLog) {
	th := &w.threads[ti]
	// flush hands the pending ops over and takes an empty batch; false
	// means the LLC stage has stopped.
	flush := func(last bool) bool {
		full <- llcBatch{ops: th.llc, last: last}
		var ok bool
		th.llc, ok = <-free
		return ok
	}
	for c := 0; c < numChunks(instr); c++ {
		if !w.runChunk(ti, c, instr, interval, gen, flush) {
			return
		}
	}
}

// runChunk runs chunk c of thread ti's pass: its stream, TLB, private
// caches and prefetcher, logging its LLC ops. It calls flush(false)
// once the log holds stageBatchOps ops, checked after each
// stageGenInstr instructions, and flush(true) at the chunk's end; it
// returns false, early, as soon as flush does.
func (w *window) runChunk(ti, c, instr, interval int, gen []workload.Access, flush func(last bool) bool) bool {
	th := &w.threads[ti]
	hier, pages := w.hier, &w.pages
	n, switchAfter := chunk(instr, interval, c)
	for g := 0; g < n; g += stageGenInstr {
		gen = th.stream.Generate(gen[:0], min(stageGenInstr, n-g))
		// The halves share no state, so each takes the accesses in
		// turn.
		if th.pf != nil {
			for i := range gen {
				a := &gen[i]
				lvl := hier.AccessPrivate(ti, a.Addr, a.Kind)
				if lvl == cache.LLC {
					th.llc.Add(a.Addr, a.Kind, demandOp(a))
				} else if a.Kind == cache.Data {
					th.tally[lvl][demandStore(a)]++
				}
				th.pf.OnAccess(a.Addr, a.Kind, a.IP, lvl)
			}
		}
		if th.tlb != nil {
			for i := range gen {
				a := &gen[i]
				page, huge := pages.PageOf(int(a.Region), a.Addr)
				th.tlb.Access(page, huge, a.Type)
			}
		}
		if th.llc.Len() >= stageBatchOps && !flush(false) {
			return false
		}
	}
	if switchAfter {
		th.stream.SwitchPool()
	}
	return flush(true)
}

// demandOp classifies a demand access that missed both private levels.
func demandOp(a *workload.Access) cache.LLCOp {
	switch {
	case a.Kind == cache.Code:
		return cache.LLCCode
	case demandStore(a) == 1:
		return cache.LLCStore
	default:
		return cache.LLCLoad
	}
}

// demandStore is 1 for a store and 0 for a load or fetch: the tally's
// second index.
func demandStore(a *workload.Access) int {
	if a.Type == tlb.Store {
		return 1
	}
	return 0
}
