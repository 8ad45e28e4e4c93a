package cache

import (
	"fmt"

	"softsku/internal/platform"
)

// Level identifies where in the hierarchy an access was satisfied.
type Level int

// Hit levels, nearest first.
const (
	L1 Level = iota
	L2
	LLC
	Memory
	numLevels
)

// String names the level.
func (l Level) String() string {
	switch l {
	case L1:
		return "L1"
	case L2:
		return "L2"
	case LLC:
		return "LLC"
	default:
		return "Memory"
	}
}

// llcName names the shared last-level cache in errors.
const llcName = "LLC"

// Hierarchy is the per-socket cache hierarchy of one server: private
// L1I/L1D and L2 per core, one shared LLC. It is the unit the
// simulator drives and the CDP/CAT knobs reconfigure.
type Hierarchy struct {
	sku  *platform.SKU
	L1I  []*Cache
	L1D  []*Cache
	L2s  []*Cache
	LLCs *Cache
}

// NewHierarchy builds the hierarchy for cores active cores of the
// given SKU (a socket's worth; the simulator models the per-socket
// view).
func NewHierarchy(sku *platform.SKU, cores int) *Hierarchy {
	return NewHierarchySized(sku, cores, sku.LLC)
}

// NewHierarchySized builds a hierarchy with an explicit LLC capacity.
// The simulator uses this to model N-core LLC sharing with a handful
// of representative threads: simulating k threads against an LLC of
// size LLC·k/N preserves per-thread capacity pressure exactly for
// symmetric workloads.
func NewHierarchySized(sku *platform.SKU, cores int, llcBytes int) *Hierarchy {
	if cores < 1 {
		cores = 1
	}
	if sku.CacheBlock < 1<<llcOpBits {
		panic(fmt.Sprintf("cache: %d-byte blocks leave no room for an LLCLog entry's op bits", sku.CacheBlock))
	}
	minLLC := sku.LLCWays * sku.CacheBlock
	if llcBytes < minLLC {
		llcBytes = minLLC
	}
	h := &Hierarchy{
		sku: sku,
		L1I: make([]*Cache, cores),
		L1D: make([]*Cache, cores),
		L2s: make([]*Cache, cores),
	}
	for i := 0; i < cores; i++ {
		h.L1I[i] = New(Config{Name: fmt.Sprintf("L1I.%d", i), SizeBytes: sku.L1I, Ways: 8, BlockBytes: sku.CacheBlock})
		h.L1D[i] = New(Config{Name: fmt.Sprintf("L1D.%d", i), SizeBytes: sku.L1D, Ways: 8, BlockBytes: sku.CacheBlock})
		h.L2s[i] = New(Config{Name: fmt.Sprintf("L2.%d", i), SizeBytes: sku.L2, Ways: 16, BlockBytes: sku.CacheBlock})
	}
	h.LLCs = New(Config{Name: llcName, SizeBytes: llcBytes, Ways: sku.LLCWays, BlockBytes: sku.CacheBlock, BIP: true})
	return h
}

// Cores returns the number of cores the hierarchy was built for.
func (h *Hierarchy) Cores() int { return len(h.L2s) }

// Access performs a demand access from core for addr, filling on the
// way down, and returns the level that satisfied it: the private
// step, then its LLC access.
func (h *Hierarchy) Access(core int, addr uint64, kind Kind) Level {
	lvl := h.AccessPrivate(core, addr, kind)
	if lvl == LLC && !h.LLCs.Access(addr, kind) {
		return Memory
	}
	return lvl
}

// AccessPrivate is Access's private step: the demand access to core's
// L1 and L2. It returns L1 or L2 where the access hit, or LLC when
// both missed and the access goes on to the shared LLC, which alone
// decides between LLC and Memory.
func (h *Hierarchy) AccessPrivate(core int, addr uint64, kind Kind) Level {
	l1 := h.L1D[core]
	if kind == Code {
		l1 = h.L1I[core]
	}
	if l1.Access(addr, kind) {
		return L1
	}
	if h.L2s[core].Access(addr, kind) {
		return L2
	}
	return LLC
}

// PrefetchL2 installs addr into core's L2 (and the LLC, as hardware
// prefetchers fetch through the shared cache). moved reports whether
// any line was installed; fromMemory reports whether the line had to
// be pulled from DRAM, i.e. the prefetch consumed memory bandwidth.
func (h *Hierarchy) PrefetchL2(core int, addr uint64, kind Kind) (moved, fromMemory bool) {
	movedL2 := h.PrefetchL2Private(core, addr, kind)
	fromMemory = h.LLCs.Prefetch(addr, kind)
	return movedL2 || fromMemory, fromMemory
}

// PrefetchL2Private is PrefetchL2's private step, the fill of core's
// L2, and reports whether it installed the line. The LLC fill always
// follows it.
func (h *Hierarchy) PrefetchL2Private(core int, addr uint64, kind Kind) (movedL2 bool) {
	return h.L2s[core].Prefetch(addr, kind)
}

// PrefetchL1 installs addr into core's L1 (DCU prefetchers), pulling
// through L2/LLC as needed. fromMemory reports DRAM bandwidth use.
func (h *Hierarchy) PrefetchL1(core int, addr uint64, kind Kind) (moved, fromMemory bool) {
	moved, toLLC := h.PrefetchL1Private(core, addr, kind)
	if toLLC {
		fromMemory = h.LLCs.Prefetch(addr, kind)
	}
	return moved, fromMemory
}

// PrefetchL1Private is PrefetchL1's private step, the fills of core's
// L1 and L2. Each lower level fills only if the level above it missed,
// and a fill reports whether the line was absent: the probe and the
// fill are one set scan. toLLC reports that the fill goes on to the
// LLC.
func (h *Hierarchy) PrefetchL1Private(core int, addr uint64, kind Kind) (moved, toLLC bool) {
	l1 := h.L1D[core]
	if kind == Code {
		l1 = h.L1I[core]
	}
	moved = l1.Prefetch(addr, kind)
	return moved, moved && h.L2s[core].Prefetch(addr, kind)
}

// LLCOp classifies an operation a core's private levels hand down to
// the shared LLC, as finely as the statistics built on its outcome
// need.
type LLCOp uint8

// LLC operations. A demand op is an access that missed both private
// levels; a fill is a prefetch fill.
const (
	LLCLoad      LLCOp = iota // demand data load
	LLCStore                  // demand data store
	LLCCode                   // demand code fetch
	LLCFill                   // fill whose private step installed a line
	LLCFillMoves              // fill whose private step installed nothing
	numLLCOps
)

// LLCLog holds one core's LLC operations in issue order, so the core's
// private levels can run ahead of the shared LLC and ApplyLLC can
// replay the operations later. Nothing a core's private levels or
// prefetchers do depends on the LLC's answers, which feed only
// statistics, so replaying every core's log in the order the
// operations would have reached the LLC leaves every cache and count
// as the immediate methods would.
//
// An entry packs the address with its op and kind in the low
// llcOpBits bits, which only name a byte within the line: the LLC
// locates a line by addr >> log2(block), and NewHierarchySized
// requires blocks of at least 1<<llcOpBits bytes.
type LLCLog struct {
	ops []uint64
}

// llcOpBits is how many low address bits an LLCLog entry uses for its
// op (3 bits) and kind (1 bit).
const llcOpBits = 4

// NewLLCLog returns an empty log with room for n operations.
func NewLLCLog(n int) LLCLog { return LLCLog{ops: make([]uint64, 0, n)} }

// Add appends one operation.
func (l *LLCLog) Add(addr uint64, kind Kind, op LLCOp) {
	l.ops = append(l.ops, addr&^(1<<llcOpBits-1)|uint64(op)<<1|uint64(kind))
}

// Len returns the number of operations logged.
func (l *LLCLog) Len() int { return len(l.ops) }

// Reset empties the log, keeping its storage.
func (l *LLCLog) Reset() { l.ops = l.ops[:0] }

// LLCOutcomes counts applied LLC operations by op and by what the LLC
// answered: [op][1] counts a demand hit or a fill that installed the
// line, that is pulled it from memory; [op][0] the rest.
type LLCOutcomes [numLLCOps][2]uint64

// ApplyLLC performs l's operations on the LLC in order, exactly as
// Access and the prefetch methods would have, and counts their
// outcomes into out.
func (h *Hierarchy) ApplyLLC(l *LLCLog, out *LLCOutcomes) {
	llc := h.LLCs
	for _, e := range l.ops {
		addr, kind, op := e&^(1<<llcOpBits-1), Kind(e&1), LLCOp(e>>1&(1<<(llcOpBits-1)-1))
		var yes bool
		if op < LLCFill {
			yes = llc.Access(addr, kind)
		} else {
			yes = llc.Prefetch(addr, kind)
		}
		if yes {
			out[op][1]++
		} else {
			out[op][0]++
		}
	}
}

// ApplyCDP partitions the LLC's ways between data and code, or clears
// the partition when cfg is disabled.
func (h *Hierarchy) ApplyCDP(dataWays, codeWays int) error {
	if dataWays == 0 && codeWays == 0 {
		h.LLCs.ClearPartition()
		return nil
	}
	return h.LLCs.SetPartition(dataWays, codeWays)
}

// ApplyCAT limits the LLC to its first n ways (Fig 10 sweep).
func (h *Hierarchy) ApplyCAT(n int) error { return h.LLCs.SetWayLimit(n) }

// CheckCDP returns the error ApplyCDP would return for this split on a
// hierarchy of sku, without building one.
func CheckCDP(sku *platform.SKU, dataWays, codeWays int) error {
	if dataWays == 0 && codeWays == 0 {
		return nil
	}
	return checkPartition(llcName, sku.LLCWays, dataWays, codeWays)
}

// CheckCAT returns the error ApplyCAT would return for n on a
// hierarchy of sku, without building one.
func CheckCAT(sku *platform.SKU, n int) error {
	return checkWayLimit(llcName, sku.LLCWays, n)
}

// Flush invalidates every cache, as across a reboot.
func (h *Hierarchy) Flush() {
	for i := range h.L2s {
		h.L1I[i].Flush()
		h.L1D[i].Flush()
		h.L2s[i].Flush()
	}
	h.LLCs.Flush()
}

// ResetStats zeroes all counters while keeping lines warm.
func (h *Hierarchy) ResetStats() {
	for i := range h.L2s {
		h.L1I[i].ResetStats()
		h.L1D[i].ResetStats()
		h.L2s[i].ResetStats()
	}
	h.LLCs.ResetStats()
}

// LevelStats aggregates per-level counters across cores.
type LevelStats struct {
	L1I, L1D, L2, LLC Stats
}

// Stats sums the per-core counters into one LevelStats.
func (h *Hierarchy) Stats() LevelStats {
	var ls LevelStats
	add := func(dst *Stats, src Stats) {
		for k := Kind(0); k < numKinds; k++ {
			dst.Accesses[k] += src.Accesses[k]
			dst.Misses[k] += src.Misses[k]
		}
		dst.PrefetchFills += src.PrefetchFills
		dst.PrefetchHits += src.PrefetchHits
	}
	for i := range h.L2s {
		add(&ls.L1I, h.L1I[i].Stats())
		add(&ls.L1D, h.L1D[i].Stats())
		add(&ls.L2, h.L2s[i].Stats())
	}
	add(&ls.LLC, h.LLCs.Stats())
	return ls
}
