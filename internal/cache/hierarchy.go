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
// way down, and returns the level that satisfied it.
func (h *Hierarchy) Access(core int, addr uint64, kind Kind) Level {
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
	if h.LLCs.Access(addr, kind) {
		return LLC
	}
	return Memory
}

// PrefetchL2 installs addr into core's L2 (and the LLC, as hardware
// prefetchers fetch through the shared cache). moved reports whether
// any line was installed; fromMemory reports whether the line had to
// be pulled from DRAM, i.e. the prefetch consumed memory bandwidth.
func (h *Hierarchy) PrefetchL2(core int, addr uint64, kind Kind) (moved, fromMemory bool) {
	fromMemory = h.LLCs.Prefetch(addr, kind)
	movedL2 := h.L2s[core].Prefetch(addr, kind)
	return movedL2 || fromMemory, fromMemory
}

// PrefetchL1 installs addr into core's L1 (DCU prefetchers), pulling
// through L2/LLC as needed. fromMemory reports DRAM bandwidth use.
func (h *Hierarchy) PrefetchL1(core int, addr uint64, kind Kind) (moved, fromMemory bool) {
	l1 := h.L1D[core]
	if kind == Code {
		l1 = h.L1I[core]
	}
	moved = l1.Prefetch(addr, kind)
	// Each lower level fills only if the level above it missed, and a
	// fill reports whether the line was absent: the probe and the fill
	// are one set scan.
	if moved && h.L2s[core].Prefetch(addr, kind) {
		fromMemory = h.LLCs.Prefetch(addr, kind)
	}
	return moved, fromMemory
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
