package prefetch

import (
	"testing"

	"softsku/internal/cache"
	"softsku/internal/knob"
	"softsku/internal/platform"
	"softsku/internal/rng"
)

func newHier() *cache.Hierarchy {
	return cache.NewHierarchy(platform.Skylake18(), 1)
}

// drive runs a sequential sweep through the hierarchy with the given
// prefetch mask and returns (demand L1D miss ratio, dram prefetch fills).
func drive(mask knob.PrefetchMask, lines int, rounds int) (float64, uint64) {
	h := newHier()
	e := NewEngine(h, 0, mask)
	for r := 0; r < rounds; r++ {
		base := uint64(r) << 32 // fresh addresses every round: always cold
		for i := 0; i < lines; i++ {
			addr := base + uint64(i*64)
			lvl := h.Access(0, addr, cache.Data)
			e.OnAccess(addr, cache.Data, 7, lvl)
		}
	}
	s := h.Stats()
	mr := float64(s.L1D.Misses[cache.Data]) / float64(s.L1D.Accesses[cache.Data])
	return mr, e.Stats().FromMemory
}

func TestDisabledIssuesNothing(t *testing.T) {
	h := newHier()
	e := NewEngine(h, 0, knob.PrefetchNone)
	for i := 0; i < 1000; i++ {
		addr := uint64(i * 64)
		e.OnAccess(addr, cache.Data, 1, h.Access(0, addr, cache.Data))
	}
	if s := e.Stats(); s.Issued != 0 {
		t.Fatalf("disabled engine issued %d prefetches", s.Issued)
	}
}

func TestSequentialStreamCovered(t *testing.T) {
	offMR, _ := drive(knob.PrefetchNone, 512, 20)
	onMR, dram := drive(knob.PrefetchAll, 512, 20)
	if onMR >= offMR*0.7 {
		t.Fatalf("prefetchers should cover a sequential stream: off=%.3f on=%.3f", offMR, onMR)
	}
	if dram == 0 {
		t.Fatal("prefetch coverage must cost DRAM traffic")
	}
}

func TestDCUOnlyHelpsSequential(t *testing.T) {
	offMR, _ := drive(knob.PrefetchNone, 512, 20)
	dcuMR, _ := drive(knob.PrefetchDCU, 512, 20)
	if dcuMR >= offMR {
		t.Fatalf("DCU next-line should help sequential: off=%.3f dcu=%.3f", offMR, dcuMR)
	}
}

func TestRandomStreamGainsLittle(t *testing.T) {
	run := func(mask knob.PrefetchMask) (float64, uint64) {
		h := newHier()
		e := NewEngine(h, 0, mask)
		src := rng.New(9)
		for i := 0; i < 50000; i++ {
			addr := uint64(src.Intn(1<<30)) &^ 63 // random lines over 1 GiB
			lvl := h.Access(0, addr, cache.Data)
			e.OnAccess(addr, cache.Data, uint64(src.Intn(1000)), lvl)
		}
		s := h.Stats()
		return float64(s.L1D.Misses[cache.Data]) / float64(s.L1D.Accesses[cache.Data]), e.Stats().FromMemory
	}
	offMR, _ := run(knob.PrefetchNone)
	onMR, dram := run(knob.PrefetchAll)
	if offMR-onMR > 0.15 {
		t.Fatalf("random stream should not be highly coverable: off=%.3f on=%.3f", offMR, onMR)
	}
	if dram == 0 {
		t.Fatal("prefetchers still burn bandwidth on random streams (adjacent-line)")
	}
}

func TestIPStrideDetectsConstantStride(t *testing.T) {
	h := newHier()
	e := NewEngine(h, 0, knob.PrefetchDCUIP)
	const stride = 256
	misses := 0
	for i := 0; i < 2000; i++ {
		addr := uint64(0x100000 + i*stride)
		lvl := h.Access(0, addr, cache.Data)
		if lvl != cache.L1 {
			misses++
		}
		e.OnAccess(addr, cache.Data, 42, lvl) // same IP throughout
	}
	// With a 256B stride every line is new (4 accesses per line... no:
	// 256B stride = a new line each access). Without prefetch, all 2000
	// would miss; IP-stride should cover most after warm-up.
	if misses > 400 {
		t.Fatalf("IP-stride covered too little: %d misses of 2000", misses)
	}
	if e.Stats().Issued == 0 {
		t.Fatal("no prefetches issued")
	}
}

func TestIPStrideIgnoresUnstablePattern(t *testing.T) {
	h := newHier()
	e := NewEngine(h, 0, knob.PrefetchDCUIP)
	src := rng.New(3)
	for i := 0; i < 2000; i++ {
		addr := uint64(src.Intn(1 << 28))
		lvl := h.Access(0, addr, cache.Data)
		e.OnAccess(addr, cache.Data, 42, lvl)
	}
	s := e.Stats()
	if s.Issued > 200 {
		t.Fatalf("unstable strides should rarely trigger: issued=%d", s.Issued)
	}
}

func TestAdjacentLineBuddy(t *testing.T) {
	h := newHier()
	e := NewEngine(h, 0, knob.PrefetchL2Adj)
	addr := uint64(0x40000) // 128B-aligned; buddy is +64
	lvl := h.Access(0, addr, cache.Data)
	if lvl != cache.Memory {
		t.Fatalf("expected cold miss, got %v", lvl)
	}
	e.OnAccess(addr, cache.Data, 1, lvl)
	// Buddy must now be in L2.
	if got := h.Access(0, addr+64, cache.Data); got > cache.L2 {
		t.Fatalf("buddy line not prefetched: hit at %v", got)
	}
}

func TestStreamsStopAtPageBoundary(t *testing.T) {
	h := newHier()
	e := NewEngine(h, 0, knob.PrefetchL2HW)
	// Walk the last lines of a page; the prefetcher must not cross into
	// the next page.
	page := uint64(0x7000)
	for i := 58; i < 64; i++ {
		addr := page + uint64(i*64)
		e.OnAccess(addr, cache.Data, 1, h.Access(0, addr, cache.Data))
	}
	nextPage := page + 4096
	if h.LLCs.Probe(nextPage) {
		t.Fatal("stream prefetcher crossed a 4 KiB page boundary")
	}
}

func TestSetMask(t *testing.T) {
	e := NewEngine(newHier(), 0, knob.PrefetchAll)
	e.SetMask(knob.PrefetchNone)
	if e.Mask() != knob.PrefetchNone {
		t.Fatal("SetMask failed")
	}
}

func TestResetStats(t *testing.T) {
	h := newHier()
	e := NewEngine(h, 0, knob.PrefetchAll)
	for i := 0; i < 100; i++ {
		addr := uint64(i * 64)
		e.OnAccess(addr, cache.Data, 1, h.Access(0, addr, cache.Data))
	}
	e.ResetStats()
	if s := e.Stats(); s.Issued != 0 || s.FromMemory != 0 {
		t.Fatalf("stats not reset: %+v", s)
	}
}

func TestMovedNeverExceedsIssued(t *testing.T) {
	h := newHier()
	e := NewEngine(h, 0, knob.PrefetchAll)
	src := rng.New(4)
	for i := 0; i < 20000; i++ {
		var addr uint64
		if src.Bool(0.7) {
			addr = uint64(i * 64) // sequential component
		} else {
			addr = uint64(src.Intn(1 << 26))
		}
		e.OnAccess(addr, cache.Data, uint64(src.Intn(32)), h.Access(0, addr, cache.Data))
	}
	s := e.Stats()
	if s.Moved > s.Issued || s.FromMemory > s.Moved {
		t.Fatalf("stat invariant violated: %+v", s)
	}
}

func BenchmarkEngineSequential(b *testing.B) {
	h := newHier()
	e := NewEngine(h, 0, knob.PrefetchAll)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := uint64(i * 64)
		e.OnAccess(addr, cache.Data, 7, h.Access(0, addr, cache.Data))
	}
}

// refEngine is the prefetch Engine as it stood before the stream
// table's pages moved into their own array: one loop over the entries
// that matches the page and tracks the LRU victim at once. It is the
// oracle FuzzEngineMatchesReference checks Engine against.
type refEngine struct {
	mask    knob.PrefetchMask
	h       *cache.Hierarchy
	clock   uint64
	streams [streamTableSize]refStream
	ips     [ipTableSize]ipEntry
	stats   Stats
}

type refStream struct {
	page     uint64
	lastLine uint64
	dir      int
	score    int
	stamp    uint64
}

func (e *refEngine) OnAccess(addr uint64, kind cache.Kind, ip uint64, level cache.Level) {
	if e.mask == knob.PrefetchNone {
		return
	}
	e.clock++
	if e.mask.Has(knob.PrefetchL2Adj) && level >= cache.LLC {
		buddy := addr ^ lineBytes
		e.issueL2(buddy&^uint64(lineBytes-1), kind)
	}
	if e.mask.Has(knob.PrefetchL2HW) {
		e.stream(addr, kind)
	}
	if kind == cache.Data {
		if e.mask.Has(knob.PrefetchDCU) && level >= cache.L2 {
			e.issueL1(addr+lineBytes, kind)
		}
		if e.mask.Has(knob.PrefetchDCUIP) {
			e.ipStride(addr, ip, kind)
		}
	}
}

func (e *refEngine) stream(addr uint64, kind cache.Kind) {
	page := addr / pageBytes
	line := (addr % pageBytes) / lineBytes
	idx := -1
	victim := 0
	for i := range e.streams {
		if e.streams[i].page == page+1 {
			idx = i
			break
		}
		if e.streams[i].stamp < e.streams[victim].stamp {
			victim = i
		}
	}
	if idx < 0 {
		e.streams[victim] = refStream{page: page + 1, lastLine: line, stamp: e.clock}
		return
	}
	s := &e.streams[idx]
	s.stamp = e.clock
	dir := 0
	switch {
	case line == s.lastLine+1:
		dir = 1
	case line+1 == s.lastLine:
		dir = -1
	}
	if dir == 0 || (s.dir != 0 && dir != s.dir) {
		s.dir, s.score, s.lastLine = dir, 0, line
		return
	}
	s.dir = dir
	s.score++
	s.lastLine = line
	if s.score >= 1 {
		for d := 1; d <= streamDepth; d++ {
			next := int64(line) + int64(dir)*int64(d)
			if next < 0 || next >= pageBytes/lineBytes {
				break
			}
			e.issueL2(page*pageBytes+uint64(next)*lineBytes, kind)
		}
	}
}

func (e *refEngine) ipStride(addr, ip uint64, kind cache.Kind) {
	ent := &e.ips[ip%ipTableSize]
	if ent.ip != ip {
		*ent = ipEntry{ip: ip, lastAddr: addr}
		return
	}
	stride := int64(addr) - int64(ent.lastAddr)
	ent.lastAddr = addr
	if stride == 0 {
		return
	}
	if stride == ent.stride {
		ent.score++
	} else {
		ent.stride = stride
		ent.score = 0
	}
	if ent.score >= 2 {
		target := int64(addr) + stride
		if target > 0 {
			e.issueL1(uint64(target), kind)
		}
	}
}

func (e *refEngine) issueL2(addr uint64, kind cache.Kind) {
	e.stats.Issued++
	moved, fromMem := e.h.PrefetchL2(0, addr, kind)
	if moved {
		e.stats.Moved++
	}
	if fromMem {
		e.stats.FromMemory++
	}
}

func (e *refEngine) issueL1(addr uint64, kind cache.Kind) {
	e.stats.Issued++
	moved, fromMem := e.h.PrefetchL1(0, addr, kind)
	if moved {
		e.stats.Moved++
	}
	if fromMem {
		e.stats.FromMemory++
	}
}

// FuzzEngineMatchesReference drives Engine and refEngine, each over
// its own small hierarchy, with the same demand accesses and requires
// identical prefetch and cache statistics after every access and an
// identical stream table at the end. Each access is three bytes: a
// page selector (40 pages, so the 16-entry table churns), a line and
// kind selector, and an instruction pointer.
func FuzzEngineMatchesReference(f *testing.F) {
	src := rng.New(9)
	for _, mask := range []uint8{uint8(knob.PrefetchAll), uint8(knob.PrefetchL2HW), 0} {
		for run := 0; run < 2; run++ {
			ops := make([]byte, 3*6000)
			line := 0
			for i := 0; i < len(ops); i += 3 {
				// Mostly short ascending or descending runs, so streams confirm.
				if src.Bool(0.2) {
					line = src.Intn(64)
				} else if run == 0 {
					line = (line + 1) % 64
				} else {
					line = (line + 63) % 64
				}
				ops[i] = byte(src.Intn(40))
				ops[i+1] = byte(line) | byte(src.Intn(4))<<6
				ops[i+2] = byte(src.Intn(256))
			}
			f.Add(mask, ops)
		}
	}
	f.Fuzz(func(t *testing.T, mask uint8, ops []byte) {
		newH := func() *cache.Hierarchy {
			return cache.NewHierarchySized(platform.Skylake18(), 1, 64<<10)
		}
		m := knob.PrefetchMask(mask) & knob.PrefetchAll
		h, rh := newH(), newH()
		e := NewEngine(h, 0, m)
		r := &refEngine{mask: m, h: rh}
		for i := 0; i+2 < len(ops); i += 3 {
			kind := cache.Data
			if ops[i+1]>>6 == 3 {
				kind = cache.Code
			}
			addr := uint64(ops[i]%40)<<24 | uint64(ops[i]>>6)<<12 | uint64(ops[i+1]&63)<<6
			ip := uint64(ops[i+2] % 16)
			lvl, rlvl := h.Access(0, addr, kind), rh.Access(0, addr, kind)
			if lvl != rlvl {
				t.Fatalf("access %d at %#x: level %v, reference %v", i/3, addr, lvl, rlvl)
			}
			e.OnAccess(addr, kind, ip, lvl)
			r.OnAccess(addr, kind, ip, rlvl)
			if e.Stats() != r.stats || h.Stats() != rh.Stats() {
				t.Fatalf("access %d at %#x: stats %+v/%+v, reference %+v/%+v",
					i/3, addr, e.Stats(), h.Stats(), r.stats, rh.Stats())
			}
		}
		for i, s := range r.streams {
			got := e.streams[i]
			if e.streamPages[i] != s.page || got.lastLine != s.lastLine || got.dir != s.dir ||
				got.score != s.score || got.stamp != s.stamp {
				t.Fatalf("stream %d: page %d %+v, reference %+v", i, e.streamPages[i], got, s)
			}
		}
	})
}
