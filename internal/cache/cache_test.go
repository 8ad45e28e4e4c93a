package cache

import (
	"fmt"
	"testing"
	"testing/quick"

	"softsku/internal/platform"
	"softsku/internal/rng"
)

func tiny() *Cache {
	// 4 sets x 2 ways x 64B = 512B.
	return New(Config{Name: "t", SizeBytes: 512, Ways: 2, BlockBytes: 64})
}

func TestHitAfterMiss(t *testing.T) {
	c := tiny()
	if c.Access(0x1000, Data) {
		t.Fatal("cold access must miss")
	}
	if !c.Access(0x1000, Data) {
		t.Fatal("second access must hit")
	}
	if !c.Access(0x1030, Data) {
		t.Fatal("same-line access must hit")
	}
	s := c.Stats()
	if s.Accesses[Data] != 3 || s.Misses[Data] != 1 {
		t.Fatalf("stats %+v", s)
	}
}

func TestLRUEviction(t *testing.T) {
	c := tiny() // 4 sets, 2 ways; addresses with the same set index conflict
	// Set stride: 4 sets * 64B = 256. Three lines mapping to set 0.
	a, b, d := uint64(0), uint64(256), uint64(512)
	c.Access(a, Data)
	c.Access(b, Data)
	c.Access(a, Data) // a most recent; b is LRU
	c.Access(d, Data) // evicts b
	if !c.Access(a, Data) {
		t.Fatal("a should survive (MRU)")
	}
	if c.Probe(b) {
		t.Fatal("b should have been evicted as LRU")
	}
}

func TestWorkingSetFitsVsOverflows(t *testing.T) {
	c := New(Config{Name: "l1", SizeBytes: 32 << 10, Ways: 8, BlockBytes: 64})
	// Working set half the cache: steady-state misses ~ 0.
	fits := func(lines int) float64 {
		c.Flush()
		for i := 0; i < lines; i++ { // warm-up round: exclude cold misses
			c.Access(uint64(i*64), Data)
		}
		c.ResetStats()
		for round := 0; round < 50; round++ {
			for i := 0; i < lines; i++ {
				c.Access(uint64(i*64), Data)
			}
		}
		s := c.Stats()
		return s.MissRatio(Data)
	}
	if mr := fits(256); mr > 0.01 { // 16 KiB in 32 KiB
		t.Fatalf("resident working set miss ratio %g", mr)
	}
	if mr := fits(1024); mr < 0.5 { // 64 KiB in 32 KiB, sequential sweep thrashes LRU
		t.Fatalf("overflowing working set miss ratio %g, want thrash", mr)
	}
}

func TestPartitionIsolation(t *testing.T) {
	c := New(Config{Name: "llc", SizeBytes: 64 << 10, Ways: 8, BlockBytes: 64})
	if err := c.SetPartition(6, 2); err != nil {
		t.Fatal(err)
	}
	// Fill code's 2 ways in set 0, then hammer data in the same set:
	// code lines must survive arbitrary data pressure.
	setStride := uint64(c.Sets() * 64)
	code1, code2 := uint64(0), setStride*100
	c.Access(code1, Code)
	c.Access(code2, Code)
	src := rng.New(1)
	for i := 0; i < 1000; i++ {
		c.Access(setStride*uint64(src.Intn(1000)+200), Data)
	}
	if !c.Probe(code1) || !c.Probe(code2) {
		t.Fatal("CDP must protect code ways from data evictions")
	}
}

func TestPartitionLookupStillHitsOtherSide(t *testing.T) {
	// CDP restricts allocation, not lookup: a line installed as data
	// before partitioning must still hit for later accesses.
	c := New(Config{Name: "llc", SizeBytes: 64 << 10, Ways: 8, BlockBytes: 64})
	c.Access(0x40, Data)
	if err := c.SetPartition(4, 4); err != nil {
		t.Fatal(err)
	}
	if !c.Access(0x40, Data) {
		t.Fatal("post-partition access must still find the line")
	}
}

func TestPartitionValidation(t *testing.T) {
	c := tiny()
	if err := c.SetPartition(2, 1); err == nil {
		t.Fatal("over-committed partition must error")
	}
	if err := c.SetPartition(0, 2); err == nil {
		t.Fatal("zero-way side must error")
	}
}

func TestWayLimitReducesCapacity(t *testing.T) {
	c := New(Config{Name: "llc", SizeBytes: 64 << 10, Ways: 8, BlockBytes: 64})
	run := func() float64 {
		c.Flush()
		c.ResetStats()
		src := rng.New(2)
		z := rng.NewZipf(src, 1024, 0.7) // 64 KiB working set
		for i := 0; i < 200000; i++ {
			c.Access(uint64(z.Next()*64), Data)
		}
		return c.Stats().MissRatio(Data)
	}
	full := run()
	if err := c.SetWayLimit(2); err != nil {
		t.Fatal(err)
	}
	limited := run()
	if limited <= full*1.2 {
		t.Fatalf("way limit should raise miss ratio: full=%g limited=%g", full, limited)
	}
	c.ClearPartition()
	restored := run()
	if restored > full*1.1 {
		t.Fatalf("ClearPartition should restore capacity: %g vs %g", restored, full)
	}
}

func TestWayLimitBounds(t *testing.T) {
	c := tiny()
	if err := c.SetWayLimit(0); err == nil {
		t.Fatal("limit 0 must error")
	}
	if err := c.SetWayLimit(3); err == nil {
		t.Fatal("limit above ways must error")
	}
}

func TestPrefetch(t *testing.T) {
	c := tiny()
	if !c.Prefetch(0x1000, Data) {
		t.Fatal("prefetch of absent line must move data")
	}
	if c.Prefetch(0x1000, Data) {
		t.Fatal("prefetch of resident line is useless")
	}
	if !c.Access(0x1000, Data) {
		t.Fatal("demand access after prefetch must hit")
	}
	s := c.Stats()
	if s.PrefetchFills != 1 || s.PrefetchHits != 1 {
		t.Fatalf("prefetch stats %+v", s)
	}
	if s.Misses[Data] != 0 {
		t.Fatal("prefetch-covered access should not count as demand miss")
	}
}

func TestProbeDoesNotPerturb(t *testing.T) {
	c := tiny()
	c.Access(0x0, Data)
	before := c.Stats()
	c.Probe(0x0)
	c.Probe(0x4000)
	if c.Stats() != before {
		t.Fatal("Probe must not change stats")
	}
}

func TestFlushInvalidatesKeepsStats(t *testing.T) {
	c := tiny()
	c.Access(0x0, Data)
	c.Flush()
	if c.Probe(0x0) {
		t.Fatal("flush must invalidate")
	}
	if c.Stats().Accesses[Data] != 1 {
		t.Fatal("flush must keep stats")
	}
	c.ResetStats()
	if c.Stats().TotalAccesses() != 0 {
		t.Fatal("ResetStats must zero counters")
	}
}

func TestStatsInvariantProperty(t *testing.T) {
	f := func(seed uint64) bool {
		c := New(Config{Name: "p", SizeBytes: 4 << 10, Ways: 4, BlockBytes: 64})
		src := rng.New(seed)
		for i := 0; i < 2000; i++ {
			kind := Data
			if src.Bool(0.3) {
				kind = Code
			}
			c.Access(uint64(src.Intn(4096))*64, kind)
		}
		s := c.Stats()
		// Misses never exceed accesses, per kind.
		return s.Misses[Code] <= s.Accesses[Code] && s.Misses[Data] <= s.Accesses[Data] &&
			s.TotalAccesses() == 2000
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMPKI(t *testing.T) {
	var s Stats
	s.Misses[Code] = 17
	if got := s.MPKI(Code, 10000); got != 1.7 {
		t.Fatalf("MPKI=%g", got)
	}
	if got := s.MPKI(Code, 0); got != 0 {
		t.Fatalf("MPKI with zero instructions = %g", got)
	}
}

func TestHierarchyFillPath(t *testing.T) {
	h := NewHierarchy(platform.Skylake18(), 2)
	if lvl := h.Access(0, 0x100000, Data); lvl != Memory {
		t.Fatalf("cold access hit %v", lvl)
	}
	if lvl := h.Access(0, 0x100000, Data); lvl != L1 {
		t.Fatalf("warm access hit %v, want L1", lvl)
	}
	// A different core misses L1/L2 but hits the shared LLC.
	if lvl := h.Access(1, 0x100000, Data); lvl != LLC {
		t.Fatalf("cross-core access hit %v, want LLC", lvl)
	}
}

func TestHierarchyCodeUsesL1I(t *testing.T) {
	h := NewHierarchy(platform.Skylake18(), 1)
	h.Access(0, 0x2000, Code)
	ls := h.Stats()
	if ls.L1I.Accesses[Code] != 1 || ls.L1D.TotalAccesses() != 0 {
		t.Fatalf("code access routed wrong: %+v", ls)
	}
}

func TestHierarchySharedLLCInterference(t *testing.T) {
	// Two cores with disjoint working sets interfere in the LLC:
	// aggregate footprint near LLC capacity raises per-core misses.
	sku := platform.Skylake18()
	run := func(cores int) float64 {
		h := NewHierarchy(sku, cores)
		src := rng.New(3)
		perCore := 300000 // lines; ~18 MiB each
		for i := 0; i < 400000; i++ {
			core := i % cores
			off := uint64(core) << 40
			h.Access(core, off+uint64(src.Intn(perCore))*64, Data)
		}
		s := h.LLCs.Stats()
		return s.MissRatio(Data)
	}
	one := run(1)
	two := run(2)
	if two <= one {
		t.Fatalf("LLC interference missing: 1-core %g vs 2-core %g", one, two)
	}
}

func TestHierarchyCDPAndCAT(t *testing.T) {
	h := NewHierarchy(platform.Skylake18(), 1)
	if err := h.ApplyCDP(6, 5); err != nil {
		t.Fatal(err)
	}
	if err := h.ApplyCDP(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := h.ApplyCAT(8); err != nil {
		t.Fatal(err)
	}
	if err := h.ApplyCAT(99); err == nil {
		t.Fatal("CAT beyond ways must error")
	}
}

// TestCheckMatchesApply: CheckCDP and CheckCAT let a machine validate
// its partitions before any hierarchy exists, so they must return
// exactly what ApplyCDP and ApplyCAT return.
func TestCheckMatchesApply(t *testing.T) {
	sku := platform.Skylake18()
	h := NewHierarchy(sku, 1)
	for d := -1; d <= sku.LLCWays+1; d++ {
		for c := -1; c <= sku.LLCWays+1; c++ {
			if got, want := fmt.Sprint(CheckCDP(sku, d, c)), fmt.Sprint(h.ApplyCDP(d, c)); got != want {
				t.Errorf("CDP %d/%d: CheckCDP %s, ApplyCDP %s", d, c, got, want)
			}
		}
		if got, want := fmt.Sprint(CheckCAT(sku, d)), fmt.Sprint(h.ApplyCAT(d)); got != want {
			t.Errorf("CAT %d: CheckCAT %s, ApplyCAT %s", d, got, want)
		}
	}
}

func TestHierarchyPrefetchL1PullsThrough(t *testing.T) {
	h := NewHierarchy(platform.Skylake18(), 1)
	moved, fromMem := h.PrefetchL1(0, 0x9000, Data)
	if !moved || !fromMem {
		t.Fatalf("L1 prefetch from memory: moved=%v fromMem=%v", moved, fromMem)
	}
	if lvl := h.Access(0, 0x9000, Data); lvl != L1 {
		t.Fatalf("after L1 prefetch, demand hit at %v", lvl)
	}
	// Prefetching a now-resident line is a no-op with no DRAM traffic.
	moved, fromMem = h.PrefetchL1(0, 0x9000, Data)
	if moved || fromMem {
		t.Fatalf("repeat prefetch: moved=%v fromMem=%v", moved, fromMem)
	}
}

func TestHierarchyPrefetchL2(t *testing.T) {
	h := NewHierarchy(platform.Skylake18(), 1)
	moved, fromMem := h.PrefetchL2(0, 0x9000, Data)
	if !moved || !fromMem {
		t.Fatalf("first L2 prefetch: moved=%v fromMem=%v", moved, fromMem)
	}
	if lvl := h.Access(0, 0x9000, Data); lvl != L2 {
		t.Fatalf("after L2 prefetch, demand hit at %v", lvl)
	}
	// An L1 prefetch of an LLC-resident line moves data but not from DRAM.
	h2 := NewHierarchy(platform.Skylake18(), 2)
	h2.Access(1, 0x9000, Data) // core 1 pulls it into the shared LLC
	moved, fromMem = h2.PrefetchL1(0, 0x9000, Data)
	if !moved || fromMem {
		t.Fatalf("LLC-sourced prefetch: moved=%v fromMem=%v", moved, fromMem)
	}
}

func BenchmarkAccess(b *testing.B) {
	c := New(Config{Name: "llc", SizeBytes: 24 << 20, Ways: 11, BlockBytes: 64})
	src := rng.New(1)
	z := rng.NewZipf(src, 1<<20, 0.8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(uint64(z.Next())*64, Data)
	}
}

func BenchmarkHierarchyAccess(b *testing.B) {
	h := NewHierarchy(platform.Skylake18(), 18)
	src := rng.New(1)
	z := rng.NewZipf(src, 1<<20, 0.8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Access(i%18, uint64(z.Next())*64, Data)
	}
}

// refCache is the cache model as it stood before the line arrays were
// split into keys, stamps and prefetch flags: one array of line
// structs, with the probe repeated inside Prefetch and InstallWarm. It
// is kept as the oracle FuzzCacheMatchesReference checks Cache
// against, step by step.
type refCache struct {
	cfg      Config
	sets     int
	ways     int
	blockLg2 uint
	lines    []refLine // sets × ways, row-major
	clock    uint32
	wayLo    [numKinds]int
	wayHi    [numKinds]int
	stats    Stats
}

type refLine struct {
	tag      uint64
	stamp    uint32
	valid    bool
	prefetch bool
}

func newRef(cfg Config) *refCache {
	sets := cfg.SizeBytes / (cfg.BlockBytes * cfg.Ways)
	if sets < 1 {
		sets = 1
	}
	lg2 := uint(0)
	for 1<<(lg2+1) <= cfg.BlockBytes {
		lg2++
	}
	c := &refCache{cfg: cfg, sets: sets, ways: cfg.Ways, blockLg2: lg2,
		lines: make([]refLine, sets*cfg.Ways)}
	c.ClearPartition()
	return c
}

func (c *refCache) SetPartition(dataWays, codeWays int) error {
	if dataWays < 1 || codeWays < 1 || dataWays+codeWays > c.ways {
		return fmt.Errorf("cache %s: invalid partition data=%d code=%d of %d ways",
			c.cfg.Name, dataWays, codeWays, c.ways)
	}
	c.wayLo[Data], c.wayHi[Data] = 0, dataWays
	c.wayLo[Code], c.wayHi[Code] = dataWays, dataWays+codeWays
	return nil
}

func (c *refCache) SetWayLimit(n int) error {
	if n < 1 || n > c.ways {
		return fmt.Errorf("cache %s: way limit %d outside [1,%d]", c.cfg.Name, n, c.ways)
	}
	for k := Kind(0); k < numKinds; k++ {
		c.wayLo[k], c.wayHi[k] = 0, n
	}
	return nil
}

func (c *refCache) ClearPartition() {
	for k := Kind(0); k < numKinds; k++ {
		c.wayLo[k], c.wayHi[k] = 0, c.ways
	}
}

func (c *refCache) set(addr uint64) int {
	return int((addr >> c.blockLg2) % uint64(c.sets))
}

func (c *refCache) tag(addr uint64) uint64 { return addr >> c.blockLg2 }

func (c *refCache) Access(addr uint64, kind Kind) bool {
	c.stats.Accesses[kind]++
	c.clock++
	set := c.set(addr)
	tag := c.tag(addr)
	base := set * c.ways
	row := c.lines[base : base+c.ways]
	for i := range row {
		if row[i].valid && row[i].tag == tag {
			if !c.cfg.BIP {
				row[i].stamp = c.clock
			}
			if row[i].prefetch {
				row[i].prefetch = false
				row[i].stamp = c.clock
				c.stats.PrefetchHits++
			}
			return true
		}
	}
	c.stats.Misses[kind]++
	c.install(row, tag, kind, false, false)
	return false
}

func (c *refCache) Probe(addr uint64) bool {
	set := c.set(addr)
	tag := c.tag(addr)
	base := set * c.ways
	for i := 0; i < c.ways; i++ {
		if c.lines[base+i].valid && c.lines[base+i].tag == tag {
			return true
		}
	}
	return false
}

func (c *refCache) Prefetch(addr uint64, kind Kind) bool {
	if c.Probe(addr) {
		return false
	}
	c.clock++
	set := c.set(addr)
	base := set * c.ways
	c.install(c.lines[base:base+c.ways], c.tag(addr), kind, true, false)
	c.stats.PrefetchFills++
	return true
}

func (c *refCache) InstallWarm(addr uint64, kind Kind) {
	if c.Probe(addr) {
		return
	}
	c.clock++
	set := c.set(addr)
	base := set * c.ways
	c.install(c.lines[base:base+c.ways], c.tag(addr), kind, false, true)
}

func (c *refCache) install(row []refLine, tag uint64, kind Kind, viaPrefetch, forceMRU bool) {
	lo, hi := c.wayLo[kind], c.wayHi[kind]
	victim := lo
	for i := lo; i < hi; i++ {
		if !row[i].valid {
			victim = i
			break
		}
		if row[i].stamp < row[victim].stamp {
			victim = i
		}
	}
	stamp := c.clock
	if c.cfg.BIP && viaPrefetch && !forceMRU && c.clock%32 != 0 {
		stamp = 1
	}
	row[victim] = refLine{tag: tag, stamp: stamp, valid: true, prefetch: viaPrefetch}
}

func (c *refCache) ScrambleAges(rnd func(n int) int) {
	span := uint32(len(c.lines)) * 4
	if span < 1024 {
		span = 1024
	}
	for i := range c.lines {
		if c.lines[i].valid {
			c.lines[i].stamp = uint32(rnd(int(span))) + 1
		}
	}
	c.clock += span + 1
}

func (c *refCache) Flush() {
	for i := range c.lines {
		c.lines[i] = refLine{}
	}
}

// refGeometries are the caches the differential test drives: power-of-
// two and odd set counts, BIP and true-LRU insertion, and the
// Skylake18 LLC's 36864 sets.
func refGeometries() []Config {
	sku := platform.Skylake18()
	return []Config{
		{Name: "tiny", SizeBytes: 512, Ways: 2, BlockBytes: 64},
		{Name: "odd", SizeBytes: 6 * 4 * 64, Ways: 4, BlockBytes: 64, BIP: true},
		{Name: "L1D", SizeBytes: sku.L1D, Ways: 8, BlockBytes: sku.CacheBlock},
		{Name: "odd-lru", SizeBytes: 3 * 11 * 64, Ways: 11, BlockBytes: 64},
		{Name: "LLC", SizeBytes: sku.LLC, Ways: sku.LLCWays, BlockBytes: sku.CacheBlock, BIP: true},
	}
}

// applyPartition applies selector p to both caches: none, a CAT way
// limit, or a CDP split, returning both errors.
func applyPartition(c *Cache, r *refCache, p uint8) (error, error) {
	ways := c.Ways()
	switch n := int(p>>2) % ways; p % 3 {
	case 1:
		return c.SetWayLimit(n + 1), r.SetWayLimit(n + 1)
	case 2:
		// Invalid splits (n == 0, or more than ways) exercise the error path.
		return c.SetPartition(n, ways-n), r.SetPartition(n, ways-n)
	default:
		c.ClearPartition()
		r.ClearPartition()
		return nil, nil
	}
}

// FuzzCacheMatchesReference drives Cache and refCache through the same
// operation sequence and requires identical return values and Stats at
// every step, and identical lines, stamps and clock at the end. Each
// operation is three bytes: an opcode, then a set and a tag selector
// that keep addresses on a few sets so every geometry evicts.
func FuzzCacheMatchesReference(f *testing.F) {
	src := rng.New(42)
	for g := range refGeometries() {
		for _, part := range []uint8{0, 1 + 4*3, 2 + 4*5, 2} {
			ops := make([]byte, 3*4000)
			for i := range ops {
				ops[i] = byte(src.Intn(256))
			}
			f.Add(uint8(g), part, ops)
		}
	}
	f.Fuzz(func(t *testing.T, geom, part uint8, ops []byte) {
		geoms := refGeometries()
		cfg := geoms[int(geom)%len(geoms)]
		c, r := New(cfg), newRef(cfg)
		if e1, e2 := applyPartition(c, r, part); fmt.Sprint(e1) != fmt.Sprint(e2) {
			t.Fatalf("partition %d: error %v, reference %v", part, e1, e2)
		}
		crnd, rrnd := rng.New(7), rng.New(7)
		for i := 0; i+2 < len(ops); i += 3 {
			op, a, b := ops[i], ops[i+1], ops[i+2]
			set := uint64(a % 4)
			if set == 3 {
				set = uint64(c.Sets() - 1)
			}
			tag := set + uint64(int(b)%(3*c.Ways()))*uint64(c.Sets())
			addr := tag<<6 | uint64(a>>2)
			kind := Kind(op >> 7)
			var got, want any
			switch op & 31 {
			case 31:
				c.Flush()
				r.Flush()
			case 30:
				c.ScrambleAges(crnd.Intn)
				r.ScrambleAges(rrnd.Intn)
			case 29:
				got, want = applyPartition(c, r, b)
				got, want = fmt.Sprint(got), fmt.Sprint(want)
			default:
				switch op & 3 {
				case 0:
					got, want = c.Access(addr, kind), r.Access(addr, kind)
				case 1:
					got, want = c.Prefetch(addr, kind), r.Prefetch(addr, kind)
				case 2:
					got, want = c.Probe(addr), r.Probe(addr)
				case 3:
					c.InstallWarm(addr, kind)
					r.InstallWarm(addr, kind)
				}
			}
			if got != want {
				t.Fatalf("%s op %d (%#x at %#x): got %v, reference %v", cfg.Name, i/3, op, addr, got, want)
			}
			if c.Stats() != r.stats {
				t.Fatalf("%s op %d: stats %+v, reference %+v", cfg.Name, i/3, c.Stats(), r.stats)
			}
		}
		if c.clock != r.clock {
			t.Fatalf("%s: clock %d, reference %d", cfg.Name, c.clock, r.clock)
		}
		for i, l := range r.lines {
			key := uint64(0)
			if l.valid {
				key = l.tag + 1
			}
			if c.keys[i] != key || c.stamps[i] != l.stamp || c.pf[i] != l.prefetch {
				t.Fatalf("%s line %d: key=%d stamp=%d pf=%v, reference %+v",
					cfg.Name, i, c.keys[i], c.stamps[i], c.pf[i], l)
			}
		}
	})
}
