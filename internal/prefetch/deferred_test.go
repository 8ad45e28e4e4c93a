package prefetch

import (
	"reflect"
	"testing"

	"softsku/internal/cache"
	"softsku/internal/knob"
	"softsku/internal/platform"
	"softsku/internal/rng"
)

// deferredOp decodes op i of a fuzz input: a line in 40 regions of 4
// pages, a byte within it, its kind, whether a data access is a store,
// and one of 16 IPs, so streams and strides form and the small caches
// below evict. The byte offsets (multiples of 9 up to 63) set every
// low address bit an LLCLog entry packs its op and kind into, as the
// unaligned demands of a real stream and their DCU next-line and
// IP-stride targets do.
func deferredOp(ops []byte, i int) (addr uint64, kind cache.Kind, store bool, ip uint64) {
	kind = cache.Data
	if ops[i+1]>>6 == 3 {
		kind = cache.Code
	}
	addr = uint64(ops[i]%40)<<24 | uint64(ops[i]>>6)<<12 | uint64(ops[i+1]&63)<<6 | uint64(ops[i+2]>>4&7)*9
	return addr, kind, ops[i+2]&0x80 != 0, uint64(ops[i+2] % 16)
}

// smallHierarchy is Skylake18's hierarchy shrunk to a few sets per
// level, so a short input misses, evicts and shares lines between
// cores at every level; mode adds a CDP split or a CAT limit.
func smallHierarchy(t *testing.T, cores int, mode byte) *cache.Hierarchy {
	sku := *platform.Skylake18()
	sku.L1I, sku.L1D, sku.L2 = 2<<10, 2<<10, 8<<10
	h := cache.NewHierarchySized(&sku, cores, 16<<10)
	var err error
	switch mode % 3 {
	case 1:
		err = h.ApplyCDP(7, 4)
	case 2:
		err = h.ApplyCAT(3)
	}
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// FuzzDeferredLLCMatchesImmediate is the exactness oracle for running
// cores' private levels ahead of the LLC. It splits an op stream into
// chunks dealt round-robin to 1–4 cores and drives it two ways: in
// order through the immediate Hierarchy and Engines, and with each
// core's private steps run to the end first, logging LLC ops per
// chunk, before ApplyLLC replays the logs chunk by chunk, core by
// core. Every cache's lines and counters, every engine's Stats and the
// load/store tally must match.
func FuzzDeferredLLCMatchesImmediate(f *testing.F) {
	src := rng.New(11)
	for _, mask := range []uint8{uint8(knob.PrefetchAll), uint8(knob.PrefetchL2HW | knob.PrefetchDCU), 0} {
		for cores := byte(1); cores <= 4; cores++ {
			ops := make([]byte, 3*400)
			line := 0
			for i := 0; i < len(ops); i += 3 {
				if src.Bool(0.2) {
					line = src.Intn(64)
				} else {
					line = (line + 1) % 64
				}
				ops[i] = byte(src.Intn(40)) | byte(src.Intn(2))<<6
				ops[i+1] = byte(line) | byte(src.Intn(4))<<6
				ops[i+2] = byte(src.Intn(256))
			}
			f.Add(mask, cores, byte(src.Intn(64)), cores, ops)
		}
	}
	f.Fuzz(func(t *testing.T, mask, cores, chunkLen, mode byte, ops []byte) {
		m := knob.PrefetchMask(mask) & knob.PrefetchAll
		k := 1 + int(cores)%4
		chunk := 1 + int(chunkLen)%64
		n := len(ops) / 3
		coreOf := func(i int) int { return (i / chunk) % k }
		roundOf := func(i int) int { return i / (chunk * k) }

		// Immediate: the ops in stream order.
		h := smallHierarchy(t, k, mode)
		var engines []*Engine
		for c := 0; c < k; c++ {
			engines = append(engines, NewEngine(h, c, m))
		}
		var tally [4][2]uint64
		for i := 0; i < n; i++ {
			addr, kind, store, ip := deferredOp(ops, 3*i)
			c := coreOf(i)
			lvl := h.Access(c, addr, kind)
			if kind == cache.Data {
				tally[lvl][b2i(store)]++
			}
			engines[c].OnAccess(addr, kind, ip, lvl)
		}

		// Deferred: each core's private steps to the end, one log per
		// chunk, then the logs in stream order.
		dh := smallHierarchy(t, k, mode)
		rounds := roundOf(max(n-1, 0)) + 1
		logs := make([][]cache.LLCLog, k)
		var dtally [4][2]uint64
		var deferred []*Engine
		for c := 0; c < k; c++ {
			logs[c] = make([]cache.LLCLog, rounds)
			var cur cache.LLCLog
			e := NewDeferredEngine(dh, c, m, &cur)
			deferred = append(deferred, e)
			round := 0
			for i := 0; i < n; i++ {
				if coreOf(i) != c {
					continue
				}
				if r := roundOf(i); r != round {
					logs[c][round], cur = cur, cache.LLCLog{}
					round = r
				}
				addr, kind, store, ip := deferredOp(ops, 3*i)
				lvl := dh.AccessPrivate(c, addr, kind)
				switch {
				case lvl == cache.LLC && kind == cache.Code:
					cur.Add(addr, kind, cache.LLCCode)
				case lvl == cache.LLC && store:
					cur.Add(addr, kind, cache.LLCStore)
				case lvl == cache.LLC:
					cur.Add(addr, kind, cache.LLCLoad)
				case kind == cache.Data:
					dtally[lvl][b2i(store)]++
				}
				e.OnAccess(addr, kind, ip, lvl)
			}
			logs[c][round] = cur
		}
		outs := make([]cache.LLCOutcomes, k)
		for r := 0; r < rounds; r++ {
			for c := 0; c < k; c++ {
				dh.ApplyLLC(&logs[c][r], &outs[c])
			}
		}
		var all cache.LLCOutcomes
		for c := range outs {
			for op := range outs[c] {
				all[op][0] += outs[c][op][0]
				all[op][1] += outs[c][op][1]
			}
		}
		dtally[cache.LLC] = [2]uint64{all[cache.LLCLoad][1], all[cache.LLCStore][1]}
		dtally[cache.Memory] = [2]uint64{all[cache.LLCLoad][0], all[cache.LLCStore][0]}

		if dtally != tally {
			t.Fatalf("deferred tally %v, immediate %v", dtally, tally)
		}
		for c := 0; c < k; c++ {
			got := deferred[c].Stats()
			got.Add(LLCStats(&outs[c]))
			if want := engines[c].Stats(); got != want {
				t.Fatalf("core %d: deferred engine %+v, immediate %+v", c, got, want)
			}
		}
		if !reflect.DeepEqual(dh, h) {
			t.Fatalf("deferred hierarchy differs: stats %+v, immediate %+v", dh.Stats(), h.Stats())
		}
	})
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
