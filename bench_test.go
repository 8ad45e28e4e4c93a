// Benchmarks that regenerate every table and figure of the paper's
// evaluation. Each benchmark runs the corresponding experiment on the
// simulated fleet and prints the reproduced table (with the paper's
// reference values alongside where it reports them), so
//
//	go test -bench=. -benchmem ./...
//
// leaves a complete paper-vs-measured record in its output.
// EXPERIMENTS.md summarizes the same results.
package softsku_test

import (
	"fmt"
	"testing"

	"softsku/internal/figures"
)

const benchSeed = 1

// benchCtx caches machines/peak searches across the characterization
// benchmarks, mirroring how one profiling campaign feeds many figures.
var benchCtx = figures.NewContext(benchSeed)

// run executes the experiment b.N times and prints the reproduced
// table once.
func run(b *testing.B, gen func() figures.Table) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		t := gen()
		if i == 0 {
			fmt.Println(t.String())
		}
	}
}

// ---- §2 characterization: Tables 1-2, Figs 1-12 ----

func BenchmarkTable1SKUs(b *testing.B) { run(b, figures.Table1SKUs) }

func BenchmarkTable2Throughput(b *testing.B) {
	run(b, func() figures.Table { return figures.Table2Throughput(benchCtx) })
}

func BenchmarkFig1Diversity(b *testing.B) {
	run(b, func() figures.Table { return figures.Fig1Diversity(benchCtx) })
}

func BenchmarkFig2RequestBreakdown(b *testing.B) {
	run(b, func() figures.Table { return figures.Fig2Breakdown(benchCtx) })
}

func BenchmarkFig3CPUUtil(b *testing.B) {
	run(b, func() figures.Table { return figures.Fig3CPUUtil(benchCtx) })
}

func BenchmarkFig4ContextSwitch(b *testing.B) {
	run(b, func() figures.Table { return figures.Fig4CtxSwitch(benchCtx) })
}

func BenchmarkFig5InstructionMix(b *testing.B) { run(b, figures.Fig5Mix) }

func BenchmarkFig6IPC(b *testing.B) {
	run(b, func() figures.Table { return figures.Fig6IPC(benchCtx) })
}

func BenchmarkFig7TopDown(b *testing.B) {
	run(b, func() figures.Table { return figures.Fig7TopDown(benchCtx) })
}

func BenchmarkFig8L1L2MPKI(b *testing.B) {
	run(b, func() figures.Table { return figures.Fig8L1L2(benchCtx) })
}

func BenchmarkFig9LLCMPKI(b *testing.B) {
	run(b, func() figures.Table { return figures.Fig9LLC(benchCtx) })
}

func BenchmarkFig10LLCWays(b *testing.B) {
	run(b, func() figures.Table { return figures.Fig10Ways(benchSeed) })
}

func BenchmarkFig11TLB(b *testing.B) {
	run(b, func() figures.Table { return figures.Fig11TLB(benchCtx) })
}

func BenchmarkFig12Bandwidth(b *testing.B) {
	run(b, func() figures.Table { return figures.Fig12Bandwidth(benchCtx) })
}

// ---- §6 µSKU evaluation: Figs 14-19 ----

func BenchmarkFig14FrequencySweep(b *testing.B) {
	run(b, func() figures.Table { return figures.Fig14Frequency(benchSeed) })
}

func BenchmarkFig15CoreCount(b *testing.B) {
	run(b, func() figures.Table { return figures.Fig15CoreCount(benchSeed) })
}

func BenchmarkFig16CDP(b *testing.B) {
	run(b, func() figures.Table { return figures.Fig16CDP(benchSeed) })
}

func BenchmarkFig17Prefetcher(b *testing.B) {
	run(b, func() figures.Table { return figures.Fig17Prefetcher(benchSeed) })
}

func BenchmarkFig18HugePages(b *testing.B) {
	run(b, func() figures.Table { return figures.Fig18HugePages(benchSeed) })
}

func BenchmarkFig19SoftSKU(b *testing.B) {
	run(b, func() figures.Table { return figures.Fig19SoftSKU(benchSeed) })
}

// ---- ablations (DESIGN.md §4) ----

func BenchmarkAblationSearch(b *testing.B) {
	run(b, func() figures.Table { return figures.AblationSearch(benchSeed) })
}

func BenchmarkAblationSampling(b *testing.B) {
	run(b, func() figures.Table { return figures.AblationSampling(benchSeed) })
}

func BenchmarkAblationMetric(b *testing.B) {
	run(b, func() figures.Table { return figures.AblationMetric(benchSeed) })
}

func BenchmarkAblationSHPSearch(b *testing.B) {
	run(b, func() figures.Table { return figures.AblationSHPSearch(benchSeed) })
}

// ---- §7 extensions implemented ----

func BenchmarkExtensionColocation(b *testing.B) {
	run(b, func() figures.Table { return figures.ExtensionColocation(benchSeed) })
}

func BenchmarkExtensionEnergy(b *testing.B) {
	run(b, func() figures.Table { return figures.ExtensionEnergy(benchSeed) })
}

func BenchmarkExtensionSPECValidation(b *testing.B) {
	run(b, func() figures.Table { return figures.ExtensionSPEC(benchSeed) })
}
