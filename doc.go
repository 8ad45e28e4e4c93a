// Package softsku reproduces "SoftSKU: Optimizing Server Architectures
// for Microservice Diversity @Scale" (Sriraman, Dhanotia, Wenisch —
// ISCA 2019) as a self-contained Go library.
//
// The paper makes two contributions, both implemented here:
//
//   - A characterization of the seven key microservices on Facebook's
//     compute-optimized fleet (Web, Feed1, Feed2, Ads1, Ads2, Cache1,
//     Cache2), exposing extreme diversity in OS interaction, cache and
//     TLB behaviour, instruction mix, and pipeline bottlenecks.
//
//   - µSKU, a design tool that creates microservice-specific "soft
//     SKUs" on fixed hardware by A/B-testing seven coarse-grain
//     configuration knobs (core/uncore frequency, core count, LLC
//     code/data prioritization, hardware prefetchers, transparent and
//     static huge pages) on live traffic.
//
// Since the production fleet is not available, the library includes a
// complete simulated substrate: parameterized Skylake/Broadwell server
// platforms, execution-driven cache/TLB/prefetcher models, a DRAM
// bandwidth-latency queueing model, a top-down cycle-accounting core
// model, synthetic microservice workloads calibrated to the paper's
// published characterization, a discrete-event request simulator, and
// EMON/ODS-style measurement infrastructure. DESIGN.md documents every
// substitution; EXPERIMENTS.md records paper-vs-measured results for
// every table and figure.
//
// # Quick start
//
//	svc, _ := softsku.ServiceByName("Web")
//	char, _ := softsku.Characterize(svc.Name, softsku.Seed(1))
//	fmt.Println(char)                      // IPC, MPKI, top-down, ...
//
//	in := softsku.DefaultTuneInput("Web", "Skylake18")
//	res, _ := softsku.Tune(in)             // run µSKU
//	fmt.Println(res.SoftSKU)               // the composed soft SKU
//
// The examples/ directory contains runnable programs, and
// go run ./cmd/characterize -tuning -ablations regenerates every table
// and figure of the paper's evaluation.
package softsku
