// spec_mix_study — a multiprogramming interference study using the public
// API, modeled on the paper's "mix" workload.
//
// Runs (a) each SPEC-like workload alone (duplicated on all 8 cores, the
// paper's methodology) and (b) the mixed workload (a different application
// per core), under Base and ReDHiP, and reports how cache interference in
// the shared LLC changes ReDHiP's effectiveness.
//
//   ./spec_mix_study [--scale 8] [--refs 300000]
#include <cstdio>

#include "common/cli.h"
#include "harness/report.h"
#include "harness/run.h"

using namespace redhip;

namespace {

int mix_study_main(int argc, char** argv) {
  CliOptions opts(argc, argv);
  RunSpec spec;
  spec.scale = opts.get_uint32("scale", 8);
  spec.refs_per_core = opts.get_uint64("refs", 300'000);

  std::printf(
      "Multiprogramming study: each SPEC profile duplicated 8x, then the "
      "8-way mix\n\n");
  TablePrinter t({"workload", "L4 hit (Base)", "offchip/L1miss",
                  "ReDHiP speedup", "ReDHiP dyn energy", "bypass rate"});

  std::vector<BenchmarkId> rows = spec_benchmarks();
  rows.push_back(BenchmarkId::kMix);
  for (BenchmarkId id : rows) {
    spec.bench = id;
    spec.scheme = Scheme::kBase;
    const SimResult base = run_spec(spec);
    spec.scheme = Scheme::kRedhip;
    const SimResult redhip = run_spec(spec);
    const Comparison cmp = compare(base, redhip);
    const double bypass_rate =
        static_cast<double>(redhip.predictor.predicted_absent) /
        static_cast<double>(redhip.predictor.lookups);
    t.add_row({to_string(id), pct(base.hit_rate(3)),
               pct(base.offchip_fraction()), pct_delta(cmp.speedup),
               pct(cmp.dyn_energy_ratio), pct(bypass_rate)});
  }
  t.print();
  std::printf(
      "\nReading the table: workloads whose L1 misses mostly leave the chip "
      "(high offchip fraction)\ngive ReDHiP the most to bypass; the mix row "
      "shows the effect of heterogeneous LLC contention.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return run_cli_main("spec_mix_study", mix_study_main, argc, argv);
}
