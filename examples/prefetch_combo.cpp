// prefetch_combo — demonstrates the paper's §V-C result with the public API:
// stride prefetching and ReDHiP attack different problems (latency of
// predictable accesses vs energy/latency of doomed lookups) and compose.
//
// Picks one regular workload (bwaves) and one irregular workload (mcf) and
// prints the 2x2 of {SP, ReDHiP} on/off, plus the prefetcher's accuracy
// accounting and how ReDHiP trims the prefetcher's wasted lookup energy.
//
//   ./prefetch_combo [--scale 8] [--refs 300000]
#include <cstdio>

#include "common/cli.h"
#include "harness/report.h"
#include "harness/run.h"

using namespace redhip;

namespace {

void study(BenchmarkId bench, std::uint32_t scale, std::uint64_t refs) {
  RunSpec spec;
  spec.bench = bench;
  spec.scale = scale;
  spec.refs_per_core = refs;

  struct Cell {
    const char* name;
    Scheme scheme;
    bool prefetch;
  };
  const Cell cells[4] = {{"Base", Scheme::kBase, false},
                         {"SP", Scheme::kBase, true},
                         {"ReDHiP", Scheme::kRedhip, false},
                         {"SP+ReDHiP", Scheme::kRedhip, true}};
  SimResult results[4];
  for (int i = 0; i < 4; ++i) {
    spec.scheme = cells[i].scheme;
    spec.prefetch = cells[i].prefetch;
    results[i] = run_spec(spec);
  }

  std::printf("== %s ==\n", to_string(bench).c_str());
  TablePrinter t({"config", "speedup", "dyn energy", "useful pf",
                  "useless pf", "PT bypasses"});
  for (int i = 0; i < 4; ++i) {
    const Comparison cmp = compare(results[0], results[i]);
    t.add_row({cells[i].name, pct_delta(cmp.speedup),
               pct(cmp.dyn_energy_ratio),
               std::to_string(results[i].prefetch.useful),
               std::to_string(results[i].prefetch.useless),
               std::to_string(results[i].predictor.predicted_absent)});
  }
  t.print();
  std::printf("\n");
}

int prefetch_combo_main(int argc, char** argv) {
  CliOptions opts(argc, argv);
  const std::uint32_t scale = opts.get_uint32("scale", 8);
  const std::uint64_t refs = opts.get_uint64("refs", 300'000);

  std::printf(
      "Prefetching x ReDHiP (paper §V-C): complementary mechanisms\n\n");
  study(BenchmarkId::kBwaves, scale, refs);  // regular: SP shines
  study(BenchmarkId::kMcf, scale, refs);     // irregular: ReDHiP shines

  std::printf(
      "Expected shape: SP helps the regular workload, ReDHiP the irregular "
      "one;\ncombined they add on performance while ReDHiP offsets part of "
      "SP's energy cost.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return run_cli_main("prefetch_combo", prefetch_combo_main, argc, argv);
}
