// table1_config — regenerates the paper's Table I from the cacti_lite model
// and the default HierarchyConfig, confirming the simulated machine is the
// published one.
#include <cstdio>

#include "common/cli.h"
#include "energy/cacti_lite.h"
#include "harness/report.h"
#include "sim/config.h"

using namespace redhip;

int main(int argc, char** argv) {
  CliOptions opts(argc, argv);
  const std::uint32_t scale = opts.get_uint32("scale", 1);
  const HierarchyConfig c = HierarchyConfig::scaled(scale, Scheme::kRedhip);

  std::printf("Table I — architecture parameters (scale 1/%u)\n", scale);
  std::printf("%u-core, %.1fGHz\n\n", c.cores, c.freq_ghz);

  TablePrinter t({"level", "size", "assoc", "tag delay", "data delay",
                  "tag nJ", "data nJ", "leak W"});
  const char* names[] = {"L1", "L2", "L3", "L4"};
  for (std::size_t i = 0; i < c.levels.size(); ++i) {
    const auto& lvl = c.levels[i];
    t.add_row({names[i],
               std::to_string(lvl.geom.size_bytes >> 10) + "K",
               std::to_string(lvl.geom.ways) + "-way",
               std::to_string(lvl.energy.tag_delay),
               std::to_string(lvl.energy.data_delay),
               fixed(lvl.energy.tag_energy_nj, 4),
               fixed(lvl.energy.data_energy_nj, 4),
               fixed(lvl.energy.leakage_w, 4)});
  }
  t.add_row({"PT", std::to_string(c.redhip.table_bits / 8 / 1024) + "K",
             "direct", "-", std::to_string(c.redhip.energy.access_delay),
             "-", fixed(c.redhip.energy.access_energy_nj, 4),
             fixed(c.redhip.energy.leakage_w, 4)});
  if (opts.get_bool("csv", false)) {
    t.print_csv();
  } else {
    t.print();
  }

  std::printf(
      "\nPT: %llu 1-bit entries (p=%u), wire delay %llu cycles, "
      "recalibration every %llu L1 misses across %u banks\n",
      static_cast<unsigned long long>(c.redhip.table_bits),
      c.redhip.index_bits(),
      static_cast<unsigned long long>(c.redhip.energy.wire_delay),
      static_cast<unsigned long long>(c.redhip.recal_interval_l1_misses),
      c.redhip.banks);
  std::printf("PT area overhead vs LLC: %.2f%%\n",
              100.0 * static_cast<double>(c.redhip.table_bits / 8) /
                  static_cast<double>(c.llc().geom.size_bytes));
  std::printf("CBF at the same budget: 2^%u x %u-bit counters (%lluKB)\n",
              c.cbf.index_bits, c.cbf.counter_bits,
              static_cast<unsigned long long>(c.cbf.storage_bits() / 8 / 1024));
  return 0;
}
