// perfbench — the repository benchmark driver.
//
//   perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//             [--expected FILE] [--out DIR] [--record] [--record-exact]
//
// Runs one workload through the simulator's public API, checks every
// simulated output, and prints a human-readable summary followed by one
// JSON line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
// per-layer ones.  --record rewrites this (workload, seed)'s digests in
// the expected file instead of checking them; --record-exact (with
// sampled-resume) also records each sampled cell's exact values.
// See README.md in this directory.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unistd.h>

#include "bench.h"

namespace {

using perfbench::Metric;
using perfbench::Options;

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "{exact-matrix|design-sweep|sampled-resume} [--seed N] "
               "[--seconds S] [--trace 0|1] [--expected FILE] [--out DIR] "
               "[--record] [--record-exact]\n",
               why.c_str());
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& flag, const std::string& v) {
  std::uint64_t out = 0;
  const auto [p, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
  if (ec != std::errc() || p != v.data() + v.size()) {
    usage(flag + "=" + v + ": expected a non-negative integer");
  }
  return out;
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string value;
    const bool boolean = flag == "--record" || flag == "--record-exact";
    if (const auto eq = flag.find('='); eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag = flag.substr(0, eq);
    } else if (!boolean) {
      if (i + 1 >= argc) usage(flag + " needs a value");
      value = argv[++i];
    }
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = parse_u64(flag, value);
    } else if (flag == "--seconds") {
      o.seconds = static_cast<double>(parse_u64(flag, value));
      if (o.seconds < 1) usage("--seconds must be at least 1");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace must be 0 or 1");
      o.trace = value == "1";
    } else if (flag == "--expected") {
      o.expected_path = value;
    } else if (flag == "--out") {
      o.out_dir = value;
    } else if (flag == "--record") {
      o.record = true;
    } else if (flag == "--record-exact") {
      o.record = o.record_exact = true;
    } else {
      usage("unknown flag " + flag);
    }
  }
  const auto& names = perfbench::workload_names();
  if (std::find(names.begin(), names.end(), o.workload) == names.end()) {
    usage("unknown or missing --workload '" + o.workload + "'");
  }
  if (o.record && o.expected_path.empty()) usage("--record needs --expected");
  return o;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

// Full precision, so two runs compare on every digit.
std::string number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void print_host() {
  std::printf("host: {\"nproc\": %u, \"cpu_model\": \"%s\", \"compiler\": "
              "\"%s\", \"build_type\": \"%s\", \"ipo\": \"%s\", \"flags\": "
              "\"%s\", \"pgo\": false, \"march_native\": false}\n",
              std::thread::hardware_concurrency(),
              json_escape(cpu_model()).c_str(),
#if defined(__clang__)
              json_escape(std::string("clang ") + __clang_version__).c_str(),
#else
              json_escape(std::string("gcc ") + __VERSION__).c_str(),
#endif
              PERFBENCH_BUILD_TYPE, PERFBENCH_IPO,
              json_escape(PERFBENCH_CXX_FLAGS).c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  perfbench::Expectations expected(opt.expected_path);
  perfbench::Checker checker;
  perfbench::Tracer tracer;
  const std::string work_dir = opt.out_dir + "/work-" + opt.workload + "-" +
                               std::to_string(::getpid());
  perfbench::Context ctx{opt, expected, checker,
                         opt.trace ? &tracer : nullptr, work_dir};

  std::printf("== perfbench %s seed=%llu seconds=%g trace=%d\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0);
  print_host();
  std::fflush(stdout);

  perfbench::WorkloadResult result;
  try {
    std::filesystem::create_directories(work_dir);
    result = perfbench::run_workload(ctx);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    std::filesystem::remove_all(work_dir);
    return 1;
  }
  std::filesystem::remove_all(work_dir);

  if (opt.record) {
    expected.record(opt.workload, opt.seed, result.digests, result.exact);
    std::printf("recorded %zu digests (%zu exact) for %s seed %llu in %s\n",
                result.digests.size(), result.exact.size(), opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed),
                opt.expected_path.c_str());
  }
  if (opt.trace) {
    const std::string path = opt.out_dir + "/spans-" + opt.workload + "-seed" +
                             std::to_string(opt.seed) + ".jsonl";
    if (!tracer.write(path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("spans: %s\n", path.c_str());
  }

  const std::vector<Metric>& metrics =
      opt.trace ? result.per_layer : result.end_to_end;
  const std::uint64_t attempted = checker.attempted();
  const std::uint64_t failed = checker.failed();
  for (const Metric& m : metrics) {
    std::printf("  %-28s %16.6f %-8s (%s)\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.kind.c_str());
  }
  std::printf("  %-28s %16.6f %-8s (count: %llu of %llu cell runs)\n",
              "fail_ratio",
              attempted > 0 ? static_cast<double>(failed) /
                                  static_cast<double>(attempted)
                            : 1.0,
              "ratio", static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));

  std::string json = "{\"correct\": ";
  json += failed == 0 && attempted > 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
