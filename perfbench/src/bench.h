// perfbench — shared pieces of the benchmark driver: options, metrics,
// summary statistics, output checks, recorded digests and the span tracer.
//
// Everything here is host-side bookkeeping.  The simulator is only ever
// called through its public API (run_matrix, run_sweep, run_spec and the
// public classes of each layer); simulated time never enters a metric.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "harness/run.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  std::string expected_path;  // recorded digests (read)
  std::string out_dir = ".bench_out";  // scratch state + span files
  bool record = false;        // rewrite this (workload, seed)'s digests
  bool record_exact = false;  // also record exact sampled-cell values
};

// One reported number.  `kind` says what it is measured in: "host" (host
// wall or CPU time, or a rate derived from it), "memory" (host memory) or
// "count" (a deterministic count or a ratio of counts).
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string kind;
};

// --- Statistics -------------------------------------------------------------

double median(std::vector<double> v);
// The highest nearest-rank percentile that still has at least ten samples
// beyond it.  Below 21 samples that percentile is not above the median, so
// the median stands in.  Returns the value and stores the percentile it
// sits at in *pct.
double tail(std::vector<double> v, double* pct);
double sum(const std::vector<double>& v);

double seconds_since(std::chrono::steady_clock::time_point t0);

// --- Output checks ----------------------------------------------------------

// FNV-1a of json_report(result): every simulated counter, cycle and joule,
// and the sampling report when there is one.  json_report carries no host
// field, so two runs of one (config, seed) must agree exactly.
std::uint64_t digest(const redhip::SimResult& r);
std::string hex(std::uint64_t v);

// Counts attempted and failed cell runs.  A cell run is keyed by
// (pass, label); it fails when it throws, overruns its time limit or fails
// any output check, and it is counted once however many checks it fails.
class Checker {
 public:
  void attempt(int pass, const std::string& label);
  void fail(int pass, const std::string& label, const std::string& why);
  std::uint64_t attempted() const { return attempted_.size(); }
  std::uint64_t failed() const { return failed_.size(); }

 private:
  std::set<std::pair<int, std::string>> attempted_;
  std::set<std::pair<int, std::string>> failed_;
};

// Recorded expectations (expected_digests.txt):
//   digest <workload> <seed> <cell> <16 hex digits>
//   exact <workload> <seed> <cell> <ipc> <l1_hit_rate> <total_energy_j>
// The exact line holds an exact (unsampled) run's values for a sampled
// cell; its sampled confidence intervals must cover them.
struct ExactValues {
  double ipc = 0.0;
  double l1_hit_rate = 0.0;
  double energy_j = 0.0;
};

class Expectations {
 public:
  // A missing file is an empty set of expectations (every seed held out).
  explicit Expectations(const std::string& path);

  bool has_seed(const std::string& workload, std::uint64_t seed) const;
  // Empty when nothing is recorded for the cell.
  std::string digest(const std::string& workload, std::uint64_t seed,
                     const std::string& cell) const;
  const ExactValues* exact(const std::string& workload, std::uint64_t seed,
                           const std::string& cell) const;

  // Replace every line of (workload, seed) and write the file back.
  void record(const std::string& workload, std::uint64_t seed,
              const std::map<std::string, std::uint64_t>& digests,
              const std::map<std::string, ExactValues>& exact);

 private:
  std::string path_;
  std::vector<std::string> lines_;  // every line, for rewriting
  std::map<std::string, std::string> digests_;
  std::map<std::string, ExactValues> exact_;
};

// --- Tracing ----------------------------------------------------------------

// In-memory span recorder for the traced run.  A span has a name, start,
// end and parent; spans of one cell share its id.  Spans are written out
// once, when the benchmark ends.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::uint64_t cell = 0;
    int parent = -1;
    double start = 0.0;  // seconds since the tracer was created
    double end = 0.0;
  };

  class Scope {
   public:
    Scope(Tracer& t, const std::string& name, std::uint64_t cell);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    double seconds() const;

   private:
    Tracer& t_;
    int index_;
    int saved_parent_;
  };

  Tracer() : t0_(std::chrono::steady_clock::now()) {}

  // Sum of the durations of every span with this name.
  double total(const std::string& name) const;
  // Sum of self times (duration minus the children's durations).
  double self(const std::string& name) const;
  // Every span name, for the self-time table.
  std::vector<std::string> names() const;
  bool write(const std::string& path) const;

 private:
  double now() const;

  std::chrono::steady_clock::time_point t0_;
  std::vector<Span> spans_;
  int current_ = -1;
};

// --- Workloads ---------------------------------------------------------------

struct WorkloadResult {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;  // filled in the traced run only
  // Digests of this run's cells (pass 0) and exact values, for --record.
  std::map<std::string, std::uint64_t> digests;
  std::map<std::string, ExactValues> exact;
};

struct Context {
  const Options& opt;
  const Expectations& expected;
  Checker& checker;
  Tracer* tracer;          // null unless --trace 1
  std::string work_dir;    // this run's scratch directory (removed at exit)
};

const std::vector<std::string>& workload_names();
// The deepest window snapshot (w + 1 a power of two, w < windows) a resumed
// sampled run with checkpoint file `ckpt_path` restores from.
std::string deepest_snapshot(const std::string& ckpt_path,
                             std::uint64_t windows);
WorkloadResult run_workload(Context& ctx);

// Per-layer probes, shared by all workloads (layers.cc).  `cells` are the
// workload's cells, `results` their simulated results from the timed phase
// (same order) and `api_cell_s` the wall time the public API call took for
// each of them in this run.
struct LayerInput {
  std::vector<redhip::RunSpec> cells;
  std::vector<redhip::SimResult> results;
  std::vector<double> api_cell_s;
  std::vector<double> queue_wait_s;
  double busy_s = 0.0;       // sum of cell wall times in one pass
  double pass_wall_s = 0.0;  // that pass's wall time
  std::size_t jobs = 1;
  // design-sweep's warm pass (hits / cells and wall); zero elsewhere, where
  // the result-cache probe measures them instead.
  double warm_hit_ratio = 0.0;
  double warm_pass_s = 0.0;
  // sampled-resume measures warm, checkpoint and duty-cycle metrics on its
  // own runs; elsewhere a sampled probe of one cell stands in.
  bool sampled = false;
  std::uint64_t ckpt_saves = 0;
  double ckpt_save_cpu_s = 0.0;
  std::vector<std::string> snapshot_paths;  // deepest snapshot per cell
};

std::vector<Metric> measure_layers(Context& ctx, const LayerInput& in);

}  // namespace perfbench
