#include "harness/json_report.h"

#include <sstream>

namespace redhip {
namespace {

// Minimal streaming JSON writer: objects and arrays with comma management.
class JsonWriter {
 public:
  void begin_object() {
    comma();
    os_ << '{';
    first_ = true;
  }
  void end_object() {
    os_ << '}';
    first_ = false;
  }
  void begin_array(const std::string& key) {
    this->key(key);
    os_ << '[';
    first_ = true;
  }
  void end_array() {
    os_ << ']';
    first_ = false;
  }
  void key(const std::string& k) {
    comma();
    os_ << '"' << k << "\":";
    first_ = true;  // the value follows without a comma
  }
  void value(std::uint64_t v) {
    comma();
    os_ << v;
  }
  void value(double v) {
    comma();
    os_ << v;
  }
  // Identifier-safe strings only (enum names); no escaping performed.
  void value(const char* v) {
    comma();
    os_ << '"' << v << '"';
  }
  std::string str() const { return os_.str(); }

 private:
  void comma() {
    if (!first_) os_ << ',';
    first_ = false;
  }
  std::ostringstream os_;
  bool first_ = true;
};

void write_level(JsonWriter& w, const LevelEvents& ev) {
  w.begin_object();
  w.key("accesses");
  w.value(ev.accesses);
  w.key("hits");
  w.value(ev.hits);
  w.key("misses");
  w.value(ev.misses);
  w.key("tag_probes");
  w.value(ev.tag_probes);
  w.key("data_probes");
  w.value(ev.data_probes);
  w.key("fills");
  w.value(ev.fills);
  w.key("evictions");
  w.value(ev.evictions);
  w.key("invalidations");
  w.value(ev.invalidations);
  w.key("writebacks");
  w.value(ev.writebacks);
  w.key("skipped");
  w.value(ev.skipped);
  w.end_object();
}

}  // namespace

std::string to_json(const SimResult& r) {
  JsonWriter w;
  w.begin_object();

  w.key("total_refs");
  w.value(r.total_refs);
  w.key("exec_cycles");
  w.value(r.exec_cycles);
  w.key("total_core_cycles");
  w.value(r.total_core_cycles);
  w.key("elapsed_seconds");
  w.value(r.elapsed_seconds);
  w.key("recal_stall_cycles");
  w.value(r.recal_stall_cycles);
  w.key("memory_accesses");
  w.value(r.memory_accesses);
  w.key("demand_memory_accesses");
  w.value(r.demand_memory_accesses);
  w.key("memory_writebacks");
  w.value(r.memory_writebacks);
  w.key("predictor_disabled_refs");
  w.value(r.predictor_disabled_refs);

  w.begin_array("levels");
  for (const auto& lvl : r.levels) write_level(w, lvl);
  w.end_array();

  w.key("predictor");
  w.begin_object();
  w.key("lookups");
  w.value(r.predictor.lookups);
  w.key("updates");
  w.value(r.predictor.updates);
  w.key("predicted_absent");
  w.value(r.predictor.predicted_absent);
  w.key("predicted_present");
  w.value(r.predictor.predicted_present);
  w.key("true_positives");
  w.value(r.predictor.true_positives);
  w.key("false_positives");
  w.value(r.predictor.false_positives);
  w.key("recalibrations");
  w.value(r.predictor.recalibrations);
  w.key("recal_sets_read");
  w.value(r.predictor.recal_sets_read);
  w.end_object();

  // Only emitted when something happened — keeps fault-free reports stable.
  if (r.fault.injected_total() != 0 || r.fault.audit_checks != 0) {
    w.key("fault");
    w.begin_object();
    w.key("pt_bits_cleared");
    w.value(r.fault.pt_bits_cleared);
    w.key("pt_bits_set");
    w.value(r.fault.pt_bits_set);
    w.key("recal_chunks_dropped");
    w.value(r.fault.recal_chunks_dropped);
    w.key("trace_refs_perturbed");
    w.value(r.fault.trace_refs_perturbed);
    w.key("audit_checks");
    w.value(r.fault.audit_checks);
    w.key("invariant_violations");
    w.value(r.fault.invariant_violations);
    w.key("recovery_recalibrations");
    w.value(r.fault.recovery_recalibrations);
    w.key("recovery_stall_cycles");
    w.value(r.fault.recovery_stall_cycles);
    w.end_object();
  }

  w.key("prefetch");
  w.begin_object();
  w.key("issued");
  w.value(r.prefetch.issued);
  w.key("useful");
  w.value(r.prefetch.useful);
  w.key("useless");
  w.value(r.prefetch.useless);
  w.key("redundant");
  w.value(r.prefetch.redundant);
  w.end_object();

  w.key("energy_j");
  w.begin_object();
  w.begin_array("level_dynamic");
  for (double v : r.energy.level_dynamic_j) w.value(v);
  w.end_array();
  w.key("predictor_dynamic");
  w.value(r.energy.predictor_dynamic_j);
  w.key("recalibration");
  w.value(r.energy.recalibration_j);
  w.key("prefetcher");
  w.value(r.energy.prefetcher_j);
  w.key("memory");
  w.value(r.energy.memory_j);
  w.key("leakage");
  w.value(r.energy.leakage_j);
  w.key("dynamic_total");
  w.value(r.energy.dynamic_total_j());
  w.key("total");
  w.value(r.energy.total_j());
  w.end_object();

  w.begin_array("core_cycles");
  for (Cycles c : r.core_cycles) w.value(c);
  w.end_array();

  // Epoch series from the observability layer; absent (not an empty array)
  // when obs was off, so obs-free reports keep their pre-obs shape.  The
  // per-object schema matches the JSONL "epoch" event — scripts/
  // plot_epochs.py reads either source.
  if (!r.epochs.empty()) {
    w.begin_array("epochs");
    for (const EpochSample& e : r.epochs) {
      w.begin_object();
      w.key("index");
      w.value(e.index);
      w.key("end_ref");
      w.value(e.end_ref);
      w.key("end_cycles");
      w.value(e.end_cycles);
      w.key("refs");
      w.value(e.refs);
      w.key("l1_accesses");
      w.value(e.l1_accesses);
      w.key("l1_misses");
      w.value(e.l1_misses);
      w.key("lookups");
      w.value(e.lookups);
      w.key("predicted_absent");
      w.value(e.predicted_absent);
      w.key("predicted_present");
      w.value(e.predicted_present);
      w.key("tp");
      w.value(e.tp);
      w.key("fp");
      w.value(e.fp);
      w.key("tn");
      w.value(e.tn);
      w.key("fn");
      w.value(e.fn);
      w.key("recals");
      w.value(e.recalibrations);
      w.key("pt_occupancy");
      w.value(e.pt_occupancy);
      w.key("active");
      w.value(static_cast<std::uint64_t>(e.predictor_active ? 1 : 0));
      w.end_object();
    }
    w.end_array();
  }

  // Statistical-sampling estimates; absent for exact runs, so their reports
  // keep the pre-sampling shape.  Per-window objects match the JSONL
  // "sample_window" event schema.
  if (r.sampling.enabled) {
    w.key("sampling");
    w.begin_object();
    w.key("mode");
    w.value(std::uint64_t{1});
    w.key("period_refs");
    w.value(r.sampling.plan.period_refs);
    w.key("window_refs");
    w.value(r.sampling.plan.window_refs);
    w.key("warmup_refs");
    w.value(r.sampling.plan.warmup_refs);
    // A constant since warming has one path; kept because the golden
    // sampled reports and the benchmark digests contain it.
    w.key("warm_mode");
    w.value("warm");
    w.key("windows");
    w.value(r.sampling.windows);
    w.key("skipped_refs");
    w.value(r.sampling.skipped_refs);
    w.key("warmed_refs");
    w.value(r.sampling.warmed_refs);
    w.key("measured_refs");
    w.value(r.sampling.measured_refs);
    w.key("ipc");
    w.value(r.sampling.ipc.mean);
    w.key("ipc_ci95");
    w.value(r.sampling.ipc.ci95_half);
    w.key("l1_hit_rate");
    w.value(r.sampling.l1_hit_rate.mean);
    w.key("l1_hit_rate_ci95");
    w.value(r.sampling.l1_hit_rate.ci95_half);
    w.key("total_energy_j");
    w.value(r.sampling.total_energy_j.mean);
    w.key("total_energy_j_ci95");
    w.value(r.sampling.total_energy_j.ci95_half);
    w.begin_array("windows_detail");
    for (const WindowSample& ws : r.sampling.window_samples) {
      w.begin_object();
      w.key("index");
      w.value(ws.index);
      w.key("start_ref");
      w.value(ws.start_refs);
      w.key("refs");
      w.value(ws.refs);
      w.key("core_cycles");
      w.value(ws.core_cycles);
      w.key("l1_accesses");
      w.value(ws.l1_accesses);
      w.key("l1_hits");
      w.value(ws.l1_hits);
      w.key("energy_j");
      w.value(ws.energy_j);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }

  w.end_object();
  return w.str();
}

std::string to_json(const Comparison& c) {
  JsonWriter w;
  w.begin_object();
  w.key("speedup");
  w.value(c.speedup);
  w.key("dyn_energy_ratio");
  w.value(c.dyn_energy_ratio);
  w.key("total_energy_ratio");
  w.value(c.total_energy_ratio);
  w.key("perf_energy_metric");
  w.value(c.perf_energy_metric);
  w.end_object();
  return w.str();
}

}  // namespace redhip
