#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "bench.h"
#include "common/file_io.h"
#include "common/fnv.h"
#include "harness/json_report.h"

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double tail(std::vector<double> v, double* pct) {
  if (v.empty()) {
    *pct = 0.0;
    return 0.0;
  }
  const std::size_t n = v.size();
  if (n < 21) {
    *pct = 50.0;
    return median(std::move(v));
  }
  std::sort(v.begin(), v.end());
  const std::size_t i = n - 11;
  *pct = 100.0 * static_cast<double>(i + 1) / static_cast<double>(n);
  return v[i];
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

std::uint64_t digest(const redhip::SimResult& r) {
  const std::string json = redhip::to_json(r);
  return redhip::Fnv1a().bytes(json.data(), json.size()).digest();
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

void Checker::attempt(int pass, const std::string& label) {
  attempted_.insert({pass, label});
}

void Checker::fail(int pass, const std::string& label, const std::string& why) {
  std::fprintf(stderr, "perfbench: FAIL %s (pass %d): %s\n", label.c_str(),
               pass, why.c_str());
  attempted_.insert({pass, label});
  failed_.insert({pass, label});
}

namespace {

std::string key(const std::string& workload, std::uint64_t seed,
                const std::string& cell) {
  return workload + "/" + std::to_string(seed) + "/" + cell;
}

}  // namespace

Expectations::Expectations(const std::string& path) : path_(path) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    lines_.push_back(line);
    std::istringstream ls(line);
    std::string kind, workload, cell;
    std::uint64_t seed = 0;
    if (!(ls >> kind >> workload >> seed >> cell)) continue;
    if (kind == "digest") {
      std::string d;
      if (ls >> d) digests_[key(workload, seed, cell)] = d;
    } else if (kind == "exact") {
      ExactValues e;
      if (ls >> e.ipc >> e.l1_hit_rate >> e.energy_j) {
        exact_[key(workload, seed, cell)] = e;
      }
    }
  }
}

bool Expectations::has_seed(const std::string& workload,
                            std::uint64_t seed) const {
  const std::string prefix = workload + "/" + std::to_string(seed) + "/";
  const auto it = digests_.lower_bound(prefix);
  return it != digests_.end() && it->first.compare(0, prefix.size(), prefix) == 0;
}

std::string Expectations::digest(const std::string& workload,
                                 std::uint64_t seed,
                                 const std::string& cell) const {
  const auto it = digests_.find(key(workload, seed, cell));
  return it == digests_.end() ? std::string() : it->second;
}

const ExactValues* Expectations::exact(const std::string& workload,
                                       std::uint64_t seed,
                                       const std::string& cell) const {
  const auto it = exact_.find(key(workload, seed, cell));
  return it == exact_.end() ? nullptr : &it->second;
}

void Expectations::record(const std::string& workload, std::uint64_t seed,
                          const std::map<std::string, std::uint64_t>& digests,
                          const std::map<std::string, ExactValues>& exact) {
  std::vector<std::string> kept;
  for (const std::string& line : lines_) {
    std::istringstream ls(line);
    std::string kind, w;
    std::uint64_t s = 0;
    const bool ours = (ls >> kind >> w >> s) &&
                      (kind == "digest" || kind == "exact") && w == workload &&
                      s == seed;
    // Exact values are only replaced when new ones were measured.
    if (ours && (kind == "digest" || !exact.empty())) continue;
    kept.push_back(line);
  }
  for (const auto& [cell, d] : digests) {
    kept.push_back("digest " + workload + " " + std::to_string(seed) + " " +
                   cell + " " + hex(d));
  }
  for (const auto& [cell, e] : exact) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), " %.17g %.17g %.17g", e.ipc, e.l1_hit_rate,
                  e.energy_j);
    kept.push_back("exact " + workload + " " + std::to_string(seed) + " " +
                   cell + buf);
  }
  // Comments first, then records sorted, so regeneration diffs stay small.
  std::vector<std::string> comments, records;
  for (std::string& l : kept) {
    (l.empty() || l[0] == '#' ? comments : records).push_back(std::move(l));
  }
  std::sort(records.begin(), records.end());
  std::string text;
  for (const std::string& l : comments) text += l + "\n";
  for (const std::string& l : records) text += l + "\n";
  redhip::write_file_atomic(path_, text).throw_if_error();
  lines_ = comments;
  lines_.insert(lines_.end(), records.begin(), records.end());
}

// --- Tracer -----------------------------------------------------------------

double Tracer::now() const { return seconds_since(t0_); }

Tracer::Scope::Scope(Tracer& t, const std::string& name, std::uint64_t cell)
    : t_(t), index_(static_cast<int>(t.spans_.size())), saved_parent_(t.current_) {
  t_.spans_.push_back({name, cell, t_.current_, 0.0, 0.0});
  t_.current_ = index_;
  t_.spans_[index_].start = t_.now();
}

Tracer::Scope::~Scope() {
  t_.spans_[index_].end = t_.now();
  t_.current_ = saved_parent_;
}

double Tracer::Scope::seconds() const {
  const Span& s = t_.spans_[index_];
  return (s.end > 0.0 ? s.end : t_.now()) - s.start;
}

double Tracer::total(const std::string& name) const {
  double t = 0.0;
  for (const Span& s : spans_) {
    if (s.name == name) t += s.end - s.start;
  }
  return t;
}

double Tracer::self(const std::string& name) const {
  std::vector<double> child(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child[s.parent] += s.end - s.start;
  }
  double t = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == name) t += spans_[i].end - spans_[i].start - child[i];
  }
  return t;
}

std::vector<std::string> Tracer::names() const {
  std::vector<std::string> out;
  for (const Span& s : spans_) {
    if (std::find(out.begin(), out.end(), s.name) == out.end()) {
      out.push_back(s.name);
    }
  }
  return out;
}

bool Tracer::write(const std::string& path) const {
  std::string text;
  char buf[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "{\"span\": %zu, \"name\": \"%s\", \"cell\": %llu, "
                  "\"parent\": %d, \"start_s\": %.9f, \"end_s\": %.9f}\n",
                  i, s.name.c_str(), static_cast<unsigned long long>(s.cell),
                  s.parent, s.start, s.end);
    text += buf;
  }
  return redhip::write_file_atomic(path, text).ok();
}

}  // namespace perfbench
