// Minimal command-line / environment option parsing shared by the bench
// binaries and examples.  Supports `--name value`, `--name=value` and
// `--flag`, plus environment fallbacks (`REDHIP_BENCH_SCALE=4 fig06_...`).
//
// Numeric accessors are strict: the whole value must parse (no trailing
// garbage like `--refs=100x`), unsigned flags reject a sign (std::stoull
// would silently wrap `--refs=-1` to 2^64-1), and every failure is reported
// through the Status error path naming the flag and the offending value —
// never as a bare std::invalid_argument escaping from the std:: parsers.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"

namespace redhip {

class CliOptions {
 public:
  CliOptions(int argc, char** argv);

  // Value lookup order: command line (last occurrence wins), then
  // environment variable `env_prefix + UPPERCASE(name)`, then the supplied
  // default.
  std::string get(const std::string& name, const std::string& def) const;

  // Status-returning numeric accessors.  An absent flag yields the default;
  // a malformed value yields INVALID_ARGUMENT with a diagnostic of the form
  // `--refs=1e6: expected a decimal integer`.
  Result<std::int64_t> try_get_int(const std::string& name,
                                   std::int64_t def) const;
  // Full-range unsigned 64-bit parse: values up to 2^64-1 (seeds are u64;
  // a signed parse would reject anything above 2^63-1).  A leading '-' or
  // '+' is a usage error, not a silent wraparound.
  Result<std::uint64_t> try_get_uint64(const std::string& name,
                                       std::uint64_t def) const;
  Result<double> try_get_double(const std::string& name, double def) const;

  // Throwing conveniences over the try_* accessors: a malformed value
  // throws std::runtime_error carrying the Status text above, which the
  // bench mains surface as a usage error.
  std::int64_t get_int(const std::string& name, std::int64_t def) const;
  std::uint64_t get_uint64(const std::string& name, std::uint64_t def) const;
  // For 32-bit fields (--scale, --core): a value past 2^32-1 is out of
  // range, not truncated.
  std::uint32_t get_uint32(const std::string& name, std::uint32_t def) const;
  double get_double(const std::string& name, double def) const;
  bool get_bool(const std::string& name, bool def) const;
  bool has(const std::string& name) const;

  // Every command-line occurrence of a repeatable flag, in order (e.g.
  // `sweep --axis workload=mcf --axis table-size=512K,64K`).  Falls back to
  // the single environment value when the flag never appeared on the
  // command line; empty when absent everywhere.
  std::vector<std::string> get_all(const std::string& name) const;

  const std::vector<std::string>& positional() const { return positional_; }
  const std::string& program() const { return program_; }

  void set_env_prefix(std::string prefix) { env_prefix_ = std::move(prefix); }

 private:
  std::string program_;
  std::string env_prefix_ = "REDHIP_BENCH_";
  std::map<std::string, std::vector<std::string>> values_;
  std::vector<std::string> positional_;
};

// main() of the example programs: runs `body` and turns any exception that
// escapes it (a malformed number, an unknown workload, a bad config line)
// into `name: what()` on stderr and exit code 2, instead of an abort.
int run_cli_main(const char* name, int (*body)(int, char**), int argc,
                 char** argv);

}  // namespace redhip
