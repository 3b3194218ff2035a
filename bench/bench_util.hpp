// Shared helpers for the bench binaries: minimal flag parsing and common
// headers/footers so all figures print uniformly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/hash.hpp"

namespace dart::bench {

// Parses "--name=value" style flags; returns fallback when absent.
inline double flag_double(int argc, char** argv, const char* name,
                          double fallback) {
  const std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return std::atof(argv[i] + prefix.size());
    }
  }
  return fallback;
}

inline std::uint64_t flag_u64(int argc, char** argv, const char* name,
                              std::uint64_t fallback) {
  const double v = flag_double(argc, argv, name,
                               static_cast<double>(fallback));
  return static_cast<std::uint64_t>(v);
}

// Pre-materializes `n` values of gen(0..n-1) before the timed region starts.
// Benchmarks index into the pool instead of synthesizing inputs (keys,
// payloads) per iteration, so items_per_sec measures the stage under test
// rather than the harness's input generation. Pools for write-path
// benchmarks should be large enough (≥ number of store slots) that cycling
// through them preserves the cold-slot behavior of a live feed.
template <typename Fn>
[[nodiscard]] auto make_pool(std::size_t n, Fn&& gen) {
  std::vector<decltype(gen(std::size_t{0}))> pool;
  pool.reserve(n);
  for (std::size_t i = 0; i < n; ++i) pool.push_back(gen(i));
  return pool;
}

inline void banner(const char* experiment, const char* paper_claim) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", experiment);
  std::printf("Paper: %s\n", paper_claim);
  std::printf("================================================================\n");
}

// Machine-readable benchmark output: collects config and result key/value
// pairs and writes them as BENCH_<name>.json so successive PRs can diff
// perf numbers without scraping console tables. The schema is deliberately
// flat: {"name": ..., "host": {...}, "config": {...}, "results": {...}}.
// The host block says what produced the numbers: CPU model, hardware
// threads, the SIMD backend dispatch chose, and the CMake build type.
class BenchJson {
 public:
  explicit BenchJson(std::string name) : name_(std::move(name)) {}

  void config(const std::string& key, double value) {
    config_num_.emplace_back(key, value);
  }
  void config(const std::string& key, const std::string& value) {
    config_str_.emplace_back(key, value);
  }
  void result(const std::string& key, double value) {
    results_.emplace_back(key, value);
  }

  // Writes BENCH_<name>.json into `dir`; returns false on I/O failure.
  bool write(const std::string& dir = ".") const {
    const std::string path = dir + "/BENCH_" + name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\n  \"name\": \"%s\",\n", name_.c_str());
    std::fprintf(f,
                 "  \"host\": {\n    \"cpu\": \"%s\",\n"
                 "    \"hardware_threads\": %u,\n"
                 "    \"simd_backend\": \"%s\",\n"
                 "    \"build_type\": \"%s\"\n  },\n  \"config\": {",
                 cpu_model().c_str(), std::thread::hardware_concurrency(),
                 std::string(simd_backend_name()).c_str(), DART_BUILD_TYPE);
    bool first = true;
    for (const auto& [k, v] : config_str_) {
      std::fprintf(f, "%s\n    \"%s\": \"%s\"", first ? "" : ",", k.c_str(),
                   v.c_str());
      first = false;
    }
    for (const auto& [k, v] : config_num_) {
      std::fprintf(f, "%s\n    \"%s\": %.17g", first ? "" : ",", k.c_str(), v);
      first = false;
    }
    std::fprintf(f, "\n  },\n  \"results\": {");
    first = true;
    for (const auto& [k, v] : results_) {
      std::fprintf(f, "%s\n    \"%s\": %.17g", first ? "" : ",", k.c_str(), v);
      first = false;
    }
    std::fprintf(f, "\n  }\n}\n");
    const bool ok = std::fclose(f) == 0;
    std::printf("[bench-json] wrote %s\n", path.c_str());
    return ok;
  }

 private:
  // The first "model name" of /proc/cpuinfo; "unknown" where there is none.
  static std::string cpu_model() {
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("model name", 0) != 0) continue;
      const auto colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) {
        return line.substr(colon + 2);
      }
    }
    return "unknown";
  }

  std::string name_;
  std::vector<std::pair<std::string, std::string>> config_str_;
  std::vector<std::pair<std::string, double>> config_num_;
  std::vector<std::pair<std::string, double>> results_;
};

}  // namespace dart::bench
