// perfbench command line.
//
//   perfbench --workload <ingest_cold|query_hot> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-out <path>]
//             [--result-out <path>] [--tiny] [--inject-wrong-truth]
//
// Prints a human-readable header (host fingerprint, input digest, every
// metric with its unit, ledger verdicts) and, as the last line of standard
// output, one JSON object: {"correct", "attempted", "failed", "metrics"}.
// Untraced runs report the end-to-end metrics; traced runs (--trace 1)
// report the per-layer metrics and write their spans to --trace-out.
// Exits 1 when any correctness or ledger check failed, 2 on bad usage.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "bench.hpp"
#include "common/hash.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
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

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + number(metrics[i].value) +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}";
}

int usage(const char* msg) {
  std::cerr << "perfbench: " << msg
            << "\nusage: perfbench --workload <ingest_cold|query_hot> "
               "--seed <n> --seconds <s> --trace <0|1> [--trace-out <path>] "
               "[--result-out <path>] [--tiny] [--inject-wrong-truth]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::string workload, trace_out, result_out;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
        return argv[++i];
      };
      if (a == "--workload") {
        workload = value();
      } else if (a == "--seed") {
        opt.seed = std::stoull(value());
      } else if (a == "--seconds") {
        opt.seconds = std::stod(value());
      } else if (a == "--trace") {
        opt.trace = std::stoi(value()) != 0;
      } else if (a == "--trace-out") {
        trace_out = value();
      } else if (a == "--result-out") {
        result_out = value();
      } else if (a == "--tiny") {
        opt.tiny = true;
      } else if (a == "--inject-wrong-truth") {
        opt.inject_wrong_truth = true;
      } else {
        return usage(("unknown argument " + a).c_str());
      }
    }
  } catch (const std::exception& e) {
    return usage(e.what());
  }
  if (!(opt.seconds > 0)) return usage("--seconds must be positive");

  Result r;
  if (workload == "ingest_cold") {
    r = run_ingest_cold(opt);
  } else if (workload == "query_hot") {
    r = run_query_hot(opt);
  } else {
    return usage("unknown workload");
  }

  std::ostringstream host;
  host << "\"cpu\": \"" << json_escape(cpu_model())
       << "\", \"nproc\": " << std::thread::hardware_concurrency()
       << ", \"simd\": \"" << json_escape(std::string(dart::simd_backend_name()))
       << "\", \"compiler\": \"" << json_escape(__VERSION__)
       << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE << "\"";

  const auto& metrics = opt.trace ? r.layer : r.e2e;
  std::cout << "# perfbench workload=" << workload << " seed=" << opt.seed
            << " seconds=" << opt.seconds << " trace=" << (opt.trace ? 1 : 0)
            << (opt.tiny ? " tiny" : "") << "\n# host {" << host.str() << "}"
            << "\n# inputs digest=" << r.digest << " (" << r.notes << ")"
            << "\n# answers answered=" << r.answered << " wrong=" << r.wrong << "\n";
  if (!r.per_window.empty()) std::cout << "# windows" << r.per_window << "\n";
  for (const auto& m : metrics) {
    std::printf("#   %-40s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const auto& f : r.ledger_failures) std::cout << "# LEDGER FAILED: " << f << "\n";

  if (opt.trace && !trace_out.empty()) {
    if (!r.trace.write(trace_out)) {
      std::cerr << "perfbench: cannot write " << trace_out << "\n";
    } else {
      std::cout << "# spans: " << r.trace.spans_recorded() << " recorded, written to "
                << trace_out << "\n";
    }
  }

  const bool ok = r.failed == 0 && r.ledger_failures.empty();
  const std::string line = "{\"correct\": " + std::string(ok ? "true" : "false") +
                           ", \"attempted\": " + std::to_string(r.attempted) +
                           ", \"failed\": " + std::to_string(r.failed) +
                           ", \"metrics\": " + metrics_json(metrics) + "}";
  if (!result_out.empty()) {
    std::ofstream out(result_out);
    out << "{\"workload\": \"" << workload << "\", \"seed\": " << opt.seed
        << ", \"seconds\": " << number(opt.seconds) << ", \"trace\": " << opt.trace
        << ", \"host\": {" << host.str() << "}, \"input_digest\": \"" << r.digest
        << "\", \"answered\": " << r.answered << ", \"wrong\": " << r.wrong
        << ", \"result\": " << line << "}\n";
  }
  std::cout << line << std::endl;
  return ok ? 0 : 1;
}
