// perfbench — the repository's end-to-end benchmark.
//
// One binary, two single-threaded closed-loop workloads (ingest_cold,
// query_hot). Every workload does fixed work derived from the
// seed and the run length, so two commits run on the same seed do identical
// work and their correctness figures repeat exactly. Rates and latencies
// are pooled over the fastest kPooledShare of the run's short fixed-work
// windows. Everything here drives the system through its public entry
// points only; this header holds what the workloads share:
//
//   - the benchmark's own input generation (Rng, Zipf, key/value derivation)
//     and the digest that proves two runs generated the same inputs;
//   - the tracer (spans kept in memory, per-layer self time) and the one
//     wrapper per layer call that records a span, plus a decorator node that
//     times a simulator node's receive();
//   - window bookkeeping and the result every workload returns.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/collector.hpp"
#include "core/query_service.hpp"
#include "net/netsim.hpp"
#include "query/gateway.hpp"
#include "switchsim/dart_switch.hpp"

namespace perfbench {

using Bytes = std::vector<std::byte>;

[[nodiscard]] inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// ---- input generation (independent of the program's own RNGs) --------------

[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t z) noexcept {
  z += 0x9E37'79B9'7F4A'7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58'476D'1CE4'E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D0'49BB'1331'11EBull;
  return z ^ (z >> 31);
}

class Rng {
 public:
  explicit Rng(std::uint64_t seed) noexcept : state_(seed) {}
  std::uint64_t next() noexcept { return mix64(state_++ * 0xD1B5'4A32'D192'ED03ull); }
  // Uniform in [0, bound) (Lemire's multiply-shift; bias is negligible at
  // the bounds used here and identical on every commit).
  std::uint64_t below(std::uint64_t bound) noexcept {
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(next()) * bound) >> 64);
  }
  double uniform() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

 private:
  std::uint64_t state_;
};

// Zipf(s) over ranks [0, n); rank 0 is the heaviest. Rejection-inversion
// sampling (Hörmann & Derflinger), so the sampler holds no table: a CDF over
// 2^20 ranks would be 8 MiB of benchmark state competing with the program
// for cache.
class Zipf {
 public:
  Zipf(std::uint64_t n, double skew);
  [[nodiscard]] std::uint64_t sample(Rng& rng) const noexcept;

 private:
  [[nodiscard]] double h(double x) const noexcept;
  [[nodiscard]] double h_integral(double x) const noexcept;
  [[nodiscard]] double h_integral_inverse(double x) const noexcept;

  std::uint64_t n_;
  double skew_;
  double h_integral_x1_, h_integral_n_, s_;
};

// 8-byte wire key of key id `id` (< 2^56) in key space `space`. The program
// hashes keys itself, so a plain encoding is enough, and it keeps the id
// recoverable from a key the program returns (key_id).
[[nodiscard]] inline Bytes key_bytes(std::uint64_t space, std::uint64_t id) {
  Bytes k(8);
  const std::uint64_t v = space << 56 | id;
  std::memcpy(k.data(), &v, 8);
  return k;
}
[[nodiscard]] inline std::uint64_t key_id(std::span<const std::byte> key) {
  std::uint64_t v = 0;
  std::memcpy(&v, key.data(), std::min<std::size_t>(8, key.size()));
  return v & ((std::uint64_t{1} << 56) - 1);
}

// Value written for version `version` of key `key`: a pure function, so the
// truth table stores only per-key versions.
void value_of(std::span<const std::byte> key, std::uint32_t version,
              std::span<std::byte> out) noexcept;

// Order-sensitive digest of every generated input.
class Digest {
 public:
  void add(std::uint64_t v) noexcept { h_ = mix64(h_ ^ v) + 0x632B'E59B'D9B4'E019ull; }
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t h_ = 0x6A09'E667'F3BC'C908ull;
};

// ---- tracing ----------------------------------------------------------------

enum class Layer : std::uint8_t {
  kSwitch,            // DartSwitchPipeline crafting
  kRdma,              // SimulatedRnic ingest (process_frames / receive)
  kNet,               // Simulator::run / send, minus node receive spans
  kCoreResolve,       // Collector::query
  kService,           // QueryServiceNode::receive
  kClient,            // OperatorClient issue / receive / take
  kGateway,           // QueryGateway::receive / on_epoch
  kGen,               // the benchmark's own input generation
  kCount
};

[[nodiscard]] const char* layer_name(Layer l) noexcept;

// Spans live in memory and are written out when the run ends. Self time and
// per-layer work units are accumulated online, so the span buffer can be
// bounded without losing the per-layer figures.
class Tracer {
 public:
  struct SpanRecord {
    std::uint64_t id, parent, request, start_ns, end_ns;
    Layer layer;
  };
  static constexpr std::size_t kMaxKeptSpans = 1u << 18;

  std::uint64_t begin() noexcept;
  void end(Layer layer, std::uint64_t units) noexcept;
  void set_request(std::uint64_t id) noexcept { request_ = id; }

  [[nodiscard]] std::uint64_t self_ns(Layer l) const noexcept {
    return self_ns_[static_cast<std::size_t>(l)];
  }
  [[nodiscard]] std::uint64_t units(Layer l) const noexcept {
    return units_[static_cast<std::size_t>(l)];
  }
  [[nodiscard]] std::uint64_t total_self_ns() const noexcept;
  [[nodiscard]] std::uint64_t spans_recorded() const noexcept { return next_id_ - 1; }
  // Writes kept spans as TSV (id parent request layer start end); false on
  // an I/O error.
  bool write(const std::string& path) const;

 private:
  struct Open {
    std::uint64_t id, start_ns, child_ns;
  };
  std::vector<Open> stack_;
  std::vector<SpanRecord> kept_;
  std::array<std::uint64_t, static_cast<std::size_t>(Layer::kCount)> self_ns_{};
  std::array<std::uint64_t, static_cast<std::size_t>(Layer::kCount)> units_{};
  std::uint64_t next_id_ = 1;
  std::uint64_t request_ = 0;
};

// The active tracer: non-null only inside a traced window.
inline Tracer* g_trace = nullptr;

// RAII span; a no-op when tracing is off. Work units may be set after the
// call, once they are known.
class Span {
 public:
  explicit Span(Layer layer) noexcept
      : layer_(layer), open_(g_trace != nullptr) {
    if (open_) g_trace->begin();
  }
  ~Span() {
    if (open_) g_trace->end(layer_, units_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  void units(std::uint64_t u) noexcept { units_ = u; }

 private:
  const Layer layer_;
  std::uint64_t units_ = 0;
  bool open_;
};

// ---- one benchmark-side function per layer call -----------------------------
//
// Each records its layer's span and work units. A later API change edits
// only these.
namespace call {

using Frames = std::vector<Bytes>;

Frames craft(dart::switchsim::DartSwitchPipeline& sw,
             std::span<const dart::switchsim::DartSwitchPipeline::TelemetryEvent> events);
// Frames presented to process_frames; returns how many executed.
std::size_t ingest(dart::rdma::SimulatedRnic& rnic, const Frames& frames);
dart::core::QueryResult resolve(const dart::core::Collector& collector,
                                std::span<const std::byte> key);
void send(dart::net::Simulator& sim, dart::net::NodeId from,
          dart::net::NodeId to, Bytes frame);
void run(dart::net::Simulator& sim);
void epoch(dart::query::QueryGateway& gateway, std::uint64_t epoch);

// Issues one operator query; returns its request id (0 = not sent).
std::uint64_t query(dart::core::OperatorClient& client, std::span<const std::byte> key);
std::optional<dart::core::QueryResponse> take(dart::core::OperatorClient& c,
                                              std::uint64_t id);

}  // namespace call

// Registers in a simulator in place of an RNIC, service, gateway or client
// and times the inner node's receive(). attach() is virtual, so the inner
// node keeps this node's simulator handle and id and sends as itself.
class TracedNode final : public dart::net::Node {
 public:
  enum class Kind : std::uint8_t { kRnic, kService, kGateway, kClient };
  TracedNode(dart::net::Node& inner, Kind kind) : inner_(&inner), kind_(kind) {}
  void attach(dart::net::Simulator& sim, dart::net::NodeId self) override {
    Node::attach(sim, self);
    inner_->attach(sim, self);
  }
  void receive(dart::net::Packet packet, std::uint64_t now) override;

 private:
  dart::net::Node* inner_;
  Kind kind_;
};

// ---- the collectors of a workload ------------------------------------------

// Collector c answers at 10.0.0.(10 + c).
class Pool {
 public:
  [[nodiscard]] static dart::net::Ipv4Addr ip(std::uint32_t c) {
    return dart::net::Ipv4Addr::from_octets(10, 0, 0, static_cast<std::uint8_t>(10 + c));
  }
  dart::core::Collector& add(const dart::core::DartConfig& cfg);
  [[nodiscard]] dart::core::Collector& operator[](std::size_t c) { return *collectors_[c]; }
  [[nodiscard]] std::vector<dart::core::Collector*> raw() const;
  [[nodiscard]] std::uint64_t executed() const;
  [[nodiscard]] std::uint64_t frames() const;
  // Index of the collector a crafted frame's destination IP names.
  [[nodiscard]] std::optional<std::uint32_t> target_of(const Bytes& frame) const;

 private:
  std::vector<std::unique_ptr<dart::core::Collector>> collectors_;
};

// ---- the query plane ----------------------------------------------------------
//
// Wired as WireFabric::attach_gateway wires it: one QueryServiceNode per
// collector behind a QueryGateway holding one virtual IP per collector, and
// an unmodified OperatorClient pointed at those virtual IPs.
//
// ResultCache entries (about 200 B each). The cache keeps stale entries until
// LRU eviction, so its capacity sets its memory; 1024 entries keep it, with
// the stores, inside the per-core L2. On a 4-vCPU KVM guest whose L2 is in
// effect shared with other tenants, a pointer chase over 256 KiB ran at a
// steady speed while one over 1 MiB or more swung by up to 50%, and
// workloads whose working set exceeded L2 swung the same way.
inline constexpr std::size_t kCacheEntries = 1024;
struct QueryPlane {
  QueryPlane(std::vector<dart::core::Collector*> collectors,
             const dart::core::ReportCrafter& crafter, dart::net::Simulator& sim,
             bool traced, std::uint64_t mgmt_latency_ns);
  // Adds `node` to the simulator (through a decorator when traced).
  dart::net::NodeId add(dart::net::Node& node, TracedNode::Kind kind);

  dart::net::Simulator* sim;
  bool traced;
  std::vector<std::pair<dart::net::Ipv4Addr, dart::net::NodeId>> arp;
  std::vector<std::unique_ptr<dart::core::QueryServiceNode>> services;
  std::unique_ptr<dart::query::QueryGateway> gateway;
  std::unique_ptr<dart::core::OperatorClient> client;
  std::vector<std::unique_ptr<TracedNode>> decorators;
  std::vector<dart::net::NodeId> rnic_nodes;  // filled by add_rnic()
  dart::net::NodeId add_rnic(dart::rdma::SimulatedRnic& rnic) {
    rnic_nodes.push_back(add(rnic, TracedNode::Kind::kRnic));
    return rnic_nodes.back();
  }
};

// ---- run options, windows, results -------------------------------------------

struct Options {
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;          // self-test geometry
  bool inject_wrong_truth = false;  // self-test: corrupt one expected value
};

// One fixed-work window. Report and query phases are timed separately.
struct Window {
  bool traced = false;
  double wall_s = 0;        // whole window, generation included
  std::uint64_t units = 0;  // the workload's primary work count (events)
  double report_s = 0;
  std::uint64_t reports = 0;  // frames executed into collector memory
  double query_s = 0;
  std::uint64_t answers = 0;
  // Latency samples; kept to the end of the run only by the windows that
  // can still rank among the fastest kPooledShare.
  std::vector<float> query_us;
  std::vector<float> probe_us;

  double rate() const { return wall_s > 0 ? static_cast<double>(units) / wall_s : 0; }
};

// The end-to-end metrics are taken from the fastest kPooledShare of a run's
// untraced windows by rate(): their report and query phases and their
// latency samples are pooled.
//
// Other tenants of a shared host's cores, caches and memory only ever slow
// a window down, in phases from a fraction of a second to about a minute.
// On a 4-vCPU KVM guest of a Xeon server, query_hot's per-window rates
// ranged over 2x within one run and the share of a run spent at each speed
// varied from run to run, so the median window moved with it; every run
// reached the quiet speed for a few percent of its windows, though.
inline constexpr double kPooledShare = 0.04;

// Correctness tally: every answer is checked against the benchmark's truth.
struct Answers {
  std::uint64_t answered = 0;
  std::uint64_t correct = 0;
  std::uint64_t wrong = 0;   // non-empty and disagreeing with truth
  std::uint64_t kv_answers = 0;
  std::uint64_t checksum_matches = 0;
  std::uint64_t unanswered = 0;
  std::uint64_t exact_mismatch = 0;  // answers that must match exactly did not
  bool inject = false;               // next exact check uses a corrupted truth

  // True once when a self-test injection is armed: the caller corrupts the
  // expected value of its next exact check.
  bool corrupt_next() noexcept { return std::exchange(inject, false); }
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Result {
  std::vector<Metric> e2e;
  std::vector<Metric> layer;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t answered = 0;
  std::uint64_t wrong = 0;
  std::vector<std::string> ledger_failures;
  std::string digest;
  std::string notes;  // workload geometry, for the human-readable header
  std::string per_window;  // quantiles over windows of their rates
  Tracer trace;       // traced runs only
};

// Percentile (linear interpolation) of `v`; sorts it.
template <typename T>
double percentile(std::vector<T>& v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const auto hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
double median(std::vector<double> v);
double peak_rss_mib();

// Fills `result` with the end-to-end metrics of the fastest untraced
// windows; `setup_runs` are the repeated bring-up times.
void finish_e2e(Result& result, const std::vector<Window>& windows,
                std::vector<double> setup_runs, const Answers& answers);

// Fills `result` with the per-layer metrics of a traced run and keeps its
// spans. The layer counters the system keeps itself (RNIC, links, gateway
// cache and ledger) cover the whole run; `sim` and `gateway` are null when
// the workload has none.
void finish_layers(Result& result, const std::vector<Window>& windows,
                   Tracer&& tracer, const Answers& answers, const Pool& pool,
                   const dart::net::Simulator* sim, dart::query::QueryGateway* gateway);

// Ledger checks; failures are appended. Every frame the switch emitted was
// executed, dropped by a link, or (a harness fault) not routable; the RNICs
// rejected nothing.
void check_rnic_ledger(Result& result, std::uint64_t emitted, const Pool& pool,
                       std::uint64_t link_drops, std::uint64_t misrouted);

void check_operator_ledger(Result& result, const dart::core::OperatorClient& c);
void check_gateway_ledger(Result& result, dart::query::QueryGateway& g);

// Sets attempted (frames emitted + reads issued) and failed: RNIC
// rejections, unroutable frames, unanswered reads, exact checks that
// disagreed and ledger failures.
void count_failures(Result& result, std::uint64_t emitted, std::uint64_t reads,
                    const Pool& pool, std::uint64_t misrouted, const Answers& answers);

// Workloads. Each returns its metrics; `result.failed` > 0 fails the run.
Result run_ingest_cold(const Options& opt);
Result run_query_hot(const Options& opt);

// Number of measured windows for a run of `seconds`, at the workload's
// nominal windows per second (at least 4; tiny runs use 2).
std::size_t window_count(double seconds, double per_second, bool tiny);

// How many of `n` windows are pooled: the fastest kPooledShare, at least one.
std::size_t pooled_count(std::size_t n);

// Frees a window's latency samples, capacity included.
void release_samples(Window& w);

// Runs one warm-up window and then `measured` windows of `body(window)`,
// returning the measured ones. Only windows that can still rank among the
// fastest kPooledShare keep their latency samples. In a traced run every
// second measured window is traced, so trace.overhead_ratio compares like
// with like; traced windows keep no samples.
template <typename Body>
std::vector<Window> run_windows(const Options& opt, std::size_t measured,
                                Tracer& tracer, Body&& body) {
  std::vector<Window> out;
  out.reserve(measured);
  const auto keep = pooled_count(measured);
  std::vector<std::size_t> kept;  // heap of indices into `out`, slowest first
  const auto slower = [&](std::size_t a, std::size_t b) {
    return out[a].rate() > out[b].rate();
  };
  for (std::size_t i = 0; i <= measured; ++i) {
    Window w;
    w.traced = opt.trace && i > 0 && i % 2 == 0;
    g_trace = w.traced ? &tracer : nullptr;
    const std::uint64_t t0 = now_ns();
    body(w);
    w.wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
    g_trace = nullptr;
    if (i == 0) continue;
    if (w.traced) release_samples(w);
    out.push_back(std::move(w));
    if (out.back().traced) continue;
    kept.push_back(out.size() - 1);
    std::push_heap(kept.begin(), kept.end(), slower);
    if (kept.size() > keep) {
      std::pop_heap(kept.begin(), kept.end(), slower);
      release_samples(out[kept.back()]);
      kept.pop_back();
    }
  }
  return out;
}

// Times `n` bring-ups of a deployment and keeps the last one: set-up is
// repeated so setup_s can be reported as a median.
template <typename Deployment, typename Make>
std::unique_ptr<Deployment> bring_up(std::size_t n, std::vector<double>& times,
                                     Make&& make) {
  std::unique_ptr<Deployment> d;
  for (std::size_t i = 0; i < n; ++i) {
    d.reset();  // release the previous instance before timing the next
    const std::uint64_t t0 = now_ns();
    d = make();
    times.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  return d;
}

}  // namespace perfbench
