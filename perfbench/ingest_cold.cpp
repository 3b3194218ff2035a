// ingest_cold — craft and cold-DMA ingest into a store larger than L3.
//
// One KV collector with a 2^25-slot store (24 B/slot = 768 MiB, 2.5× the
// 300 MiB shared L3), N=2, b=32, 20 B values, kAllSlots; uniform keys over
// 2^23 ids (keys × N = ½ of the slots). Bursts of 32 events go through
// on_telemetry_batch → process_frames with no simulator, so switchsim and
// rdma do nearly all the work and the net, query and gateway layers are
// absent. After every 16 bursts (1024 reports) the workload resolves one
// already-written key with Collector::query (a DRAM-bound read) and runs one
// probe: a fresh key is crafted, ingested and read back, timed from craft
// to answer.
#include <array>

#include "bench.hpp"

namespace perfbench {

using namespace dart;

namespace {

constexpr std::uint64_t kKeySpace = 1;
constexpr std::uint64_t kProbeSpace = 2;
constexpr std::size_t kBurst = 32;
constexpr std::size_t kBurstsPerBlock = 16;  // 16 × 32 events × N=2 = 1024 reports

struct Geometry {
  std::uint64_t slots_log2;
  std::uint64_t keys_log2;
  std::size_t blocks_per_window;
};

core::DartConfig dart_config(const Geometry& g) {
  core::DartConfig cfg;
  cfg.n_slots = std::uint64_t{1} << g.slots_log2;
  cfg.n_addresses = 2;
  cfg.checksum_bits = 32;
  cfg.value_bytes = 20;
  cfg.write_mode = core::WriteMode::kAllSlots;
  return cfg;
}

struct Deployment {
  explicit Deployment(const core::DartConfig& cfg)
      : sw([&] {
          switchsim::DartSwitchPipeline::Config sc;
          sc.dart = cfg;
          sc.write_mode = core::WriteMode::kAllSlots;
          sc.ip = net::Ipv4Addr::from_octets(10, 0, 1, 1);
          return sc;
        }()),
        collector(pool.add(cfg)) {
    sw.load_collector(collector.remote_info());
  }
  Pool pool;
  switchsim::DartSwitchPipeline sw;
  core::Collector& collector;
};

}  // namespace

Result run_ingest_cold(const Options& opt) {
  const Geometry geo = opt.tiny ? Geometry{12, 10, 8} : Geometry{25, 23, 512};
  const auto cfg = dart_config(geo);
  const std::uint64_t n_keys = std::uint64_t{1} << geo.keys_log2;

  std::vector<double> setup_runs;
  auto d = bring_up<Deployment>(opt.tiny ? 1 : 3, setup_runs,
                                [&] { return std::make_unique<Deployment>(cfg); });

  // Truth: per-key version; values are derived from (key, version).
  std::vector<std::uint32_t> versions(n_keys, 0);

  Rng rng(mix64(opt.seed) ^ 0x1C01D);
  Digest digest;
  Answers answers;
  answers.inject = opt.inject_wrong_truth;
  Tracer tracer;
  std::uint64_t probes = 0;
  std::uint64_t queries_issued = 0;

  std::array<std::array<std::byte, 8>, kBurst> keys{};
  std::array<std::array<std::byte, 20>, kBurst> values{};
  std::array<switchsim::DartSwitchPipeline::TelemetryEvent, kBurst> events{};
  Bytes expected(cfg.value_bytes);

  const auto check_kv = [&](const core::QueryResult& res, bool exact) {
    ++answers.answered;
    ++answers.kv_answers;
    answers.checksum_matches += res.checksum_matches;
    if (exact && answers.corrupt_next()) expected[0] ^= std::byte{1};
    const bool found = res.outcome == core::QueryOutcome::kFound;
    if (found && res.value == expected) {
      ++answers.correct;
    } else {
      if (found) ++answers.wrong;
      if (exact) ++answers.exact_mismatch;
    }
  };

  const auto block = [&](Window& w) {
    for (std::size_t b = 0; b < kBurstsPerBlock; ++b) {
      {
        Span g(Layer::kGen);
        g.units(kBurst);
        for (std::size_t i = 0; i < kBurst; ++i) {
          const std::uint64_t id = rng.below(n_keys);
          const std::uint32_t v = ++versions[id];
          const auto k = key_bytes(kKeySpace, id);
          std::memcpy(keys[i].data(), k.data(), 8);
          value_of(k, v, values[i]);
          events[i] = {keys[i], values[i]};
          digest.add(id);
          digest.add(v);
        }
      }
      const std::uint64_t t0 = now_ns();
      const auto frames = call::craft(d->sw, events);
      const std::size_t executed = call::ingest(d->collector.rnic(), frames);
      w.report_s += static_cast<double>(now_ns() - t0) * 1e-9;
      w.reports += executed;
      w.units += kBurst;
    }

    // One resolve of an already-written key, uniformly over those written.
    Bytes qkey;
    std::uint64_t qid = 0;
    {
      Span g(Layer::kGen);
      do {
        qid = rng.below(n_keys);
      } while (versions[qid] == 0);
      qkey = key_bytes(kKeySpace, qid);
      digest.add(qid);
    }
    std::uint64_t t0 = now_ns();
    const auto res = call::resolve(d->collector, qkey);
    std::uint64_t dt = now_ns() - t0;
    ++queries_issued;
    w.query_s += static_cast<double>(dt) * 1e-9;
    ++w.answers;
    w.query_us.push_back(static_cast<float>(dt) * 1e-3f);
    value_of(qkey, versions[qid], expected);
    check_kv(res, false);

    // Probe: a fresh key from craft to answer.
    std::array<std::byte, 20> pval{};
    Bytes pkey;
    {
      Span g(Layer::kGen);
      g.units(1);
      pkey = key_bytes(kProbeSpace, probes++);
      value_of(pkey, 1, pval);
      digest.add(probes);
    }
    const switchsim::DartSwitchPipeline::TelemetryEvent probe{pkey, pval};
    t0 = now_ns();
    const auto pframes = call::craft(d->sw, std::span(&probe, 1));
    (void)call::ingest(d->collector.rnic(), pframes);
    const auto pres = call::resolve(d->collector, pkey);
    dt = now_ns() - t0;
    ++queries_issued;
    w.probe_us.push_back(static_cast<float>(dt) * 1e-3f);
    expected.assign(pval.begin(), pval.end());
    check_kv(pres, true);
  };

  const std::size_t measured = window_count(opt.seconds, 4.0, opt.tiny);
  auto windows = run_windows(opt, measured, tracer, [&](Window& w) {
    for (std::size_t b = 0; b < geo.blocks_per_window; ++b) {
      tracer.set_request(probes + 1);
      block(w);
    }
  });

  Result r;
  r.digest = digest.hex();
  r.notes = "store " + std::to_string(cfg.memory_bytes() >> 20) + " MiB (" +
            std::to_string(cfg.n_slots) + " slots x " +
            std::to_string(cfg.slot_bytes()) + " B), " + std::to_string(n_keys) +
            " uniform keys, " + std::to_string(measured) + " windows x " +
            std::to_string(geo.blocks_per_window * kBurstsPerBlock * kBurst) +
            " events";

  // No link, so nothing may be dropped.
  const auto emitted = d->sw.counters().reports_emitted;
  check_rnic_ledger(r, emitted, d->pool, 0, 0);
  count_failures(r, emitted, queries_issued, d->pool, 0, answers);

  if (opt.trace) {
    finish_layers(r, windows, std::move(tracer), answers, d->pool, nullptr, nullptr);
  } else {
    finish_e2e(r, windows, std::move(setup_runs), answers);
  }
  return r;
}

}  // namespace perfbench
