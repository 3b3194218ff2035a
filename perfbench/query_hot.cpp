// query_hot — the wire query plane over small, cache-resident stores.
//
// Two KV collectors with 2^12-slot stores (24 B/slot = 96 KiB each), Zipf(1.0)
// over 2 Ki keys (keys × N = ½ of the slots) for both reports and queries.
// Stores and gateway cache stay well inside L2: see kCacheEntries. Reports are
// crafted by the switch and carried over a net::Simulator link with seeded
// 1% Bernoulli loss into SimulatedRnic::receive. Queries go OperatorClient →
// gateway virtual IPs → QueryGateway → QueryServiceNode, 8 outstanding per
// round. Each epoch is: QueryGateway::on_epoch, 64 report events with a
// probe after each burst of 32, 256 queries — so the ResultCache serves
// repeats within an epoch and never holds an answer older than the last
// write. The query
// plane, the netsim event loop and the cache dominate; craft and DMA do
// little. Loss makes answer_correct_rate < 1, deterministically per seed.
#include <array>

#include "bench.hpp"

namespace perfbench {

using namespace dart;

namespace {

constexpr std::uint64_t kKeySpace = 3;
constexpr std::uint64_t kProbeSpace = 4;
constexpr std::uint32_t kCollectors = 2;
constexpr std::size_t kBurst = 32;
constexpr std::size_t kEventsPerEpoch = 64;
constexpr std::size_t kBurstsPerProbe = 1;  // 2 probes per epoch
constexpr std::size_t kQueriesPerEpoch = 256;
constexpr std::size_t kOutstanding = 8;
constexpr double kLinkLoss = 0.01;
constexpr std::uint64_t kLatencyNs = 1000;

// The switch's egress port: a source node for report frames.
class EgressPort final : public net::Node {
 public:
  void receive(net::Packet, std::uint64_t) override {}
};

core::DartConfig dart_config(bool tiny) {
  core::DartConfig cfg;
  cfg.n_slots = tiny ? 1 << 10 : 1 << 12;
  cfg.n_addresses = 2;
  cfg.checksum_bits = 32;
  cfg.value_bytes = 20;
  cfg.write_mode = core::WriteMode::kAllSlots;
  return cfg;
}

struct Deployment {
  Deployment(const core::DartConfig& cfg, std::uint64_t seed, bool traced)
      : crafter(cfg), sim(seed), sw([&] {
          switchsim::DartSwitchPipeline::Config sc;
          sc.dart = cfg;
          sc.write_mode = core::WriteMode::kAllSlots;
          sc.ip = net::Ipv4Addr::from_octets(10, 0, 1, 1);
          return sc;
        }()) {
    for (std::uint32_t c = 0; c < kCollectors; ++c) {
      sw.load_collector(pool.add(cfg).remote_info());
    }
    plane = std::make_unique<QueryPlane>(pool.raw(), crafter, sim, traced, kLatencyNs);
    port_node = sim.add_node(port);
    for (std::uint32_t c = 0; c < kCollectors; ++c) {
      const auto node = plane->add_rnic(pool[c].rnic());
      links.push_back(sim.add_link(port_node, node, kLatencyNs,
                                   std::make_unique<net::BernoulliLoss>(kLinkLoss)));
    }
  }
  std::uint64_t link_drops() const {
    std::uint64_t n = 0;
    for (const auto id : links) n += sim.link_stats(id).dropped;
    return n;
  }
  // Sends each frame to the RNIC its destination IP names.
  void send_frames(call::Frames& frames, std::uint64_t& misrouted) {
    for (auto& f : frames) {
      if (const auto c = pool.target_of(f)) {
        call::send(sim, port_node, plane->rnic_nodes[*c], std::move(f));
      } else {
        ++misrouted;
      }
    }
  }

  core::ReportCrafter crafter;
  Pool pool;
  net::Simulator sim;
  switchsim::DartSwitchPipeline sw;
  std::unique_ptr<QueryPlane> plane;
  EgressPort port;
  net::NodeId port_node = net::kInvalidNode;
  std::vector<net::LinkId> links;
};

}  // namespace

Result run_query_hot(const Options& opt) {
  const auto cfg = dart_config(opt.tiny);
  const std::uint64_t n_keys = opt.tiny ? 512 : 2 * 1024;
  // Short windows (about 20-40 ms), so that the pooled fastest windows
  // catch brief quiet spells of the host and hold over 3000 probes.
  const std::size_t epochs_per_window = opt.tiny ? 4 : 32;

  std::vector<double> setup_runs;
  auto d = bring_up<Deployment>(opt.tiny ? 1 : 31, setup_runs, [&] {
    return std::make_unique<Deployment>(cfg, mix64(opt.seed) | 1, opt.trace);
  });
  auto& client = *d->plane->client;
  auto& gateway = *d->plane->gateway;

  const Zipf zipf(n_keys, 1.0);
  std::vector<std::uint32_t> versions(n_keys, 0);
  Rng rng(mix64(opt.seed) ^ 0x40A7);
  Digest digest;
  Answers answers;
  answers.inject = opt.inject_wrong_truth;
  Tracer tracer;
  std::uint64_t epoch = 0;
  std::uint64_t probes = 0;
  std::uint64_t queries_issued = 0;
  std::uint64_t misrouted = 0;

  std::array<std::array<std::byte, 8>, kBurst> keys{};
  std::array<std::array<std::byte, 20>, kBurst> values{};
  std::array<switchsim::DartSwitchPipeline::TelemetryEvent, kBurst> events{};
  Bytes expected(cfg.value_bytes);

  // KV truth: version 0 means never written, so the right answer is empty.
  const auto check_kv = [&](const std::optional<core::QueryResponse>& resp,
                            std::span<const std::byte> key, std::uint32_t version,
                            bool exact) {
    if (!resp) {
      ++answers.unanswered;
      return false;
    }
    ++answers.answered;
    ++answers.kv_answers;
    answers.checksum_matches += resp->checksum_matches;
    if (version != 0) value_of(key, version, expected);
    if (exact && answers.corrupt_next()) expected[0] ^= std::byte{1};
    const bool found = resp->outcome == core::QueryOutcome::kFound;
    const bool right = version == 0 ? !found : found && resp->value == expected;
    if (right) {
      ++answers.correct;
    } else {
      if (found) ++answers.wrong;
      if (exact) ++answers.exact_mismatch;
    }
    return right;
  };

  // Probe: a fresh key from switch craft to the operator's answer. If a
  // frame of the probe was lost the answer may legitimately differ.
  const auto probe = [&](Window& w) {
    std::array<std::byte, 20> pval{};
    Bytes pkey;
    {
      Span g(Layer::kGen);
      g.units(1);
      pkey = key_bytes(kProbeSpace, probes++);
      value_of(pkey, 1, pval);
      digest.add(probes);
    }
    const switchsim::DartSwitchPipeline::TelemetryEvent event{pkey, pval};
    const std::uint64_t drops = d->link_drops();
    const std::uint64_t t0 = now_ns();
    auto frames = call::craft(d->sw, std::span(&event, 1));
    d->send_frames(frames, misrouted);
    call::run(d->sim);
    const auto id = call::query(client, pkey);
    call::run(d->sim);
    const auto resp = call::take(client, id);
    const std::uint64_t dt = now_ns() - t0;
    ++queries_issued;
    const bool lossless = d->link_drops() == drops;
    if (check_kv(resp, pkey, 1, lossless)) {
      w.probe_us.push_back(static_cast<float>(dt) * 1e-3f);
    }
  };

  const auto epoch_body = [&](Window& w) {
    call::epoch(gateway, ++epoch);

    // Reports: bursts through the switch, over the lossy link, into the
    // RNICs. A probe follows every kBurstsPerProbe bursts, so every probe
    // runs in the same context.
    for (std::size_t b = 0; b < kEventsPerEpoch / kBurst; ++b) {
      {
        Span g(Layer::kGen);
        g.units(kBurst);
        for (std::size_t i = 0; i < kBurst; ++i) {
          const std::uint64_t id = zipf.sample(rng);
          const std::uint32_t v = ++versions[id];
          const auto k = key_bytes(kKeySpace, id);
          std::memcpy(keys[i].data(), k.data(), 8);
          value_of(k, v, values[i]);
          events[i] = {keys[i], values[i]};
          digest.add(id);
        }
      }
      const std::uint64_t before = d->pool.executed();
      const std::uint64_t t0 = now_ns();
      auto frames = call::craft(d->sw, events);
      d->send_frames(frames, misrouted);
      call::run(d->sim);
      w.report_s += static_cast<double>(now_ns() - t0) * 1e-9;
      w.reports += d->pool.executed() - before;
      w.units += kBurst;
      if ((b + 1) % kBurstsPerProbe == 0) probe(w);
    }

    // Queries: rounds of kOutstanding through the gateway.
    std::array<std::uint64_t, kOutstanding> ids{}, qids{}, issued_at{};
    std::array<Bytes, kOutstanding> qkeys;
    std::array<std::optional<core::QueryResponse>, kOutstanding> resps;
    for (std::size_t r = 0; r < kQueriesPerEpoch / kOutstanding; ++r) {
      {
        Span g(Layer::kGen);
        for (std::size_t i = 0; i < kOutstanding; ++i) {
          qids[i] = zipf.sample(rng);
          qkeys[i] = key_bytes(kKeySpace, qids[i]);
          digest.add(qids[i]);
        }
      }
      const std::uint64_t t0 = now_ns();
      for (std::size_t i = 0; i < kOutstanding; ++i) {
        issued_at[i] = now_ns();
        ids[i] = call::query(client, qkeys[i]);
      }
      call::run(d->sim);
      for (std::size_t i = 0; i < kOutstanding; ++i) {
        resps[i] = call::take(client, ids[i]);
        w.query_us.push_back(static_cast<float>(now_ns() - issued_at[i]) * 1e-3f);
      }
      w.query_s += static_cast<double>(now_ns() - t0) * 1e-9;
      queries_issued += kOutstanding;
      for (std::size_t i = 0; i < kOutstanding; ++i) {
        if (resps[i]) ++w.answers;
        check_kv(resps[i], qkeys[i], versions[qids[i]], false);
      }
    }
  };

  const std::size_t measured = window_count(opt.seconds, 32.0, opt.tiny);
  auto windows = run_windows(opt, measured, tracer, [&](Window& w) {
    for (std::size_t e = 0; e < epochs_per_window; ++e) {
      tracer.set_request(epoch + 1);
      epoch_body(w);
    }
  });

  Result r;
  r.digest = digest.hex();
  r.notes = std::to_string(kCollectors) + " stores x " +
            std::to_string(cfg.memory_bytes() >> 10) + " KiB, " +
            std::to_string(n_keys) + " Zipf(1.0) keys, cache " +
            std::to_string(gateway.config().cache_capacity) + " entries, " +
            std::to_string(measured) + " windows x " +
            std::to_string(epochs_per_window) + " epochs";

  const auto emitted = d->sw.counters().reports_emitted;
  check_rnic_ledger(r, emitted, d->pool, d->link_drops(), misrouted);
  check_operator_ledger(r, client);
  check_gateway_ledger(r, gateway);
  count_failures(r, emitted, queries_issued, d->pool, misrouted, answers);

  if (opt.trace) {
    finish_layers(r, windows, std::move(tracer), answers, d->pool, &d->sim, &gateway);
  } else {
    finish_e2e(r, windows, std::move(setup_runs), answers);
  }
  return r;
}

}  // namespace perfbench
