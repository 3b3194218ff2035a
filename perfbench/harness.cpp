// Shared harness of perfbench: input generation, tracing, layer-call
// wrappers, the query plane, and the metric/ledger bookkeeping.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "bench.hpp"

namespace perfbench {

using namespace dart;

// ---- input generation -------------------------------------------------------

namespace {
// log1p(x)/x and expm1(x)/x, stable near 0.
double helper1(double x) {
  return std::abs(x) > 1e-8 ? std::log1p(x) / x
                            : 1 - x * (0.5 - x * (1.0 / 3 - 0.25 * x));
}
double helper2(double x) {
  return std::abs(x) > 1e-8 ? std::expm1(x) / x
                            : 1 + x * 0.5 * (1 + x * (1.0 / 3) * (1 + 0.25 * x));
}
}  // namespace

Zipf::Zipf(std::uint64_t n, double skew) : n_(n), skew_(skew) {
  h_integral_x1_ = h_integral(1.5) - 1;
  h_integral_n_ = h_integral(static_cast<double>(n) + 0.5);
  s_ = 2 - h_integral_inverse(h_integral(2.5) - h(2));
}

double Zipf::h(double x) const noexcept { return std::exp(-skew_ * std::log(x)); }

double Zipf::h_integral(double x) const noexcept {
  const double log_x = std::log(x);
  return helper2((1 - skew_) * log_x) * log_x;
}

double Zipf::h_integral_inverse(double x) const noexcept {
  const double t = std::max(-1.0, x * (1 - skew_));
  return std::exp(helper1(t) * x);
}

std::uint64_t Zipf::sample(Rng& rng) const noexcept {
  for (;;) {
    const double u = h_integral_n_ + rng.uniform() * (h_integral_x1_ - h_integral_n_);
    const double x = h_integral_inverse(u);
    const double k = std::clamp(std::floor(x + 0.5), 1.0, static_cast<double>(n_));
    if (k - x <= s_ || u >= h_integral(k + 0.5) - h(k)) {
      return static_cast<std::uint64_t>(k) - 1;
    }
  }
}

void value_of(std::span<const std::byte> key, std::uint32_t version,
              std::span<std::byte> out) noexcept {
  std::uint64_t k = 0;
  std::memcpy(&k, key.data(), std::min<std::size_t>(8, key.size()));
  std::uint64_t h = mix64(k ^ (std::uint64_t{version} << 32 | version));
  for (std::size_t off = 0; off < out.size(); off += 8) {
    h = mix64(h);
    std::memcpy(out.data() + off, &h, std::min<std::size_t>(8, out.size() - off));
  }
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
  return buf;
}

// ---- tracing ----------------------------------------------------------------

const char* layer_name(Layer l) noexcept {
  switch (l) {
    case Layer::kSwitch: return "switchsim";
    case Layer::kRdma: return "rdma";
    case Layer::kNet: return "net";
    case Layer::kCoreResolve: return "core.resolve";
    case Layer::kService: return "core.service";
    case Layer::kClient: return "core.client";
    case Layer::kGateway: return "query.gateway";
    case Layer::kGen: return "bench.gen";
    case Layer::kCount: break;
  }
  return "?";
}

std::uint64_t Tracer::begin() noexcept {
  const std::uint64_t id = next_id_++;
  stack_.push_back({id, now_ns(), 0});
  return id;
}

void Tracer::end(Layer layer, std::uint64_t units) noexcept {
  const std::uint64_t end = now_ns();
  const Open open = stack_.back();
  stack_.pop_back();
  const std::uint64_t dur = end - open.start_ns;
  const auto l = static_cast<std::size_t>(layer);
  self_ns_[l] += dur - std::min(dur, open.child_ns);
  units_[l] += units;
  const std::uint64_t parent = stack_.empty() ? 0 : stack_.back().id;
  if (!stack_.empty()) stack_.back().child_ns += dur;
  if (kept_.size() < kMaxKeptSpans) {
    kept_.push_back({open.id, parent, request_, open.start_ns, end, layer});
  }
}

std::uint64_t Tracer::total_self_ns() const noexcept {
  std::uint64_t s = 0;
  for (auto v : self_ns_) s += v;
  return s;
}

bool Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "# spans_recorded=" << spans_recorded() << " kept=" << kept_.size()
      << "\nid\tparent\trequest\tlayer\tstart_ns\tend_ns\n";
  for (const auto& s : kept_) {
    out << s.id << '\t' << s.parent << '\t' << s.request << '\t'
        << layer_name(s.layer) << '\t' << s.start_ns << '\t' << s.end_ns
        << '\n';
  }
  return static_cast<bool>(out);
}

namespace {
// Packets handed to decorated nodes while tracing: the net layer's units.
std::uint64_t g_packets = 0;
}  // namespace

namespace call {

Frames craft(switchsim::DartSwitchPipeline& sw,
             std::span<const switchsim::DartSwitchPipeline::TelemetryEvent> events) {
  Span s(Layer::kSwitch);
  auto frames = sw.on_telemetry_batch(events);
  s.units(frames.size());
  return frames;
}

std::size_t ingest(rdma::SimulatedRnic& rnic, const Frames& frames) {
  static std::vector<std::span<const std::byte>> views;  // reused: no allocation per burst
  views.assign(frames.begin(), frames.end());
  Span s(Layer::kRdma);
  s.units(frames.size());
  return rnic.process_frames(views);
}

core::QueryResult resolve(const core::Collector& collector,
                          std::span<const std::byte> key) {
  Span s(Layer::kCoreResolve);
  s.units(1);
  return collector.query(key);
}

void send(net::Simulator& sim, net::NodeId from, net::NodeId to, Bytes frame) {
  Span s(Layer::kNet);
  sim.send(from, to, net::Packet(std::move(frame)));
}

void run(net::Simulator& sim) {
  const std::uint64_t before = g_packets;
  Span s(Layer::kNet);
  sim.run();
  s.units(g_packets - before);
}

void epoch(query::QueryGateway& gateway, std::uint64_t epoch) {
  Span s(Layer::kGateway);
  gateway.on_epoch(epoch);
}

std::uint64_t query(core::OperatorClient& client, std::span<const std::byte> key) {
  Span s(Layer::kClient);
  s.units(1);
  return client.query(key);
}

std::optional<core::QueryResponse> take(core::OperatorClient& c, std::uint64_t id) {
  Span s(Layer::kClient);
  return c.take_response(id);
}

}  // namespace call

void TracedNode::receive(net::Packet packet, std::uint64_t now) {
  if (g_trace == nullptr) {
    inner_->receive(std::move(packet), now);
    return;
  }
  ++g_packets;
  switch (kind_) {
    case Kind::kRnic: {
      Span s(Layer::kRdma);
      s.units(1);
      inner_->receive(std::move(packet), now);
      return;
    }
    case Kind::kService: {
      Span s(Layer::kService);
      s.units(1);
      inner_->receive(std::move(packet), now);
      return;
    }
    case Kind::kGateway: {
      auto& gw = static_cast<query::QueryGateway&>(*inner_);
      const auto before = gw.requests_total();
      Span s(Layer::kGateway);
      inner_->receive(std::move(packet), now);
      s.units(gw.requests_total() - before);
      return;
    }
    case Kind::kClient: {
      Span s(Layer::kClient);
      inner_->receive(std::move(packet), now);
      return;
    }
  }
}

// ---- collectors -------------------------------------------------------------

core::Collector& Pool::add(const core::DartConfig& cfg) {
  const auto c = static_cast<std::uint32_t>(collectors_.size());
  const core::CollectorEndpoint endpoint{{0x02, 0, 0, 0, 0, static_cast<std::uint8_t>(c)},
                                         ip(c)};
  collectors_.push_back(std::make_unique<core::Collector>(cfg, c, endpoint));
  return *collectors_.back();
}

std::vector<core::Collector*> Pool::raw() const {
  std::vector<core::Collector*> out;
  for (const auto& c : collectors_) out.push_back(c.get());
  return out;
}

std::uint64_t Pool::executed() const {
  std::uint64_t n = 0;
  for (const auto& c : collectors_) n += c->ingest_counters().executed.load();
  return n;
}

std::uint64_t Pool::frames() const {
  std::uint64_t n = 0;
  for (const auto& c : collectors_) n += c->ingest_counters().frames.load();
  return n;
}

std::optional<std::uint32_t> Pool::target_of(const Bytes& frame) const {
  constexpr std::size_t kDstIp = net::kEthernetHeaderLen + 16;
  if (frame.size() < kDstIp + 4) return std::nullopt;
  std::uint32_t dst = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    dst = dst << 8 | std::to_integer<std::uint8_t>(frame[kDstIp + i]);
  }
  for (std::uint32_t c = 0; c < collectors_.size(); ++c) {
    if (ip(c).value == dst) return c;
  }
  return std::nullopt;
}

// ---- query plane ------------------------------------------------------------

QueryPlane::QueryPlane(std::vector<core::Collector*> collectors,
                       const core::ReportCrafter& crafter, net::Simulator& s,
                       bool traced_, std::uint64_t mgmt_latency_ns)
    : sim(&s), traced(traced_) {
  auto resolver = [this](net::Ipv4Addr ip) -> std::optional<net::NodeId> {
    for (const auto& [addr, node] : arp) {
      if (addr == ip) return node;
    }
    return std::nullopt;
  };
  query::QueryGatewayConfig gcfg;
  gcfg.gateway_ip = net::Ipv4Addr::from_octets(10, 9, 2, 254);
  for (std::uint32_t c = 0; c < collectors.size(); ++c) {
    const auto octet = static_cast<std::uint8_t>(c);
    gcfg.service_ips.push_back(net::Ipv4Addr::from_octets(10, 0, 50, octet));
    gcfg.virtual_ips.push_back(net::Ipv4Addr::from_octets(10, 9, 2, octet));
    services.push_back(std::make_unique<core::QueryServiceNode>(
        *collectors[c], gcfg.service_ips[c], resolver));
  }
  gcfg.request_timeout_ns = 8 * mgmt_latency_ns + 1'000'000;
  gcfg.cache_capacity = kCacheEntries;
  gateway = std::make_unique<query::QueryGateway>(gcfg, crafter, resolver);
  const auto gw_node = add(*gateway, TracedNode::Kind::kGateway);
  arp.emplace_back(gcfg.gateway_ip, gw_node);
  for (std::uint32_t c = 0; c < collectors.size(); ++c) {
    const auto node = add(*services[c], TracedNode::Kind::kService);
    arp.emplace_back(gcfg.service_ips[c], node);
    arp.emplace_back(gcfg.virtual_ips[c], gw_node);
    sim->connect(gw_node, node, mgmt_latency_ns);
  }
  const auto client_ip = net::Ipv4Addr::from_octets(10, 9, 9, 10);
  client = std::make_unique<core::OperatorClient>(crafter, client_ip,
                                                  gcfg.virtual_ips, resolver);
  const auto client_node = add(*client, TracedNode::Kind::kClient);
  arp.emplace_back(client_ip, client_node);
  sim->connect(client_node, gw_node, mgmt_latency_ns);
}

net::NodeId QueryPlane::add(net::Node& node, TracedNode::Kind kind) {
  if (!traced) return sim->add_node(node);
  decorators.push_back(std::make_unique<TracedNode>(node, kind));
  return sim->add_node(*decorators.back());
}

// ---- statistics -------------------------------------------------------------

double median(std::vector<double> v) { return percentile(v, 0.5); }

double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB → MiB
    }
  }
  return 0;
}

std::size_t pooled_count(std::size_t n) {
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(kPooledShare * static_cast<double>(n))));
}

void release_samples(Window& w) {
  std::vector<float>().swap(w.query_us);
  std::vector<float>().swap(w.probe_us);
}

std::size_t window_count(double seconds, double per_second, bool tiny) {
  if (tiny) return 2;
  return std::max<std::size_t>(4, static_cast<std::size_t>(
                                      std::llround(seconds * per_second)));
}

namespace {

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// Quantile `q` over windows of `f(window)`, skipping windows where it is
// undefined.
template <typename F>
double window_quantile(const std::vector<Window>& windows, bool traced, double q, F f) {
  std::vector<double> v;
  for (const auto& w : windows) {
    if (w.traced != traced) continue;
    if (auto x = f(w)) v.push_back(*x);
  }
  return percentile(v, q);
}

template <typename F>
double window_median(const std::vector<Window>& windows, bool traced, F f) {
  return window_quantile(windows, traced, 0.5, f);
}

std::optional<double> report_rate(const Window& w) {
  if (w.report_s <= 0) return std::nullopt;
  return w.reports / w.report_s;
}

std::optional<double> answer_rate(const Window& w) {
  if (w.query_s <= 0) return std::nullopt;
  return w.answers / w.query_s;
}

}  // namespace

void finish_e2e(Result& r, const std::vector<Window>& windows,
                std::vector<double> setup_runs, const Answers& a) {
  std::vector<const Window*> ranked;
  for (const auto& w : windows) {
    if (!w.traced) ranked.push_back(&w);
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const Window* x, const Window* y) { return x->rate() > y->rate(); });
  const std::size_t pooled = pooled_count(ranked.size());
  Window pool;
  for (std::size_t i = 0; i < pooled; ++i) {
    const Window& w = *ranked[i];
    pool.report_s += w.report_s;
    pool.reports += w.reports;
    pool.query_s += w.query_s;
    pool.answers += w.answers;
    pool.query_us.insert(pool.query_us.end(), w.query_us.begin(), w.query_us.end());
    pool.probe_us.insert(pool.probe_us.end(), w.probe_us.begin(), w.probe_us.end());
  }

  auto& m = r.e2e;
  m.push_back({"setup_s", median(std::move(setup_runs)), "s"});
  m.push_back({"peak_rss_mib", peak_rss_mib(), "MiB"});
  m.push_back({"reports_per_s", ratio(static_cast<double>(pool.reports), pool.report_s),
               "1/s"});
  m.push_back({"query_per_s", ratio(static_cast<double>(pool.answers), pool.query_s),
               "1/s"});
  m.push_back({"query_us_p50", percentile(pool.query_us, 0.50), "us"});
  m.push_back({"query_us_p99", percentile(pool.query_us, 0.99), "us"});
  m.push_back({"report_to_answer_us_p50", percentile(pool.probe_us, 0.50), "us"});
  m.push_back({"report_to_answer_us_p99", percentile(pool.probe_us, 0.99), "us"});

  // The spread of one run: min/p1/p10/p50/p90/p99/max over windows of each
  // rate, and the number of windows pooled.
  using Rate = std::optional<double> (*)(const Window&);
  const std::pair<const char*, Rate> rates[] = {
      {"events/s", [](const Window& w) -> std::optional<double> { return w.rate(); }},
      {"reports/s", report_rate},
      {"answers/s", answer_rate},
  };
  std::string& out = r.per_window;
  for (const auto& [name, f] : rates) {
    out += std::string(" ") + name;
    for (const double q : {0.0, 0.01, 0.1, 0.5, 0.9, 0.99, 1.0}) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%s%.0f", q == 0 ? " " : "/",
                    window_quantile(windows, false, q, f));
      out += buf;
    }
  }
  out += " pooled " + std::to_string(pooled) + " of " + std::to_string(ranked.size());
  m.push_back({"answer_correct_rate",
               ratio(static_cast<double>(a.correct), static_cast<double>(a.answered)),
               "ratio"});
}

void finish_layers(Result& r, const std::vector<Window>& windows, Tracer&& t,
                   const Answers& a, const Pool& pool, const net::Simulator* sim,
                   query::QueryGateway* g) {
  auto& m = r.layer;
  const auto per = [&](Layer l) {
    return ratio(static_cast<double>(t.self_ns(l)), static_cast<double>(t.units(l)));
  };
  m.push_back({"switchsim.craft_ns_per_frame", per(Layer::kSwitch), "ns"});
  m.push_back({"switchsim.frames_per_event",
               ratio(static_cast<double>(t.units(Layer::kSwitch)),
                     static_cast<double>(t.units(Layer::kGen))),
               "ratio"});
  m.push_back({"rdma.ingest_ns_per_frame", per(Layer::kRdma), "ns"});
  m.push_back({"net.self_ns_per_packet", per(Layer::kNet), "ns"});
  m.push_back({"core.resolve_ns_per_query", per(Layer::kCoreResolve), "ns"});
  m.push_back({"core.checksum_matches_per_query",
               ratio(static_cast<double>(a.checksum_matches),
                     static_cast<double>(a.kv_answers)),
               "ratio"});
  m.push_back({"core.service_ns_per_request", per(Layer::kService), "ns"});
  m.push_back({"core.client_ns_per_query", per(Layer::kClient), "ns"});
  m.push_back({"core.answer_wrong_rate",
               ratio(static_cast<double>(a.wrong), static_cast<double>(a.answered)),
               "ratio"});
  m.push_back({"query.gateway_ns_per_request", per(Layer::kGateway), "ns"});
  m.push_back({"bench.gen_ns_per_event", per(Layer::kGen), "ns"});

  double traced_wall = 0;
  for (const auto& w : windows) {
    if (w.traced) traced_wall += w.wall_s;
  }
  m.push_back({"trace.coverage",
               ratio(static_cast<double>(t.total_self_ns()) * 1e-9, traced_wall),
               "ratio"});
  const auto rate = [](const Window& w) -> std::optional<double> {
    return ratio(static_cast<double>(w.units), w.wall_s);
  };
  m.push_back({"trace.overhead_ratio",
               ratio(window_median(windows, true, rate),
                     window_median(windows, false, rate)),
               "ratio"});

  const auto frames = pool.frames();
  const auto executed = pool.executed();
  m.push_back({"rdma.executed_ratio",
               ratio(static_cast<double>(executed), static_cast<double>(frames)),
               "ratio"});
  m.push_back({"rdma.rejected_frames", static_cast<double>(frames - executed), "count"});
  m.push_back({"net.packets_delivered",
               sim ? static_cast<double>(sim->total_delivered()) : 0.0, "count"});
  m.push_back({"net.packets_dropped",
               sim ? static_cast<double>(sim->total_dropped()) : 0.0, "count"});

  double hit = 0, coalesced = 0, upstream = 0;
  if (g != nullptr) {
    const auto gets = g->cache().hits() + g->cache().misses();
    hit = ratio(static_cast<double>(g->cache().hits()), static_cast<double>(gets));
    const auto req = static_cast<double>(g->requests_total());
    coalesced = ratio(static_cast<double>(g->coalesced_total()), req);
    upstream = ratio(static_cast<double>(g->upstream_sent()), req);
  }
  m.push_back({"query.cache_hit_rate", hit, "ratio"});
  m.push_back({"query.coalesced_rate", coalesced, "ratio"});
  m.push_back({"query.upstream_per_request", upstream, "ratio"});
  r.trace = std::move(t);
}

void check_rnic_ledger(Result& r, std::uint64_t emitted, const Pool& pool,
                       std::uint64_t link_drops, std::uint64_t misrouted) {
  const auto executed = pool.executed();
  const auto frames = pool.frames();
  if (emitted != executed + link_drops + misrouted || frames != executed ||
      misrouted != 0) {
    r.ledger_failures.push_back(
        "rdma: emitted " + std::to_string(emitted) + " != executed " +
        std::to_string(executed) + " + link drops " + std::to_string(link_drops) +
        " (RNIC frames " + std::to_string(frames) + ", unroutable " +
        std::to_string(misrouted) + ")");
  }
}

void count_failures(Result& r, std::uint64_t emitted, std::uint64_t reads,
                    const Pool& pool, std::uint64_t misrouted, const Answers& a) {
  r.attempted = emitted + reads;
  r.failed = (pool.frames() - pool.executed()) + misrouted + a.unanswered +
             a.exact_mismatch + r.ledger_failures.size();
  r.answered = a.answered;
  r.wrong = a.wrong;
}

void check_operator_ledger(Result& r, const core::OperatorClient& c) {
  if (c.unexpected_responses() != 0 || c.stray_responses() != 0) {
    r.ledger_failures.push_back("operator: responses not retired exactly once (unexpected=" +
                                std::to_string(c.unexpected_responses()) +
                                ", stray=" + std::to_string(c.stray_responses()) + ")");
  }
  if (c.pending() != 0) {
    r.ledger_failures.push_back("operator: " + std::to_string(c.pending()) +
                                " requests still pending");
  }
}

void check_gateway_ledger(Result& r, query::QueryGateway& g) {
  const auto lhs = (g.upstream_sent() - g.upstream_retries()) + g.cache().hits() +
                   g.coalesced_total();
  if (lhs != g.requests_total()) {
    r.ledger_failures.push_back(
        "gateway: (upstream_sent - retries) + cache_hits + coalesced = " +
        std::to_string(lhs) + " != requests " + std::to_string(g.requests_total()));
  }
  if (g.inflight() != 0) {
    r.ledger_failures.push_back("gateway: " + std::to_string(g.inflight()) +
                                " upstream requests still in flight");
  }
}

}  // namespace perfbench
