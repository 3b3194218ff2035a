#include "query/gateway.hpp"

#include <algorithm>
#include <utility>


namespace dart::query {

namespace {

net::UdpFrameSpec udp_spec(net::Ipv4Addr from, net::Ipv4Addr to) {
  net::UdpFrameSpec spec;
  spec.src_ip = from;
  spec.dst_ip = to;
  spec.src_port = core::kDartQueryUdpPort;
  spec.dst_port = core::kDartQueryUdpPort;
  return spec;
}

}  // namespace

// --- GatewaySession ---------------------------------------------------------

std::uint64_t GatewaySession::submit(core::ReadRequest read) {
  read.request_id = next_id_++;
  return gateway_->session_submit(*this, read);
}

std::uint64_t GatewaySession::subscribe(core::SubscribeRequest request) {
  request.request_id = next_id_++;
  return gateway_->session_subscribe(*this, request);
}

void GatewaySession::deliver(std::span<const std::byte> payload) {
  auto answer = core::parse_answer(payload);
  if (!answer) return;
  if (core::degraded(*answer)) ++degraded_;
  const std::uint64_t id = core::frame_request_id(payload);
  store_.put(id, *std::move(answer));
  if (pending_ > 0) --pending_;
  ++answered_;
}

// --- QueryGateway -----------------------------------------------------------

QueryGateway::QueryGateway(QueryGatewayConfig config,
                           const core::ReportCrafter& crafter,
                           core::IpResolver resolver)
    : config_(std::move(config)),
      crafter_(&crafter),
      resolver_(std::move(resolver)),
      cache_(config_.cache_capacity),
      latency_{{
          {0.0, config_.latency_hist_max_ns, config_.latency_hist_buckets},
          {0.0, config_.latency_hist_max_ns, config_.latency_hist_buckets},
          {0.0, config_.latency_hist_max_ns, config_.latency_hist_buckets},
      }} {
  for (std::uint32_t c = 0; c < config_.virtual_ips.size(); ++c) {
    vip_index_.emplace(config_.virtual_ips[c].value, c);
  }
}

GatewaySession& QueryGateway::open_session() {
  sessions_.push_back(
      std::unique_ptr<GatewaySession>(new GatewaySession(this, sessions_.size())));
  return *sessions_.back();
}

std::uint32_t QueryGateway::apply_retarget(std::uint32_t collector) const {
  if (const auto it = retargets_.find(collector); it != retargets_.end()) {
    return it->second;
  }
  return collector;
}

std::uint32_t QueryGateway::route_key(std::span<const std::byte> key) const {
  // Ring deployments route by live consistent-hash membership (dead members
  // already excluded); modulo deployments patch deaths via the retarget map.
  const std::uint32_t collector =
      selector_ != nullptr
          ? selector_->owner_of(key)
          : crafter_->collector_of(
                key, static_cast<std::uint32_t>(config_.service_ips.size()));
  return apply_retarget(collector);
}

std::uint32_t QueryGateway::route_read(const core::ReadRequest& read) const {
  return core::read_op(read.family, read.op)->keyed
             ? route_key(read.key)
             : apply_retarget(read.collector);
}

void QueryGateway::record_latency(core::Family family, double ns) {
  const auto i = static_cast<std::size_t>(family) - 1;
  latency_[i].record(ns);
  if (latency_mirror_[i] != nullptr) latency_mirror_[i]->record(ns);
}

std::uint64_t QueryGateway::session_submit(GatewaySession& session,
                                           const core::ReadRequest& read) {
  Origin origin;
  origin.kind = Origin::Kind::kSession;
  origin.session = session.index();
  origin.downstream_id = read.request_id;
  origin.epoch = static_cast<std::uint32_t>(epoch_);
  ++session.issued_;
  ++session.pending_;
  if (!submit(read, route_read(read), origin)) {
    --session.issued_;
    --session.pending_;
    return 0;
  }
  return read.request_id;
}

std::uint64_t QueryGateway::session_subscribe(
    GatewaySession& session, const core::SubscribeRequest& request) {
  Origin subscriber;
  subscriber.kind = Origin::Kind::kSession;
  subscriber.session = session.index();
  session.store_.put(request.request_id, do_subscribe(request, subscriber));
  return request.request_id;
}

core::SubscribeAck QueryGateway::do_subscribe(
    const core::SubscribeRequest& request, Origin subscriber) {
  core::SubscribeAck ack;
  ack.op = request.op;
  ack.request_id = request.request_id;
  ack.epoch = request.epoch;
  if (request.op == core::SubscribeOp::kUnsubscribe) {
    if (standing_.erase(request.subscription_id) > 0) {
      ack.subscription_id = request.subscription_id;
    } else {
      ack.flags |= core::kResponseSubscribeRejected;
      ++subscribes_rejected_;
    }
    return ack;
  }
  const auto sub_id = register_standing(request, subscriber);
  if (sub_id) {
    ack.subscription_id = *sub_id;
    ++subscribes_accepted_;
  } else {
    ack.flags |= core::kResponseSubscribeRejected;
    ++subscribes_rejected_;
  }
  return ack;
}

std::optional<std::uint64_t> QueryGateway::register_standing(
    const core::SubscribeRequest& request, Origin subscriber) {
  Standing st;
  st.kind = request.kind;
  st.subscriber = subscriber;
  st.key = request.key;
  st.threshold = request.threshold;
  st.k = request.k;
  st.collector = request.collector;
  switch (request.kind) {
    case core::StandingKind::kKeyChange:
    case core::StandingKind::kCounterThreshold:
      if (request.key.empty()) return std::nullopt;
      break;
    case core::StandingKind::kTopKDelta:
      if (!request.key.empty() || request.k == 0 ||
          request.collector >= config_.service_ips.size()) {
        return std::nullopt;
      }
      break;
    default:
      return std::nullopt;
  }
  const std::uint64_t sub_id = next_sub_id_++;
  standing_.emplace(sub_id, std::move(st));
  return sub_id;
}

bool QueryGateway::submit(const core::ReadRequest& read,
                          std::uint32_t collector, Origin origin) {
  ++requests_;
  if (collector >= config_.service_ips.size()) {
    ++unroutable_;
    return false;
  }
  const core::ReadOp* op = core::read_op(read.family, read.op);
  CacheKey ck;
  ck.collector = collector;
  ck.family = static_cast<std::uint8_t>(read.family);
  ck.op = read.op;
  ck.k = read.k;
  ck.key.assign(read.key.begin(), read.key.end());

  if (op->cacheable) {
    if (auto hit = cache_.get(ck, epoch_, config_.cache_max_age_epochs)) {
      // Served locally: zero collector CPU, ~zero latency. Recording the hit
      // as 0 ns keeps the SLO histograms honest about what operators see.
      record_latency(read.family, 0.0);
      deliver(origin, hit->payload, hit->age_epochs);
      return true;
    }
    if (const auto it = coalesce_.find(ck); it != coalesce_.end()) {
      upstream_[it->second].waiters.push_back(origin);
      ++coalesced_;
      return true;
    }
  }

  // The upstream request carries the gateway's own id space and epoch.
  const std::uint64_t logical = next_upstream_id_++;
  core::ReadRequest upstream = read;
  upstream.request_id = logical;
  upstream.epoch = static_cast<std::uint32_t>(epoch_);
  PendingUpstream rec;
  rec.collector = collector;
  rec.op = op;
  rec.payload = core::encode_read(upstream);
  rec.retries_left = config_.max_retries;
  rec.waiters.push_back(origin);
  rec.first_enqueued_ns = sim_ != nullptr ? sim_->now_ns() : 0;
  rec.cache_key = ck;
  rec.newest_wire_id = logical;
  rec.wire_ids.push_back(logical);
  upstream_alias_[logical] = logical;
  const auto [it, inserted] = upstream_.emplace(logical, std::move(rec));
  if (op->cacheable) coalesce_.emplace(std::move(ck), logical);
  inflight_highwater_ = std::max(inflight_highwater_, upstream_.size());
  send_upstream(it->second);
  arm_deadline(logical, logical);
  return true;
}

void QueryGateway::send_upstream(PendingUpstream& rec) {
  // Counts every upstream frame, retries included — the saturation signal
  // operators alert on (upstream_sent - upstream_retries = logical reads).
  ++upstream_sent_;
  if (sim_ == nullptr) return;
  const net::Ipv4Addr service = config_.service_ips[rec.collector];
  const auto dest = resolver_(service);
  if (!dest) return;  // dead service: the deadline machinery takes over
  auto frame =
      net::build_udp_frame(udp_spec(config_.gateway_ip, service), rec.payload);
  sim_->send(self_, *dest, net::Packet(std::move(frame)));
}

void QueryGateway::arm_deadline(std::uint64_t logical_id,
                                std::uint64_t wire_id) {
  if (config_.request_timeout_ns == 0 || sim_ == nullptr) return;
  sim_->schedule(sim_->now_ns() + config_.request_timeout_ns,
                 [this, logical_id, wire_id] { on_deadline(logical_id, wire_id); });
}

void QueryGateway::on_deadline(std::uint64_t logical_id,
                               std::uint64_t wire_id) {
  const auto it = upstream_.find(logical_id);
  if (it == upstream_.end() || it->second.newest_wire_id != wire_id) return;
  PendingUpstream& rec = it->second;
  if (rec.retries_left > 0) {
    --rec.retries_left;
    ++upstream_retries_;
    const std::uint64_t fresh = next_upstream_id_++;
    core::set_frame_request_id(rec.payload, fresh);
    rec.newest_wire_id = fresh;
    rec.wire_ids.push_back(fresh);
    upstream_alias_[fresh] = logical_id;
    send_upstream(rec);
    arm_deadline(logical_id, fresh);
    return;
  }
  // Retries exhausted: every waiter gets a synthesized answer flagged
  // degraded + gateway-timeout, so downstream requests never park forever.
  // Standing reads are simply skipped — the predicate re-evaluates next tick.
  PendingUpstream dead = std::move(rec);
  for (const auto id : dead.wire_ids) upstream_alias_.erase(id);
  if (dead.op->cacheable) coalesce_.erase(dead.cache_key);
  upstream_.erase(it);
  ++upstream_timeouts_;
  const double waited_ns =
      sim_ != nullptr
          ? static_cast<double>(sim_->now_ns() - dead.first_enqueued_ns)
          : 0.0;
  record_latency(dead.op->family, waited_ns);
  const auto payload = core::encode_empty_answer(
      *dead.op, core::kResponseDegraded | core::kResponseGatewayTimeout);
  for (const Origin& origin : dead.waiters) {
    if (origin.kind == Origin::Kind::kStanding) continue;
    deliver(origin, payload, 0);
  }
}

void QueryGateway::receive(net::Packet packet, std::uint64_t now_ns) {
  const auto frame = net::parse_udp_frame(packet.bytes());
  if (!frame) {
    ++malformed_;
    return;
  }
  if (frame->udp.dst_port != core::kDartQueryUdpPort) {
    ++not_for_me_;
    return;
  }
  const bool to_gateway = frame->ip.dst == config_.gateway_ip;
  const auto vip = vip_index_.find(frame->ip.dst.value);
  if (!to_gateway && vip == vip_index_.end()) {
    ++not_for_me_;
    return;
  }
  const auto kind = core::classify(frame->payload);
  if (!kind) {
    ++malformed_;
    return;
  }
  // Requests come from operators; answers from collector services. Acks and
  // notifications are the gateway's own output.
  if (kind->direction == core::Direction::kResponse &&
      kind->family != core::Family::kGateway) {
    handle_upstream_response(kind->family, frame->payload, now_ns);
  } else if (kind->direction != core::Direction::kRequest) {
    ++malformed_;
  } else if (kind->family == core::Family::kGateway) {
    handle_subscribe(*frame);
  } else {
    handle_wire_request(*frame, to_gateway ? std::nullopt
                                           : std::optional(vip->second));
  }
}

void QueryGateway::handle_wire_request(
    const net::ParsedUdpFrame& frame,
    std::optional<std::uint32_t> vip_collector) {
  const auto read = core::parse_read(frame.payload);
  if (!read) {
    ++malformed_;
    return;
  }
  // A virtual IP names its collector. At the gateway's own IP only a keyed
  // read can be routed: a drain or a top-k names its collector by ADDRESS.
  if (!vip_collector && !core::read_op(read->family, read->op)->keyed) {
    ++unroutable_;
    return;
  }
  Origin origin;
  origin.kind = Origin::Kind::kWire;
  origin.client_ip = frame.ip.src;
  origin.reply_from = frame.ip.dst;
  origin.downstream_id = read->request_id;
  origin.epoch = read->epoch;
  const std::uint32_t collector =
      vip_collector ? apply_retarget(*vip_collector) : route_key(read->key);
  (void)submit(*read, collector, origin);
}

void QueryGateway::handle_subscribe(const net::ParsedUdpFrame& frame) {
  auto request = core::parse_subscribe_request(frame.payload);
  if (!request) {
    ++malformed_;
    return;
  }
  Origin subscriber;
  subscriber.kind = Origin::Kind::kWire;
  subscriber.client_ip = frame.ip.src;
  subscriber.reply_from = frame.ip.dst;
  const core::SubscribeAck ack = do_subscribe(*request, subscriber);
  if (sim_ == nullptr) return;
  const auto dest = resolver_(frame.ip.src);
  if (!dest) return;
  auto reply = net::build_udp_frame(udp_spec(frame.ip.dst, frame.ip.src),
                                    core::encode_subscribe_ack(ack));
  sim_->send(self_, *dest, net::Packet(std::move(reply)));
}

void QueryGateway::handle_upstream_response(core::Family family,
                                            std::span<const std::byte> payload,
                                            std::uint64_t now_ns) {
  // Only a complete answer may retire, be cached or fan out; a broken one is
  // left to the deadline, which retries it or times it out.
  if (!core::validate_response(payload)) {
    ++malformed_;
    return;
  }
  const std::uint64_t wire_id = core::frame_request_id(payload);
  const auto alias = upstream_alias_.find(wire_id);
  if (alias == upstream_alias_.end()) {
    // Duplicate, replay, or an answer that outlived its timeout synthesis.
    ++upstream_unexpected_;
    return;
  }
  const std::uint64_t logical = alias->second;
  const auto it = upstream_.find(logical);
  // An answer to another op answers nothing that was asked; a query-v2
  // answer's op byte is its outcome, so any outcome answers a query.
  if (it == upstream_.end() || it->second.op->family != family ||
      (family != core::Family::kQuery &&
       std::to_integer<std::uint8_t>(payload[core::kFrameOpOffset]) !=
           it->second.op->answer_op)) {
    ++upstream_unexpected_;
    return;
  }
  PendingUpstream rec = std::move(it->second);
  for (const auto id : rec.wire_ids) upstream_alias_.erase(id);
  if (rec.op->cacheable) coalesce_.erase(rec.cache_key);
  upstream_.erase(it);

  record_latency(family,
                 static_cast<double>(now_ns - rec.first_enqueued_ns));
  // Only clean answers are worth replaying: degraded / unavailable /
  // timed-out responses must be re-asked, not amplified by the cache.
  if (rec.op->cacheable && payload[core::kFrameFlagsOffset] == std::byte{0}) {
    cache_.put(rec.cache_key,
               std::vector<std::byte>(payload.begin(), payload.end()), epoch_);
  }
  for (const Origin& origin : rec.waiters) {
    deliver(origin, payload, 0);
  }
}

void QueryGateway::deliver(const Origin& origin,
                           std::span<const std::byte> payload,
                           std::uint64_t age_epochs) {
  if (origin.kind == Origin::Kind::kStanding) {
    evaluate_standing(origin.sub_id, payload);
    return;
  }
  std::vector<std::byte> copy(payload.begin(), payload.end());
  core::set_frame_id_epoch(copy, origin.downstream_id, origin.epoch);
  core::add_frame_staleness(copy, age_epochs);
  if (origin.kind == Origin::Kind::kSession) {
    if (origin.session < sessions_.size()) {
      sessions_[origin.session]->deliver(copy);
    }
    return;
  }
  if (sim_ == nullptr) return;
  const auto dest = resolver_(origin.client_ip);
  if (!dest) return;  // requester unreachable — drop, like real UDP
  auto reply =
      net::build_udp_frame(udp_spec(origin.reply_from, origin.client_ip), copy);
  sim_->send(self_, *dest, net::Packet(std::move(reply)));
}

void QueryGateway::on_epoch(std::uint64_t epoch) {
  epoch_ = epoch;
  // Evaluate every standing predicate through the SAME submit pipeline
  // operators use: standing reads coalesce with operator reads and with each
  // other, so a thousand subscriptions on one hot key cost one upstream read.
  for (auto& [sub_id, st] : standing_) {
    Origin origin;
    origin.kind = Origin::Kind::kStanding;
    origin.sub_id = sub_id;
    const core::ReadRequest read =
        st.kind == core::StandingKind::kKeyChange
            ? core::build::query(st.key, core::ReturnPolicy::kPlurality)
        : st.kind == core::StandingKind::kCounterThreshold
            ? core::build::read_counter(st.key)
            : core::build::sketch_topk(st.collector, st.k);
    (void)submit(read, route_read(read), origin);
  }
}

void QueryGateway::evaluate_standing(std::uint64_t sub_id,
                                     std::span<const std::byte> payload) {
  const auto it = standing_.find(sub_id);
  if (it == standing_.end()) return;  // unsubscribed while the read flew
  Standing& st = it->second;
  switch (st.kind) {
    case core::StandingKind::kKeyChange: {
      const auto resp = core::parse_query_response(payload);
      if (!resp) return;
      const bool changed = !st.has_last || resp->outcome != st.last_outcome ||
                           resp->value != st.last_value;
      if (changed) {
        core::StandingNotification note;
        note.kind = st.kind;
        note.value = resp->outcome == core::QueryOutcome::kFound ? 1 : 0;
        note.key = st.key;
        note.aux = resp->value;
        note.flags = resp->flags & core::kResponseDegraded;
        push_notification(sub_id, st, std::move(note));
      }
      st.has_last = true;
      st.last_outcome = resp->outcome;
      st.last_value = resp->value;
      return;
    }
    case core::StandingKind::kCounterThreshold: {
      const auto resp = core::parse_primitive_response(payload);
      if (!resp || resp->op != core::PrimitiveOp::kReadCounter) return;
      if (resp->counter_value >= st.threshold) {
        if (st.armed) {
          st.armed = false;
          core::StandingNotification note;
          note.kind = st.kind;
          note.value = resp->counter_value;
          note.key = st.key;
          note.flags = resp->flags & core::kResponseDegraded;
          push_notification(sub_id, st, std::move(note));
        }
      } else {
        st.armed = true;  // dropped below: re-arm for the next crossing
      }
      return;
    }
    case core::StandingKind::kTopKDelta: {
      const auto resp = core::parse_sketch_response(payload);
      if (!resp || resp->op != core::SketchOp::kTopK) return;
      std::set<std::vector<std::byte>> members;
      for (const core::HeavyHitterWire& hh : resp->hitters) {
        members.insert(hh.key);
        if (!st.members.contains(hh.key)) {
          core::StandingNotification note;
          note.kind = st.kind;
          note.value = hh.count;
          note.key = hh.key;
          note.flags = resp->flags & core::kResponseDegraded;
          push_notification(sub_id, st, std::move(note));
        }
      }
      st.members = std::move(members);
      return;
    }
  }
}

void QueryGateway::push_notification(std::uint64_t sub_id, Standing& st,
                                     core::StandingNotification note) {
  note.subscription_id = sub_id;
  note.seq = ++st.seq;
  note.gateway_epoch = epoch_;
  ++notifications_sent_;
  const Origin& to = st.subscriber;
  if (to.kind == Origin::Kind::kSession) {
    if (to.session < sessions_.size()) {
      sessions_[to.session]->store_.push(std::move(note));
    }
    return;
  }
  if (sim_ == nullptr) return;
  const auto dest = resolver_(to.client_ip);
  if (!dest) return;
  auto frame = net::build_udp_frame(udp_spec(to.reply_from, to.client_ip),
                                    core::encode_notification(note));
  sim_->send(self_, *dest, net::Packet(std::move(frame)));
}

void QueryGateway::bind_metrics(obs::MetricRegistry& registry,
                                const std::string& prefix) {
  registry.counter_fn(prefix + "_gateway_requests_total",
                      [this] { return requests_; },
                      "downstream requests accepted (wire + session)");
  registry.counter_fn(prefix + "_gateway_cache_hits_total",
                      [this] { return cache_.hits(); },
                      "reads served from the result cache");
  registry.counter_fn(prefix + "_gateway_cache_misses_total",
                      [this] { return cache_.misses(); },
                      "cacheable reads that went upstream");
  registry.counter_fn(prefix + "_gateway_cache_inserts_total",
                      [this] { return cache_.inserts(); },
                      "clean upstream answers cached");
  registry.counter_fn(prefix + "_gateway_cache_evictions_total",
                      [this] { return cache_.evictions(); },
                      "entries dropped by LRU capacity or epoch expiry");
  registry.counter_fn(prefix + "_gateway_coalesced_total",
                      [this] { return coalesced_; },
                      "requests coalesced onto an in-flight upstream read");
  registry.counter_fn(prefix + "_gateway_upstream_sent_total",
                      [this] { return upstream_sent_; },
                      "upstream reads issued to collector services");
  registry.counter_fn(prefix + "_gateway_upstream_retries_total",
                      [this] { return upstream_retries_; },
                      "upstream resends under fresh wire ids");
  registry.counter_fn(prefix + "_gateway_upstream_timeouts_total",
                      [this] { return upstream_timeouts_; },
                      "upstream reads failed after exhausting retries");
  registry.counter_fn(prefix + "_gateway_upstream_unexpected_total",
                      [this] { return upstream_unexpected_; },
                      "duplicate/replayed/unknown upstream responses");
  registry.counter_fn(prefix + "_gateway_notifications_total",
                      [this] { return notifications_sent_; },
                      "standing-query notifications pushed");
  registry.counter_fn(prefix + "_gateway_subscribes_total",
                      [this] { return subscribes_accepted_; },
                      "standing-query registrations accepted");
  registry.counter_fn(prefix + "_gateway_subscribes_rejected_total",
                      [this] { return subscribes_rejected_; },
                      "subscribe requests refused (bad predicate)");
  registry.counter_fn(prefix + "_gateway_malformed_total",
                      [this] { return malformed_; },
                      "unparsable frames or unknown magics, including "
                      "upstream answers that fail to parse");
  registry.counter_fn(prefix + "_gateway_not_for_me_total",
                      [this] { return not_for_me_; },
                      "well-formed frames addressed to another node");
  registry.counter_fn(prefix + "_gateway_unroutable_total",
                      [this] { return unroutable_; },
                      "requests with no routable collector");
  registry.gauge_fn(prefix + "_gateway_sessions",
                    [this] { return static_cast<double>(sessions_.size()); },
                    "open in-process operator sessions");
  registry.gauge_fn(prefix + "_gateway_inflight",
                    [this] { return static_cast<double>(upstream_.size()); },
                    "upstream reads currently in flight");
  registry.gauge_fn(prefix + "_gateway_inflight_highwater",
                    [this] { return static_cast<double>(inflight_highwater_); },
                    "high-water mark of in-flight upstream reads");
  registry.gauge_fn(prefix + "_gateway_standing",
                    [this] { return static_cast<double>(standing_.size()); },
                    "registered standing queries");
  static constexpr std::array<std::pair<const char*, const char*>, 3> kLatency{{
      {"kv", "KV"}, {"primitive", "primitive"}, {"sketch", "sketch"}}};
  for (std::size_t i = 0; i < kLatency.size(); ++i) {
    const auto& [suffix, label] = kLatency[i];
    latency_mirror_[i] = &registry.histogram(
        prefix + "_gateway_latency_" + suffix + "_ns", 0.0,
        config_.latency_hist_max_ns, config_.latency_hist_buckets,
        std::string(label) + " query latency through the gateway (ns)");
  }
}

}  // namespace dart::query
