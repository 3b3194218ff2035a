#include "core/query_protocol.hpp"

#include <algorithm>
#include <cstring>
#include <type_traits>

namespace dart::core {

namespace {

constexpr bool table_matches_frame_kind() {
  for (const FrameKind& kind : kFrameKinds) {
    if (&frame_kind(kind.family, kind.direction) != &kind) return false;
  }
  return true;
}
static_assert(table_matches_frame_kind(),
              "kFrameKinds rows must sit where frame_kind() looks for them");

// Ops and standing kinds are numbered from 1 up to `last`.
template <class Op>
bool decode_op(Op& out, std::uint8_t op, Op last) {
  if (op == 0 || op > static_cast<std::uint8_t>(last)) return false;
  out = static_cast<Op>(op);
  return true;
}

template <bool Keep>
void keep(std::vector<std::byte>& out, std::span<const std::byte> bytes) {
  if constexpr (Keep) out.assign(bytes.begin(), bytes.end());
}

// A span of at most 0xFFFF elements, as a count-prefixed list carries.
template <class T>
std::span<const T> capped(const std::vector<T>& items) {
  return {items.data(), std::min<std::size_t>(items.size(), 0xFFFF)};
}

// Per-message codec: the frame kind, the field that carries the header op
// byte (numbered 1..kLastOp), and the body. Body readers store what they
// read only when `Keep`, so the same walk validates a frame in place without
// allocating.
template <class Msg>
struct Wire;

template <>
struct Wire<QueryResponse> {
  static constexpr FrameKind kKind =
      frame_kind(Family::kQuery, Direction::kResponse);
  static void write(BufWriter& w, const QueryResponse& m) {
    w.u8(m.checksum_matches);
    w.u8(m.distinct_values);
    w.be16(static_cast<std::uint16_t>(m.value.size()));
    w.bytes(m.value);
  }
  template <bool Keep>
  static bool read(BufReader& r, QueryResponse& m) {
    m.checksum_matches = r.u8();
    m.distinct_values = r.u8();
    const auto value = r.view(r.be16());
    if (!r.ok() || (m.outcome == QueryOutcome::kFound && value.empty())) {
      return false;
    }
    keep<Keep>(m.value, value);
    return true;
  }
};

template <>
struct Wire<PrimitiveResponse> {
  static constexpr FrameKind kKind =
      frame_kind(Family::kPrimitive, Direction::kResponse);
  static constexpr auto kOp = &PrimitiveResponse::op;
  static constexpr auto kLastOp = PrimitiveOp::kReadPostcardGroup;
  static void write(BufWriter& w, const PrimitiveResponse& m) {
    switch (m.op) {
      case PrimitiveOp::kDrainRing: {
        const auto entries = capped(m.entries);
        w.be64(m.missed);
        w.be64(m.next_seq);
        w.be16(m.entry_value_bytes);
        w.be16(static_cast<std::uint16_t>(entries.size()));
        for (const RingEntryWire& entry : entries) {
          w.be64(entry.seq);
          w.bytes(entry.value);
        }
        return;
      }
      case PrimitiveOp::kReadCounter:
        w.be64(m.cell_index);
        w.be64(m.counter_value);
        return;
      case PrimitiveOp::kReadPostcardGroup:
        w.be64(m.group_index);
        w.u8(m.max_hops);
        w.be32(m.valid_mask);
        w.be16(m.hop_value_bytes);
        for (const auto& hop : m.hops) w.bytes(hop);
        return;
    }
  }
  template <bool Keep>
  static bool read(BufReader& r, PrimitiveResponse& m) {
    switch (m.op) {
      case PrimitiveOp::kDrainRing: {
        m.missed = r.be64();
        m.next_seq = r.be64();
        m.entry_value_bytes = r.be16();
        const std::uint16_t count = r.be16();
        if (!r.ok()) return false;
        if constexpr (Keep) m.entries.reserve(count);
        for (std::uint16_t i = 0; i < count; ++i) {
          const std::uint64_t seq = r.be64();
          const auto value = r.view(m.entry_value_bytes);
          if (!r.ok()) return false;
          if constexpr (Keep) {
            m.entries.push_back(
                RingEntryWire{seq, {value.begin(), value.end()}});
          }
        }
        return true;
      }
      case PrimitiveOp::kReadCounter:
        m.cell_index = r.be64();
        m.counter_value = r.be64();
        return r.ok();
      case PrimitiveOp::kReadPostcardGroup:
        m.group_index = r.be64();
        m.max_hops = r.u8();
        m.valid_mask = r.be32();
        m.hop_value_bytes = r.be16();
        if (!r.ok() || m.max_hops > 32) return false;
        if (m.max_hops < 32 && (m.valid_mask >> m.max_hops) != 0) return false;
        if constexpr (Keep) m.hops.reserve(m.max_hops);
        for (std::uint8_t hop = 0; hop < m.max_hops; ++hop) {
          const auto value = r.view(m.hop_value_bytes);
          if (!r.ok()) return false;
          if constexpr (Keep) m.hops.emplace_back(value.begin(), value.end());
        }
        return true;
    }
    return false;
  }
};

template <>
struct Wire<SketchResponse> {
  static constexpr FrameKind kKind =
      frame_kind(Family::kSketch, Direction::kResponse);
  static constexpr auto kOp = &SketchResponse::op;
  static constexpr auto kLastOp = SketchOp::kTopK;
  static void write(BufWriter& w, const SketchResponse& m) {
    if (m.op == SketchOp::kEstimate) {
      w.be64(m.estimate);
      return;
    }
    const auto hitters = capped(m.hitters);
    w.be16(static_cast<std::uint16_t>(hitters.size()));
    for (const HeavyHitterWire& hh : hitters) {
      w.be64(hh.count);
      w.be16(static_cast<std::uint16_t>(hh.key.size()));
      w.bytes(hh.key);
    }
  }
  template <bool Keep>
  static bool read(BufReader& r, SketchResponse& m) {
    if (m.op == SketchOp::kEstimate) {
      m.estimate = r.be64();
      return r.ok();
    }
    const std::uint16_t count = r.be16();
    if (!r.ok()) return false;
    if constexpr (Keep) m.hitters.reserve(count);
    for (std::uint16_t i = 0; i < count; ++i) {
      const std::uint64_t estimate = r.be64();
      const auto key = r.view(r.be16());
      if (!r.ok() || key.empty()) return false;
      if constexpr (Keep) {
        m.hitters.push_back(
            HeavyHitterWire{estimate, {key.begin(), key.end()}});
      }
    }
    return true;
  }
};

template <>
struct Wire<SubscribeAck> {
  static constexpr FrameKind kKind =
      frame_kind(Family::kGateway, Direction::kResponse);
  static constexpr auto kOp = &SubscribeAck::op;
  static constexpr auto kLastOp = SubscribeOp::kUnsubscribe;
  static void write(BufWriter& w, const SubscribeAck& m) {
    w.be64(m.subscription_id);
  }
  template <bool Keep>
  static bool read(BufReader& r, SubscribeAck& m) {
    m.subscription_id = r.be64();
    return r.ok();
  }
};

template <>
struct Wire<SubscribeRequest> {
  static constexpr FrameKind kKind =
      frame_kind(Family::kGateway, Direction::kRequest);
  static constexpr auto kOp = &SubscribeRequest::op;
  static constexpr auto kLastOp = SubscribeOp::kUnsubscribe;
  static void write(BufWriter& w, const SubscribeRequest& m) {
    w.u8(static_cast<std::uint8_t>(m.kind));
    w.be32(m.collector);
    w.be64(m.threshold);
    w.be16(m.k);
    w.be64(m.subscription_id);
    w.be16(static_cast<std::uint16_t>(m.key.size()));
    w.bytes(m.key);
  }
  template <bool Keep>
  static bool read(BufReader& r, SubscribeRequest& m) {
    if (!decode_op(m.kind, r.u8(), StandingKind::kTopKDelta)) return false;
    m.collector = r.be32();
    m.threshold = r.be64();
    m.k = r.be16();
    m.subscription_id = r.be64();
    const auto key = r.view(r.be16());
    if (!r.ok()) return false;
    keep<Keep>(m.key, key);
    return true;
  }
};

// The notification's op byte is its standing kind; no id or epoch follows.
template <>
struct Wire<StandingNotification> {
  static constexpr FrameKind kKind =
      frame_kind(Family::kGateway, Direction::kNotification);
  static constexpr auto kOp = &StandingNotification::kind;
  static constexpr auto kLastOp = StandingKind::kTopKDelta;
  static void write(BufWriter& w, const StandingNotification& m) {
    w.be64(m.subscription_id);
    w.be64(m.seq);
    w.be64(m.gateway_epoch);
    w.u8(m.flags);
    w.be64(m.value);
    w.be16(static_cast<std::uint16_t>(m.key.size()));
    w.bytes(m.key);
    w.be16(static_cast<std::uint16_t>(m.aux.size()));
    w.bytes(m.aux);
  }
  template <bool Keep>
  static bool read(BufReader& r, StandingNotification& m) {
    m.subscription_id = r.be64();
    m.seq = r.be64();
    m.gateway_epoch = r.be64();
    m.flags = r.u8();
    m.value = r.be64();
    const auto key = r.view(r.be16());
    const auto aux = r.view(r.be16());
    if (!r.ok()) return false;
    keep<Keep>(m.key, key);
    keep<Keep>(m.aux, aux);
    return true;
  }
};

// The header op byte: the family op, or a query-v2 answer's outcome.
template <class Msg>
std::uint8_t op_of(const Msg& m) {
  if constexpr (std::is_same_v<Msg, QueryResponse>) {
    return m.outcome == QueryOutcome::kFound ? 1 : 0;
  } else {
    return static_cast<std::uint8_t>(m.*Wire<Msg>::kOp);
  }
}

template <class Msg>
bool set_op(Msg& m, std::uint8_t op) {
  if constexpr (std::is_same_v<Msg, QueryResponse>) {
    m.outcome = op != 0 ? QueryOutcome::kFound : QueryOutcome::kEmpty;
    return true;
  } else {
    return decode_op(m.*Wire<Msg>::kOp, op, Wire<Msg>::kLastOp);
  }
}

template <class Msg>
std::vector<std::byte> encode_as(const Msg& m) {
  using W = Wire<Msg>;
  FrameHeader header;
  header.op = op_of(m);
  if constexpr (W::kKind.direction != Direction::kNotification) {
    header.request_id = m.request_id;
    header.epoch = m.epoch;
  }
  if constexpr (W::kKind.direction == Direction::kResponse) {
    header.flags = m.flags;
    header.stale_epochs = m.stale_epochs;
  }
  std::vector<std::byte> out;
  out.reserve(64);  // one allocation for all but long drains and top-k lists
  BufWriter w(out);
  write_header(w, W::kKind, header);
  W::write(w, m);
  return out;
}

template <class Msg, bool Keep = true>
std::optional<Msg> parse_as(std::span<const std::byte> payload) {
  using W = Wire<Msg>;
  BufReader r(payload);
  const auto header = read_header(r, W::kKind);
  Msg m;
  if (!header || !set_op(m, header->op)) return std::nullopt;
  if constexpr (W::kKind.direction != Direction::kNotification) {
    m.request_id = header->request_id;
    m.epoch = header->epoch;
  }
  if constexpr (W::kKind.direction == Direction::kResponse) {
    m.flags = header->flags;
    m.stale_epochs = header->stale_epochs;
  }
  if (!W::template read<Keep>(r, m) || r.remaining() != 0) return std::nullopt;
  return m;
}

template <class Msg>
std::optional<Answer> answer_as(std::span<const std::byte> payload) {
  auto m = parse_as<Msg>(payload);
  if (!m) return std::nullopt;
  return Answer{*std::move(m)};
}

template <class Msg>
bool valid_as(std::span<const std::byte> payload) {
  return parse_as<Msg, /*Keep=*/false>(payload).has_value();
}

// Response codecs indexed by Family - 1.
constexpr std::array kAnswerParsers = {
    &answer_as<QueryResponse>, &answer_as<PrimitiveResponse>,
    &answer_as<SketchResponse>, &answer_as<SubscribeAck>};
constexpr std::array kResponseValidators = {
    &valid_as<QueryResponse>, &valid_as<PrimitiveResponse>,
    &valid_as<SketchResponse>, &valid_as<SubscribeAck>};

std::size_t response_codec(std::span<const std::byte> payload) {
  const auto kind = classify(payload);
  if (!kind || kind->direction != Direction::kResponse) return 0;
  return static_cast<std::size_t>(kind->family);
}

}  // namespace

std::optional<FrameKind> classify(std::span<const std::byte> payload) noexcept {
  if (payload.size() < 2) return std::nullopt;
  const auto magic = static_cast<std::uint16_t>(
      std::to_integer<std::uint16_t>(payload[0]) << 8 |
      std::to_integer<std::uint16_t>(payload[1]));
  for (const FrameKind& kind : kFrameKinds) {
    if (kind.magic == magic) return kind;
  }
  return std::nullopt;
}

void write_header(BufWriter& w, const FrameKind& kind,
                  const FrameHeader& header) {
  w.be16(kind.magic);
  w.u8(kind.version);
  w.u8(header.op);
  if (kind.direction == Direction::kNotification) return;
  w.be64(header.request_id);
  w.be32(header.epoch);
  if (kind.direction != Direction::kResponse) return;
  w.u8(header.flags);
  w.be16(header.stale_epochs);
}

std::optional<FrameHeader> read_header(BufReader& r, const FrameKind& kind) {
  if (r.be16() != kind.magic || r.u8() != kind.version) return std::nullopt;
  FrameHeader header;
  header.op = r.u8();
  if (kind.direction != Direction::kNotification) {
    header.request_id = r.be64();
    header.epoch = r.be32();
  }
  if (kind.direction == Direction::kResponse) {
    header.flags = r.u8();
    header.stale_epochs = r.be16();
  }
  if (!r.ok()) return std::nullopt;
  return header;
}

std::uint64_t frame_request_id(std::span<const std::byte> frame) noexcept {
  if (frame.size() < kFrameIdOffset + 8) return 0;
  std::uint64_t be = 0;
  std::memcpy(&be, frame.data() + kFrameIdOffset, sizeof(be));
  return net_to_host64(be);
}

void set_frame_request_id(std::span<std::byte> frame,
                          std::uint64_t id) noexcept {
  if (frame.size() < kFrameIdOffset + 8) return;
  const std::uint64_t be = host_to_net64(id);
  std::memcpy(frame.data() + kFrameIdOffset, &be, sizeof(be));
}

void set_frame_id_epoch(std::span<std::byte> frame, std::uint64_t id,
                        std::uint32_t epoch) noexcept {
  if (frame.size() < kRequestHeaderBytes) return;
  set_frame_request_id(frame, id);
  const std::uint32_t be = host_to_net32(epoch);
  std::memcpy(frame.data() + kFrameEpochOffset, &be, sizeof(be));
}

void add_frame_staleness(std::span<std::byte> frame,
                         std::uint64_t age) noexcept {
  if (age == 0 || frame.size() < kResponseHeaderBytes) return;
  frame[kFrameFlagsOffset] |= std::byte{kResponseDegraded};
  std::uint16_t be = 0;
  std::memcpy(&be, frame.data() + kFrameStaleOffset, sizeof(be));
  const std::uint64_t stale = std::min<std::uint64_t>(
      net_to_host16(be) + std::min<std::uint64_t>(age, 0xFFFF), 0xFFFF);
  be = host_to_net16(static_cast<std::uint16_t>(stale));
  std::memcpy(frame.data() + kFrameStaleOffset, &be, sizeof(be));
}

const ReadOp* read_op(Family family, std::uint8_t op) noexcept {
  if (family == Family::kQuery) {
    // Every return policy reads the same way.
    return op <= static_cast<std::uint8_t>(ReturnPolicy::kConsensusTwo)
               ? &kReadOps[0]
               : nullptr;
  }
  for (const ReadOp& row : kReadOps) {
    if (row.family == family && row.op == op) return &row;
  }
  return nullptr;
}

std::vector<std::byte> encode_read(const ReadRequest& request) {
  std::vector<std::byte> out;
  out.reserve(kRequestHeaderBytes + 12 + request.key.size());
  BufWriter w(out);
  write_header(w, frame_kind(request.family, Direction::kRequest),
               {request.op, request.request_id, request.epoch});
  if (request.family == Family::kPrimitive) w.be64(request.max_entries);
  if (request.family == Family::kSketch) w.be16(request.k);
  w.be16(static_cast<std::uint16_t>(request.key.size()));
  w.bytes(request.key);
  return out;
}

std::optional<ReadRequest> parse_read(std::span<const std::byte> payload) {
  const auto kind = classify(payload);
  if (!kind || kind->direction != Direction::kRequest ||
      kind->family == Family::kGateway) {
    return std::nullopt;
  }
  BufReader r(payload);
  const auto header = read_header(r, *kind);
  if (!header) return std::nullopt;
  const ReadOp* row = read_op(kind->family, header->op);
  if (row == nullptr) return std::nullopt;
  ReadRequest request;
  request.family = kind->family;
  request.op = header->op;
  request.request_id = header->request_id;
  request.epoch = header->epoch;
  if (request.family == Family::kPrimitive) request.max_entries = r.be64();
  if (request.family == Family::kSketch) request.k = r.be16();
  request.key = r.view(r.be16());
  // A keyed op needs its key; a collector-addressed one must not carry one,
  // and a top-k must ask for at least one hitter.
  if (!r.ok() || r.remaining() != 0 || request.key.empty() == row->keyed ||
      (row->family == Family::kSketch && !row->keyed && request.k == 0)) {
    return std::nullopt;
  }
  return request;
}

std::vector<std::byte> encode_empty_answer(const ReadOp& row,
                                           std::uint8_t flags) {
  std::vector<std::byte> out;
  out.reserve(kResponseHeaderBytes + row.empty_body);
  BufWriter w(out);
  FrameHeader header;
  header.op = row.answer_op;
  header.flags = flags;
  write_header(w, frame_kind(row.family, Direction::kResponse), header);
  w.zeros(row.empty_body);
  return out;
}

std::vector<std::byte> encode_query_request(const QueryRequest& req) {
  return encode_read({.family = Family::kQuery,
                      .op = static_cast<std::uint8_t>(req.policy),
                      .request_id = req.request_id,
                      .epoch = req.epoch,
                      .key = req.key});
}

std::optional<QueryRequest> parse_query_request(
    std::span<const std::byte> payload) {
  const auto read = parse_read(payload);
  if (!read || read->family != Family::kQuery) return std::nullopt;
  return QueryRequest{read->request_id, read->epoch,
                      static_cast<ReturnPolicy>(read->op),
                      {read->key.begin(), read->key.end()}};
}

std::vector<std::byte> encode_primitive_request(const PrimitiveRequest& req) {
  return encode_read({.family = Family::kPrimitive,
                      .op = static_cast<std::uint8_t>(req.op),
                      .request_id = req.request_id,
                      .epoch = req.epoch,
                      .max_entries = req.max_entries,
                      .key = req.key});
}

std::optional<PrimitiveRequest> parse_primitive_request(
    std::span<const std::byte> payload) {
  const auto read = parse_read(payload);
  if (!read || read->family != Family::kPrimitive) return std::nullopt;
  return PrimitiveRequest{static_cast<PrimitiveOp>(read->op), read->request_id,
                          read->epoch, read->max_entries,
                          {read->key.begin(), read->key.end()}};
}

std::vector<std::byte> encode_sketch_request(const SketchRequest& req) {
  return encode_read({.family = Family::kSketch,
                      .op = static_cast<std::uint8_t>(req.op),
                      .request_id = req.request_id,
                      .epoch = req.epoch,
                      .k = req.k,
                      .key = req.key});
}

std::optional<SketchRequest> parse_sketch_request(
    std::span<const std::byte> payload) {
  const auto read = parse_read(payload);
  if (!read || read->family != Family::kSketch) return std::nullopt;
  return SketchRequest{static_cast<SketchOp>(read->op), read->request_id,
                       read->epoch, read->k,
                       {read->key.begin(), read->key.end()}};
}

std::vector<std::byte> encode_query_response(const QueryResponse& resp) {
  return encode_as(resp);
}
std::optional<QueryResponse> parse_query_response(
    std::span<const std::byte> payload) {
  return parse_as<QueryResponse>(payload);
}

std::vector<std::byte> encode_primitive_response(
    const PrimitiveResponse& resp) {
  return encode_as(resp);
}
std::optional<PrimitiveResponse> parse_primitive_response(
    std::span<const std::byte> payload) {
  return parse_as<PrimitiveResponse>(payload);
}

std::vector<std::byte> encode_sketch_response(const SketchResponse& resp) {
  return encode_as(resp);
}
std::optional<SketchResponse> parse_sketch_response(
    std::span<const std::byte> payload) {
  return parse_as<SketchResponse>(payload);
}

std::vector<std::byte> encode_subscribe_request(const SubscribeRequest& req) {
  return encode_as(req);
}
std::optional<SubscribeRequest> parse_subscribe_request(
    std::span<const std::byte> payload) {
  return parse_as<SubscribeRequest>(payload);
}

std::vector<std::byte> encode_subscribe_ack(const SubscribeAck& ack) {
  return encode_as(ack);
}
std::optional<SubscribeAck> parse_subscribe_ack(
    std::span<const std::byte> payload) {
  return parse_as<SubscribeAck>(payload);
}

std::vector<std::byte> encode_notification(const StandingNotification& note) {
  return encode_as(note);
}
std::optional<StandingNotification> parse_notification(
    std::span<const std::byte> payload) {
  return parse_as<StandingNotification>(payload);
}

std::optional<Answer> parse_answer(std::span<const std::byte> payload) {
  const std::size_t family = response_codec(payload);
  if (family == 0) return std::nullopt;
  return kAnswerParsers[family - 1](payload);
}

bool validate_response(std::span<const std::byte> payload) {
  const std::size_t family = response_codec(payload);
  return family != 0 && kResponseValidators[family - 1](payload);
}

QueryResponse make_response(std::uint64_t request_id,
                            const QueryResult& result) {
  QueryResponse resp;
  resp.request_id = request_id;
  resp.outcome = result.outcome;
  resp.checksum_matches = static_cast<std::uint8_t>(
      std::min<std::uint32_t>(result.checksum_matches, 0xFF));
  resp.distinct_values = static_cast<std::uint8_t>(
      std::min<std::uint32_t>(result.distinct_values, 0xFF));
  resp.value = result.value;
  return resp;
}

}  // namespace dart::core
