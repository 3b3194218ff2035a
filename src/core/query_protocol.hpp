// The operator query protocol (§3.2, left side of Fig. 2).
//
// Queries are the one place DART uses the collector CPU, and they are
// network operations: the operator hashes the key to a collector id, looks
// the collector up in the directory, and sends a query request; the
// collector reads the key's N slots locally and replies. This module
// defines the wire format; query_service.hpp provides the collector-side
// service node and the operator client for the fabric simulator.
//
// Four families share UDP/4800 — query-v2 (KV reads), primitive-v1 (the DTA
// read paths), sketch-v1 (sketch-backend reads) and gateway-v1 (standing
// queries) — and one header codec frames all of them:
//
//   every request:   [magic u16][ver u8][op u8][request id u64][epoch u32]
//   every response:  the request header, then [flags u8][stale epochs u16]
//
// The magic selects a row of kFrameKinds (family, direction, version). The
// op byte is the family's op, except in query-v2, which carries the return
// policy in requests and the outcome (1 = found) in responses. The response
// echoes the request's epoch so the client can compute staleness even when
// responses arrive out of order; `flags` carries the kResponse* bits below
// and `stale_epochs` counts the epochs of the answer's data that are missing
// or suspect (docs/FAULTS.md). The family body follows the header.
//
// One framing rule holds for every frame: a parser rejects a frame that is
// truncated, carries another version or an unknown op, or has bytes left
// over after a complete body. Frames of an older version are rejected by the
// version check — the operator and services deploy together in this model.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <variant>
#include <vector>

#include "common/bytes.hpp"
#include "core/query.hpp"

namespace dart::core {

inline constexpr std::uint16_t kDartQueryUdpPort = 4800;

inline constexpr std::uint8_t kQueryProtocolVersion = 2;
inline constexpr std::uint8_t kPrimitiveProtocolVersion = 1;
inline constexpr std::uint8_t kSketchProtocolVersion = 1;
inline constexpr std::uint8_t kGatewayProtocolVersion = 1;

// Response `flags` bits, shared by every family.
inline constexpr std::uint8_t kResponseDegraded = 0x01;
// The collector has no DTA primitive regions enabled — the primitive op was
// understood but cannot be answered (body is zeroed).
inline constexpr std::uint8_t kResponsePrimitiveUnavailable = 0x02;
// The collector's storage backend is not a sketch — the sketch op was
// understood but cannot be answered (body is zeroed).
inline constexpr std::uint8_t kResponseSketchUnavailable = 0x04;
// The query gateway exhausted its upstream retries for this request: the
// body is zeroed, the answer is synthesized, and kResponseDegraded rides
// along (a timed-out answer is by definition not trustworthy).
inline constexpr std::uint8_t kResponseGatewayTimeout = 0x08;
// A standing-query subscribe was understood but rejected (bad predicate
// parameters, e.g. top-k with k == 0 or a keyed kind with an empty key).
inline constexpr std::uint8_t kResponseSubscribeRejected = 0x10;

// --- the family table --------------------------------------------------------

enum class Family : std::uint8_t {
  kQuery = 1,      // query-v2: KV reads
  kPrimitive = 2,  // primitive-v1: Append / Key-Increment / Postcarding reads
  kSketch = 3,     // sketch-v1: count-min estimate and top-k
  kGateway = 4,    // gateway-v1: standing-query subscribe, ack, push
};

enum class Direction : std::uint8_t {
  kRequest = 0,
  kResponse = 1,
  kNotification = 2,
};

struct FrameKind {
  std::uint16_t magic = 0;
  Family family = Family::kQuery;
  Direction direction = Direction::kRequest;
  std::uint8_t version = 0;
};

// Every magic on UDP/4800, two rows per family (request, response) in
// Family order, then the gateway's notification push.
// Magics spell "DQ" "DR" "Dp" "Dr" "DS" "DT" "DU" "DV" "DW" in ASCII; the
// gateway's request, response and notification are the subscribe request,
// the subscribe ack and the standing-query push.
inline constexpr std::array<FrameKind, 9> kFrameKinds{{
    {0x4451, Family::kQuery, Direction::kRequest, kQueryProtocolVersion},
    {0x4452, Family::kQuery, Direction::kResponse, kQueryProtocolVersion},
    {0x4470, Family::kPrimitive, Direction::kRequest,
     kPrimitiveProtocolVersion},
    {0x4472, Family::kPrimitive, Direction::kResponse,
     kPrimitiveProtocolVersion},
    {0x4453, Family::kSketch, Direction::kRequest, kSketchProtocolVersion},
    {0x4454, Family::kSketch, Direction::kResponse, kSketchProtocolVersion},
    {0x4455, Family::kGateway, Direction::kRequest, kGatewayProtocolVersion},
    {0x4456, Family::kGateway, Direction::kResponse, kGatewayProtocolVersion},
    {0x4457, Family::kGateway, Direction::kNotification,
     kGatewayProtocolVersion},
}};

// The row of (family, direction). Only the gateway family has notifications.
[[nodiscard]] constexpr const FrameKind& frame_kind(Family family,
                                                    Direction direction) {
  return kFrameKinds[2 * (static_cast<std::size_t>(family) - 1) +
                     static_cast<std::size_t>(direction)];
}

// The row of `payload`'s magic; nullopt for an unknown magic or a payload
// too short to carry one. Says nothing about the rest of the frame.
[[nodiscard]] std::optional<FrameKind> classify(
    std::span<const std::byte> payload) noexcept;

// --- the shared header -------------------------------------------------------

// One decoded header. request_id and epoch are absent from notifications;
// flags and stale_epochs are response-only.
struct FrameHeader {
  std::uint8_t op = 0;
  std::uint64_t request_id = 0;
  std::uint32_t epoch = 0;
  std::uint8_t flags = 0;
  std::uint16_t stale_epochs = 0;
};

// Field offsets every request and response shares: the gateway and the
// client's retry path edit encoded frames in place at these offsets.
inline constexpr std::size_t kFrameOpOffset = 3;
inline constexpr std::size_t kFrameIdOffset = 4;
inline constexpr std::size_t kFrameEpochOffset = 12;
inline constexpr std::size_t kFrameFlagsOffset = 16;
inline constexpr std::size_t kFrameStaleOffset = 17;
inline constexpr std::size_t kRequestHeaderBytes = 16;
inline constexpr std::size_t kResponseHeaderBytes = 19;

// Writes the header `kind` prescribes: magic, version and op, then id and
// epoch unless it is a notification, then flags and stale for a response.
void write_header(BufWriter& w, const FrameKind& kind,
                  const FrameHeader& header);
// Reads it back; nullopt unless magic and version match and it is complete.
[[nodiscard]] std::optional<FrameHeader> read_header(BufReader& r,
                                                     const FrameKind& kind);

// In-place edits of an encoded request or response. Frames too short for
// the field read as 0 and are left unchanged.
[[nodiscard]] std::uint64_t frame_request_id(
    std::span<const std::byte> frame) noexcept;
void set_frame_request_id(std::span<std::byte> frame,
                          std::uint64_t id) noexcept;
void set_frame_id_epoch(std::span<std::byte> frame, std::uint64_t id,
                        std::uint32_t epoch) noexcept;
// A response served `age` epochs after it was fetched is that much staler:
// sets kResponseDegraded and adds `age` to stale_epochs, saturating at
// 0xFFFF. Age 0 changes nothing.
void add_frame_staleness(std::span<std::byte> frame,
                         std::uint64_t age) noexcept;

// --- read requests: query-v2, primitive-v1, sketch-v1 -----------------------
//
// Request bodies after the 16-byte request header:
//   query-v2 (op = ReturnPolicy):  [key len u16][key bytes]
//   primitive-v1:                  [max entries u64][key len u16][key bytes]
//   sketch-v1:                     [k u16][key len u16][key bytes]
// A keyed op needs a non-empty key; every other op names its collector by
// address and must carry an empty key. max entries is the drain cap (0 = no
// cap) and k the top-k size (>= 1); other ops carry but ignore them.

enum class PrimitiveOp : std::uint8_t {
  kDrainRing = 1,         // Append: collect unread ring entries
  kReadCounter = 2,       // Key-Increment: read the cell owning a key
  kReadPostcardGroup = 3, // Postcarding: assemble a flow's slot group
};

enum class SketchOp : std::uint8_t {
  kEstimate = 1,  // count-min estimate of one key
  kTopK = 2,      // current heavy-hitter candidates, strongest first
};

// What the service, the client and the gateway need to know about a read
// op, so none of them branches on family. Query-v2's one row stands for
// every return policy.
struct ReadOp {
  Family family = Family::kQuery;
  std::uint8_t op = 0;
  bool keyed = true;       // routed by its key's hash; else collector-addressed
  bool cacheable = true;   // idempotent, so answers may be cached and shared
  std::uint8_t answer_op = 0;      // op byte of its answer (query-v2: outcome)
  std::uint8_t empty_body = 0;     // body bytes of a zeroed answer
};

inline constexpr std::array<ReadOp, 6> kReadOps{{
    {Family::kQuery, 0, true, true, 0, 4},
    // A drain is a consuming read: never cached, never coalesced — two
    // operators draining one ring must each get their own entries.
    {Family::kPrimitive, 1, false, false, 1, 20},  // kDrainRing
    {Family::kPrimitive, 2, true, true, 2, 16},    // kReadCounter
    {Family::kPrimitive, 3, true, true, 3, 15},    // kReadPostcardGroup
    {Family::kSketch, 1, true, true, 1, 8},        // kEstimate
    {Family::kSketch, 2, false, true, 2, 2},       // kTopK
}};

// The row of a read request's (family, op byte); nullptr for the gateway
// family or an op the family does not define.
[[nodiscard]] const ReadOp* read_op(Family family, std::uint8_t op) noexcept;

// A read request of any read family. `key` views caller-owned bytes (the
// parsed payload, for parse_read). `collector` is not on the wire: it names
// the target of a collector-addressed op before routing.
struct ReadRequest {
  Family family = Family::kQuery;
  std::uint8_t op = 0;  // the family op; query-v2: the ReturnPolicy
  std::uint64_t request_id = 0;
  std::uint32_t epoch = 0;
  std::uint64_t max_entries = 0;
  std::uint16_t k = 0;
  std::span<const std::byte> key{};
  std::uint32_t collector = 0;
};

[[nodiscard]] std::vector<std::byte> encode_read(const ReadRequest& request);
// Any read family's request, decoded in place; nullopt for anything else.
[[nodiscard]] std::optional<ReadRequest> parse_read(
    std::span<const std::byte> payload);

// A zeroed answer to a `row` read, carrying `flags` (id and epoch 0): what
// the gateway delivers when it gives up on an upstream read.
[[nodiscard]] std::vector<std::byte> encode_empty_answer(const ReadOp& row,
                                                         std::uint8_t flags);

// --- query-v2 ----------------------------------------------------------------
//
// Response body: [checksum matches u8][distinct values u8][value len u16]
// [value bytes]; a found answer needs a non-empty value.

struct QueryRequest {
  std::uint64_t request_id = 0;
  std::uint32_t epoch = 0;  // client's epoch counter at send time
  ReturnPolicy policy = ReturnPolicy::kPlurality;
  std::vector<std::byte> key;
};

struct QueryResponse {
  std::uint64_t request_id = 0;
  std::uint32_t epoch = 0;        // echoed from the request (staleness anchor)
  std::uint8_t flags = 0;         // kResponseDegraded | reserved
  std::uint16_t stale_epochs = 0; // epochs of this key's data missing/suspect
  QueryOutcome outcome = QueryOutcome::kEmpty;
  std::uint8_t checksum_matches = 0;
  std::uint8_t distinct_values = 0;
  std::vector<std::byte> value;  // present iff outcome == kFound

  [[nodiscard]] bool degraded() const noexcept {
    return (flags & kResponseDegraded) != 0;
  }
};

[[nodiscard]] std::vector<std::byte> encode_query_request(const QueryRequest& req);
[[nodiscard]] std::optional<QueryRequest> parse_query_request(
    std::span<const std::byte> payload);

[[nodiscard]] std::vector<std::byte> encode_query_response(
    const QueryResponse& resp);
[[nodiscard]] std::optional<QueryResponse> parse_query_response(
    std::span<const std::byte> payload);

// Builds a response from a QueryEngine result.
[[nodiscard]] QueryResponse make_response(std::uint64_t request_id,
                                          const QueryResult& result);

// --- primitive-v1 (primitives.hpp) -------------------------------------------
//
// Response body, by op:
//   kDrainRing:         [missed u64][next seq u64][value bytes u16]
//                       [count u16] then count × ([seq u64][value])
//   kReadCounter:       [cell index u64][counter value u64]
//   kReadPostcardGroup: [group u64][max hops u8][valid mask u32]
//                       [value bytes u16] then max_hops × [value]

struct PrimitiveRequest {
  PrimitiveOp op = PrimitiveOp::kDrainRing;
  std::uint64_t request_id = 0;
  std::uint32_t epoch = 0;
  std::uint64_t max_entries = 0;  // kDrainRing: 0 = no cap
  std::vector<std::byte> key;     // keyed ops only
};

struct RingEntryWire {
  std::uint64_t seq = 0;
  std::vector<std::byte> value;
};

struct PrimitiveResponse {
  PrimitiveOp op = PrimitiveOp::kDrainRing;
  std::uint64_t request_id = 0;
  std::uint32_t epoch = 0;         // echoed from the request
  std::uint8_t flags = 0;          // kResponseDegraded | kResponsePrimitiveUnavailable
  std::uint16_t stale_epochs = 0;

  // kDrainRing body.
  std::uint64_t missed = 0;
  std::uint64_t next_seq = 0;
  std::uint16_t entry_value_bytes = 0;
  std::vector<RingEntryWire> entries;

  // kReadCounter body.
  std::uint64_t cell_index = 0;
  std::uint64_t counter_value = 0;

  // kReadPostcardGroup body.
  std::uint64_t group_index = 0;
  std::uint8_t max_hops = 0;
  std::uint32_t valid_mask = 0;
  std::uint16_t hop_value_bytes = 0;
  std::vector<std::vector<std::byte>> hops;  // max_hops values

  [[nodiscard]] bool degraded() const noexcept {
    return (flags & kResponseDegraded) != 0;
  }
  [[nodiscard]] bool unavailable() const noexcept {
    return (flags & kResponsePrimitiveUnavailable) != 0;
  }
};

[[nodiscard]] std::vector<std::byte> encode_primitive_request(
    const PrimitiveRequest& req);
[[nodiscard]] std::optional<PrimitiveRequest> parse_primitive_request(
    std::span<const std::byte> payload);

[[nodiscard]] std::vector<std::byte> encode_primitive_response(
    const PrimitiveResponse& resp);
[[nodiscard]] std::optional<PrimitiveResponse> parse_primitive_response(
    std::span<const std::byte> payload);

// --- sketch-v1 (store_backend.hpp) -------------------------------------------
//
// Read path of sketch-backed collectors. kEstimate returns the count-min
// estimate for one key (and feeds the collector's heavy-hitter tracker as a
// side effect — the tracker is maintained entirely on the query path, so
// ingest stays zero-CPU). kTopK returns the tracker's current top-k.
//
// Response body, by op:
//   kEstimate: [estimate u64]
//   kTopK:     [count u16] then count × ([estimate u64][key len u16][key])

struct SketchRequest {
  SketchOp op = SketchOp::kEstimate;
  std::uint64_t request_id = 0;
  std::uint32_t epoch = 0;
  std::uint16_t k = 0;            // kTopK only; >= 1
  std::vector<std::byte> key;     // kEstimate only; non-empty
};

struct HeavyHitterWire {
  std::uint64_t count = 0;  // count-min estimate at response time
  std::vector<std::byte> key;
};

struct SketchResponse {
  SketchOp op = SketchOp::kEstimate;
  std::uint64_t request_id = 0;
  std::uint32_t epoch = 0;  // echoed from the request
  std::uint8_t flags = 0;   // kResponseDegraded | kResponseSketchUnavailable
  std::uint16_t stale_epochs = 0;

  // kEstimate body.
  std::uint64_t estimate = 0;

  // kTopK body: descending by count, ties broken by ascending key bytes.
  std::vector<HeavyHitterWire> hitters;

  [[nodiscard]] bool degraded() const noexcept {
    return (flags & kResponseDegraded) != 0;
  }
  [[nodiscard]] bool unavailable() const noexcept {
    return (flags & kResponseSketchUnavailable) != 0;
  }
};

[[nodiscard]] std::vector<std::byte> encode_sketch_request(
    const SketchRequest& req);
[[nodiscard]] std::optional<SketchRequest> parse_sketch_request(
    std::span<const std::byte> payload);

[[nodiscard]] std::vector<std::byte> encode_sketch_response(
    const SketchResponse& resp);
[[nodiscard]] std::optional<SketchResponse> parse_sketch_response(
    std::span<const std::byte> payload);

// --- gateway-v1: standing queries (src/query/gateway.hpp) --------------------
//
// Sonata-style query-driven subscriptions: instead of polling, an operator
// registers a predicate with the query gateway once; the gateway evaluates
// all standing predicates against the collector pool on every epoch tick and
// PUSHES a notification frame when one fires.
//
// Subscribe request body:
//   [kind u8][collector u32][threshold u64][k u16][subscription id u64]
//   [key len u16][key bytes]
//   op 1 = subscribe (subscription id must be 0; kind/params describe the
//   predicate), op 2 = unsubscribe (subscription id names the registration;
//   kind/params are ignored). kKeyChange and kCounterThreshold require a
//   non-empty key (the collector is re-hashed per evaluation, so failover
//   retargets are honored); kTopKDelta requires an empty key, k >= 1, and an
//   explicit collector id (trackers are per-collector).
// Subscribe ack body: [subscription id u64]
//   flags carries kResponseSubscribeRejected when the predicate was refused
//   (subscription id is then 0).
// Notification push — the one frame without request id and epoch; after
// [magic][ver][kind u8] comes its own layout:
//   [subscription id u64][seq u64][gateway epoch u64][flags u8][value u64]
//   [key len u16][key bytes][aux len u16][aux bytes]
//   seq counts notifications per subscription (gap detection under UDP
//   loss). Per kind: kKeyChange — key = watched key, value = 1 if found
//   else 0, aux = the key's current value bytes; kCounterThreshold — key =
//   watched key, value = the counter reading that crossed the threshold;
//   kTopKDelta — key = the key that entered the top-k, value = its estimate.

enum class StandingKind : std::uint8_t {
  kKeyChange = 1,         // KV value of a key changed (incl. first sighting)
  kCounterThreshold = 2,  // Key-Increment counter crossed a threshold upward
  kTopKDelta = 3,         // a key entered a sketch collector's top-k set
};

enum class SubscribeOp : std::uint8_t { kSubscribe = 1, kUnsubscribe = 2 };

struct SubscribeRequest {
  SubscribeOp op = SubscribeOp::kSubscribe;
  std::uint64_t request_id = 0;
  std::uint32_t epoch = 0;
  StandingKind kind = StandingKind::kKeyChange;
  std::uint32_t collector = 0;     // kTopKDelta only
  std::uint64_t threshold = 0;     // kCounterThreshold only
  std::uint16_t k = 0;             // kTopKDelta only; >= 1
  std::uint64_t subscription_id = 0;  // kUnsubscribe only
  std::vector<std::byte> key{};    // keyed kinds only
};

struct SubscribeAck {
  SubscribeOp op = SubscribeOp::kSubscribe;
  std::uint64_t request_id = 0;
  std::uint32_t epoch = 0;  // echoed from the request
  std::uint8_t flags = 0;   // kResponseSubscribeRejected on refusal
  std::uint16_t stale_epochs = 0;
  std::uint64_t subscription_id = 0;  // 0 iff rejected

  [[nodiscard]] bool rejected() const noexcept {
    return (flags & kResponseSubscribeRejected) != 0;
  }
};

struct StandingNotification {
  StandingKind kind = StandingKind::kKeyChange;
  std::uint64_t subscription_id = 0;
  std::uint64_t seq = 0;            // per-subscription, starts at 1
  std::uint64_t gateway_epoch = 0;  // epoch tick that fired the predicate
  std::uint8_t flags = 0;           // kResponseDegraded if the read was
  std::uint64_t value = 0;
  std::vector<std::byte> key;
  std::vector<std::byte> aux;  // kKeyChange: the key's current value bytes
};

[[nodiscard]] std::vector<std::byte> encode_subscribe_request(
    const SubscribeRequest& req);
[[nodiscard]] std::optional<SubscribeRequest> parse_subscribe_request(
    std::span<const std::byte> payload);

[[nodiscard]] std::vector<std::byte> encode_subscribe_ack(
    const SubscribeAck& ack);
[[nodiscard]] std::optional<SubscribeAck> parse_subscribe_ack(
    std::span<const std::byte> payload);

[[nodiscard]] std::vector<std::byte> encode_notification(
    const StandingNotification& note);
[[nodiscard]] std::optional<StandingNotification> parse_notification(
    std::span<const std::byte> payload);

// --- responses of any family -------------------------------------------------

using Answer = std::variant<QueryResponse, PrimitiveResponse, SketchResponse,
                            SubscribeAck>;

// A response of any family, parsed by its family codec; nullopt for
// anything else.
[[nodiscard]] std::optional<Answer> parse_answer(
    std::span<const std::byte> payload);
// The same check without building the answer: walks the frame in place and
// allocates nothing.
[[nodiscard]] bool validate_response(std::span<const std::byte> payload);

// --- one builder per operator op ---------------------------------------------
//
// OperatorClient and GatewaySession build their requests here; the caller
// stamps the request id and epoch. Keys are viewed, not copied.

namespace build {

[[nodiscard]] inline ReadRequest query(std::span<const std::byte> key,
                                       ReturnPolicy policy) {
  return {.family = Family::kQuery, .op = static_cast<std::uint8_t>(policy),
          .key = key};
}
[[nodiscard]] inline ReadRequest drain_ring(std::uint32_t collector,
                                            std::uint64_t max_entries) {
  return {.family = Family::kPrimitive,
          .op = static_cast<std::uint8_t>(PrimitiveOp::kDrainRing),
          .max_entries = max_entries, .collector = collector};
}
[[nodiscard]] inline ReadRequest read_counter(std::span<const std::byte> key) {
  return {.family = Family::kPrimitive,
          .op = static_cast<std::uint8_t>(PrimitiveOp::kReadCounter),
          .key = key};
}
[[nodiscard]] inline ReadRequest read_postcard_group(
    std::span<const std::byte> flow_key) {
  return {.family = Family::kPrimitive,
          .op = static_cast<std::uint8_t>(PrimitiveOp::kReadPostcardGroup),
          .key = flow_key};
}
[[nodiscard]] inline ReadRequest sketch_estimate(
    std::span<const std::byte> key) {
  return {.family = Family::kSketch,
          .op = static_cast<std::uint8_t>(SketchOp::kEstimate), .key = key};
}
[[nodiscard]] inline ReadRequest sketch_topk(std::uint32_t collector,
                                             std::uint16_t k) {
  return {.family = Family::kSketch,
          .op = static_cast<std::uint8_t>(SketchOp::kTopK), .k = k,
          .collector = collector};
}

[[nodiscard]] inline SubscribeRequest subscribe_key_change(
    std::span<const std::byte> key) {
  return {.kind = StandingKind::kKeyChange, .key = {key.begin(), key.end()}};
}
[[nodiscard]] inline SubscribeRequest subscribe_counter_threshold(
    std::span<const std::byte> key, std::uint64_t threshold) {
  return {.kind = StandingKind::kCounterThreshold, .threshold = threshold,
          .key = {key.begin(), key.end()}};
}
[[nodiscard]] inline SubscribeRequest subscribe_topk_delta(
    std::uint32_t collector, std::uint16_t k) {
  return {.kind = StandingKind::kTopKDelta, .collector = collector, .k = k};
}
[[nodiscard]] inline SubscribeRequest unsubscribe(
    std::uint64_t subscription_id) {
  return {.op = SubscribeOp::kUnsubscribe, .subscription_id = subscription_id};
}

}  // namespace build

}  // namespace dart::core
