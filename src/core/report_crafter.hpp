// ReportCrafter — turns (key, value, slot copy n) into a complete RoCEv2
// report frame, byte-identical to what the DART switch pipeline emits.
//
// This is the host-side reference for the P4 deparser logic of §6: compute
// the slot address with the global hash family, build UDP/4791 + BTH(WRITE
// ONLY) + RETH + [checksum ‖ value] + iCRC. switchsim::DartSwitch reproduces
// the same computation with P4-style externs; tests assert the two paths
// produce frames the RNIC resolves to identical memory effects.
//
// Also crafts the §7 extension operations: FETCH_ADD (collector-side flow
// counters / sketch aggregation) and COMPARE_SWAP (insert-if-empty).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/hash.hpp"
#include "core/collector.hpp"
#include "core/config.hpp"
#include "core/primitives.hpp"
#include "net/headers.hpp"
#include "rdma/roce.hpp"

namespace dart::core {

// Identity of the report sender (a switch or an end-host agent).
struct ReporterEndpoint {
  net::MacAddr mac{};
  net::Ipv4Addr ip{};
  std::uint16_t udp_src_port = 0xC000;  // RoCEv2 source ports use the dynamic range
};

// Precomputed frame skeleton for one (reporter endpoint, collector) pair.
//
// Everything up to the BTH PSN word — Ethernet, IPv4 (including its header
// checksum), UDP, and BTH bytes 0..7 — is invariant for a fixed pair, as is
// the frame length for a fixed DartConfig. A template stores the full
// reference frame once plus the streaming-CRC state over the masked
// invariant prefix, so ReportCrafter::craft_*_into can emit a report by
// memcpy + patching the variant fields (PSN, vaddr(s), operands, payload)
// and resuming the cached CRC over the ~50 variant bytes: zero allocations
// and no header reserialization per report. This mirrors what the real
// datapaths do — a Tofino deparser emits a fixed header template and a
// ConnectX engine computes iCRC in flight; neither rebuilds headers per
// packet.
//
// Built by ReportCrafter::make_*_template; frames produced through a
// template are byte-identical to the corresponding craft_* output (tests
// assert this, iCRC included).
class FrameTemplate {
 public:
  enum class Kind : std::uint8_t {
    kInvalid,
    kWrite,
    kFetchAdd,
    kCompareSwap,
    kMultiwrite,
    kAppend,    // DTA Append: WRITE of [seq | value] into the ring region
    kPostcard,  // DTA Postcarding: WRITE of [checksum | value] into a group
  };

  FrameTemplate() = default;

  [[nodiscard]] bool valid() const noexcept { return kind_ != Kind::kInvalid; }
  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  // Exact size of every frame crafted from this template; `out` buffers
  // passed to craft_*_into must hold at least this many bytes.
  [[nodiscard]] std::size_t frame_size() const noexcept {
    return prototype_.size();
  }
  // Destination the template was built for.
  [[nodiscard]] const RemoteStoreInfo& dst() const noexcept { return dst_; }

 private:
  friend class ReportCrafter;

  Kind kind_ = Kind::kInvalid;
  std::vector<std::byte> prototype_;  // reference frame, variant fields zeroed
  Crc32 crc_prefix_;  // CRC state over the masked invariant prefix
  RemoteStoreInfo dst_{};
};

class ReportCrafter {
 public:
  explicit ReportCrafter(const DartConfig& config)
      : config_(config), hashes_(config.n_addresses, config.master_seed) {}

  [[nodiscard]] const DartConfig& config() const noexcept { return config_; }
  [[nodiscard]] const HashFamily& hashes() const noexcept { return hashes_; }

  // Collector that owns `key`, among `n_collectors` (§3.2 step 1).
  [[nodiscard]] std::uint32_t collector_of(std::span<const std::byte> key,
                                           std::uint32_t n_collectors) const noexcept {
    return hashes_.collector_of(key, n_collectors);
  }

  // Remote vaddr of copy `n` of `key` at collector `dst`.
  [[nodiscard]] std::uint64_t slot_vaddr(const RemoteStoreInfo& dst,
                                         std::span<const std::byte> key,
                                         std::uint32_t n) const noexcept {
    return dst.slot_vaddr(hashes_.address_of(key, n, dst.n_slots));
  }

  // Crafts one RDMA WRITE report for copy `n` of (key, value). `psn` is the
  // sender's per-collector sequence number (the register array of §6).
  [[nodiscard]] std::vector<std::byte> craft_write(
      const RemoteStoreInfo& dst, const ReporterEndpoint& src,
      std::span<const std::byte> key, std::span<const std::byte> value,
      std::uint32_t n, std::uint32_t psn) const;

  // Crafts a FETCH_ADD on the 64-bit word at remote `vaddr`.
  [[nodiscard]] std::vector<std::byte> craft_fetch_add(
      const RemoteStoreInfo& dst, const ReporterEndpoint& src,
      std::uint64_t vaddr, std::uint64_t addend, std::uint32_t psn) const;

  // Crafts a COMPARE_SWAP on the 64-bit word at remote `vaddr`.
  [[nodiscard]] std::vector<std::byte> craft_compare_swap(
      const RemoteStoreInfo& dst, const ReporterEndpoint& src,
      std::uint64_t vaddr, std::uint64_t compare, std::uint64_t swap,
      std::uint32_t psn) const;

  // §7 SmartNIC extension: ONE frame that fills all N slots of (key, value).
  // Requires the collector RNIC to have DTA multiwrite enabled.
  [[nodiscard]] std::vector<std::byte> craft_multiwrite(
      const RemoteStoreInfo& dst, const ReporterEndpoint& src,
      std::span<const std::byte> key, std::span<const std::byte> value,
      std::uint32_t psn) const;

  // --- DTA translator primitives (primitives.hpp) --------------------------
  //
  // Crafting modes for the Append / Key-Increment / Postcarding regions.
  // `dst` is the matching region row from the collector
  // (remote_ring_info() / remote_counter_info() / remote_postcard_info()).

  // Building block: RDMA WRITE of an arbitrary payload at `vaddr` in `dst`.
  [[nodiscard]] std::vector<std::byte> craft_raw_write(
      const RemoteStoreInfo& dst, const ReporterEndpoint& src,
      std::uint64_t vaddr, std::span<const std::byte> payload,
      std::uint32_t psn) const;

  // Append: entry `seq` (the switch's tail value, 1-based) into the ring.
  [[nodiscard]] std::vector<std::byte> craft_append(
      const RemoteStoreInfo& dst, const ReporterEndpoint& src,
      const AppendRingConfig& ring, std::uint64_t seq,
      std::span<const std::byte> value, std::uint32_t psn) const;

  // Key-Increment and sketch reports: FETCH_ADD of `delta` on row `row`'s
  // cell of `key` (CellGeometry::cell_of). `dst` is the row of the region
  // `cells` describes — the counter region, or a sketch-backed collector's
  // MR (slot_bytes == 8, one slot per cell). One report into an r-row
  // array is r such frames, one per row.
  [[nodiscard]] std::vector<std::byte> craft_cell_increment(
      const RemoteStoreInfo& dst, const ReporterEndpoint& src,
      const CellGeometry& cells, std::span<const std::byte> key,
      std::uint32_t row, std::uint64_t delta, std::uint32_t psn) const;

  // Postcarding: hop `hop` of `flow_key`'s slot group.
  [[nodiscard]] std::vector<std::byte> craft_postcard(
      const RemoteStoreInfo& dst, const ReporterEndpoint& src,
      const PostcardConfig& postcards, std::span<const std::byte> flow_key,
      std::uint32_t hop, std::span<const std::byte> value,
      std::uint32_t psn) const;

  // --- Zero-allocation fast path -----------------------------------------
  //
  // make_*_template precomputes the frame skeleton for a (src, dst) pair;
  // the craft_*_into counterparts patch variant fields into a caller-owned
  // buffer and return the frame length, or 0 if the template kind does not
  // match or `out` is smaller than tpl.frame_size(). Output is byte-
  // identical to the matching craft_* call.

  [[nodiscard]] FrameTemplate make_write_template(
      const RemoteStoreInfo& dst, const ReporterEndpoint& src) const;
  // `op` must be kRcFetchAdd or kRcCompareSwap; anything else yields an
  // invalid template.
  [[nodiscard]] FrameTemplate make_atomic_template(
      const RemoteStoreInfo& dst, const ReporterEndpoint& src,
      rdma::Opcode op) const;
  [[nodiscard]] FrameTemplate make_multiwrite_template(
      const RemoteStoreInfo& dst, const ReporterEndpoint& src) const;
  [[nodiscard]] FrameTemplate make_append_template(
      const RemoteStoreInfo& dst, const ReporterEndpoint& src,
      const AppendRingConfig& ring) const;
  // Cell-increment frames come from make_atomic_template(kRcFetchAdd) with
  // `dst` = the cell region's row; see craft_cell_increment_into.
  [[nodiscard]] FrameTemplate make_postcard_template(
      const RemoteStoreInfo& dst, const ReporterEndpoint& src,
      const PostcardConfig& postcards) const;

  std::size_t craft_write_into(const FrameTemplate& tpl,
                               std::span<const std::byte> key,
                               std::span<const std::byte> value,
                               std::uint32_t n, std::uint32_t psn,
                               std::span<std::byte> out) const;

  // Same patching as craft_write_into with the slot address (store index,
  // not vaddr) already computed by the caller — the ingest feeder hashes
  // each key once for shard routing and reuses that address here instead of
  // hashing again inside the crafter.
  std::size_t craft_write_into_at(const FrameTemplate& tpl,
                                  std::span<const std::byte> key,
                                  std::span<const std::byte> value,
                                  std::uint64_t slot_addr, std::uint32_t psn,
                                  std::span<std::byte> out) const;

  // One WRITE report of a burst (see craft_write_into_n).
  struct WriteOp {
    std::span<const std::byte> key;
    std::span<const std::byte> value;
    std::uint32_t n = 0;    // slot copy index
    std::uint32_t psn = 0;
  };

  // Burst crafting: emits ops.size() frames back-to-back into `out`
  // (tpl.frame_size() bytes each), batch-hashing the slot addresses of each
  // chunk through HashFamily::address_of_batch so 8-byte keys ride the AVX2
  // XXH64 kernel 4 lanes at a time. Every frame is byte-identical to the
  // corresponding craft_write_into call. Returns the number of frames
  // crafted: ops.size(), or 0 if the template kind does not match or `out`
  // is smaller than ops.size() * tpl.frame_size().
  std::size_t craft_write_into_n(const FrameTemplate& tpl,
                                 std::span<const WriteOp> ops,
                                 std::span<std::byte> out) const;
  std::size_t craft_fetch_add_into(const FrameTemplate& tpl,
                                   std::uint64_t vaddr, std::uint64_t addend,
                                   std::uint32_t psn,
                                   std::span<std::byte> out) const;
  std::size_t craft_compare_swap_into(const FrameTemplate& tpl,
                                      std::uint64_t vaddr,
                                      std::uint64_t compare,
                                      std::uint64_t swap, std::uint32_t psn,
                                      std::span<std::byte> out) const;
  std::size_t craft_multiwrite_into(const FrameTemplate& tpl,
                                    std::span<const std::byte> key,
                                    std::span<const std::byte> value,
                                    std::uint32_t psn,
                                    std::span<std::byte> out) const;
  std::size_t craft_append_into(const FrameTemplate& tpl,
                                const AppendRingConfig& ring,
                                std::uint64_t seq,
                                std::span<const std::byte> value,
                                std::uint32_t psn,
                                std::span<std::byte> out) const;
  // `tpl` must be a kFetchAdd template built for the cell region's row.
  std::size_t craft_cell_increment_into(const FrameTemplate& tpl,
                                        const CellGeometry& cells,
                                        std::span<const std::byte> key,
                                        std::uint32_t row, std::uint64_t delta,
                                        std::uint32_t psn,
                                        std::span<std::byte> out) const;
  std::size_t craft_postcard_into(const FrameTemplate& tpl,
                                  const PostcardConfig& postcards,
                                  std::span<const std::byte> flow_key,
                                  std::uint32_t hop,
                                  std::span<const std::byte> value,
                                  std::uint32_t psn,
                                  std::span<std::byte> out) const;

 private:
  [[nodiscard]] std::vector<std::byte> wrap_frame(
      const RemoteStoreInfo& dst, const ReporterEndpoint& src,
      std::span<const std::byte> roce_payload) const;

  // The shared patch step of the WRITE fast paths: memcpy the prototype,
  // patch PSN / vaddr / payload, resume the cached prefix CRC. `vaddr` is
  // the remote virtual address (already through RemoteStoreInfo::slot_vaddr).
  std::size_t patch_write_frame(const FrameTemplate& tpl,
                                std::span<const std::byte> key,
                                std::span<const std::byte> value,
                                std::uint64_t vaddr, std::uint32_t psn,
                                std::span<std::byte> out) const;

  DartConfig config_;
  HashFamily hashes_;
};

}  // namespace dart::core
