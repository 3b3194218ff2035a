// DartStore — the collector-memory key-value structure (§3.1).
//
// The store is a flat array of M fixed-size slots:
//
//     slot = [ checksum : ceil(b/8) bytes | value : V bytes ]
//
// A key's N slots are at addresses h_0(key)..h_{N-1}(key); a write stamps
// the key's b-bit checksum and the value, unconditionally overwriting
// whatever was there (collisions are the probabilistic cost §4 analyzes).
//
// The same byte layout serves two producers:
//   - the in-process simulation path (write()/write_one()), used by the
//     Monte-Carlo benches, and
//   - the RDMA path: the store's memory is registered as an MR into which
//     the simulated RNIC DMAs switch-crafted report payloads (a store can
//     also be a view over external memory). slot_vaddr() gives switches the
//     remote address of a slot, and encode_slot_payload() is the exact wire
//     payload of a report.
//
// The store itself never trusts a checksum match as proof of identity —
// that interpretation (and its failure modes: empty returns and return
// errors) lives in QueryEngine.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/hash.hpp"
#include "core/config.hpp"

namespace dart::core {

// ---- slot-range sharding ---------------------------------------------------
//
// The sharded ingest pipeline partitions the M slots into n_shards contiguous
// ranges so each range has exactly one writer thread (no two workers ever
// touch the same slot bytes). The partition is the classic balanced integer
// split: slot i belongs to shard ⌊i·S/M⌋, so ranges differ in size by at most
// one slot. Free functions: switches and feeders need the mapping without a
// DartStore in hand.

[[nodiscard]] constexpr std::uint32_t shard_of_slot(
    std::uint64_t index, std::uint64_t n_slots,
    std::uint32_t n_shards) noexcept {
  return static_cast<std::uint32_t>(index * n_shards / n_slots);
}

// Half-open [first, last) slot range owned by `shard`; the inverse of
// shard_of_slot (every index in the range maps back to `shard`).
[[nodiscard]] constexpr std::pair<std::uint64_t, std::uint64_t>
shard_slot_range(std::uint32_t shard, std::uint64_t n_slots,
                 std::uint32_t n_shards) noexcept {
  const auto lo =
      (static_cast<std::uint64_t>(shard) * n_slots + n_shards - 1) / n_shards;
  const auto hi =
      (static_cast<std::uint64_t>(shard + 1) * n_slots + n_shards - 1) /
      n_shards;
  return {lo, hi};
}

// One decoded slot.
//
// `value` ALIASES store memory — it is a window into the [checksum ‖ value]
// slot bytes, not a copy. Two consequences:
//   - a later write to the same slot (local write path or an RNIC DMA)
//     changes the bytes the view points at;
//   - a view captured while writers are active can expose a *torn* pair:
//     a checksum from one report next to value bytes from another, since a
//     slot write is not atomic with respect to readers.
// See DartStore::read_slots for the read discipline that rules this out.
struct SlotView {
  std::uint32_t checksum = 0;
  std::span<const std::byte> value;
};

// ---- storage backing -------------------------------------------------------
//
// Every collector-side structure (the DartStore and the DTA primitive
// regions: append ring, counter-cell array, postcard slot groups) is a flat
// byte region with the same two provisioning modes:
//   - self-owning: the structure allocates zeroed memory, which a collector
//     registers as the MR the RNIC DMAs into;
//   - external: the structure is a *view* over caller-owned memory.
// RegionBacking is that seam: one place that owns the mode distinction so
// the structures above it only ever see a span.
//
// Self-owning mode is the one allocator of collector-side DMA memory (see
// docs/ARCHITECTURE.md). Like ibv_reg_mr pinning an MR, it faults every page
// in up front. A region of at least kHugePageBytes is mapped 2 MiB-aligned
// and advised MADV_HUGEPAGE before its first touch, so random slot writes
// miss the TLB once per 2 MiB rather than per 4 KiB; a smaller one stays an
// exact-size heap allocation, as rounding it up would inflate its RSS.
class RegionBacking {
 public:
  static constexpr std::size_t kHugePageBytes = std::size_t{2} << 20;

  // Self-owning: allocates `bytes` zeroed, pre-faulted bytes.
  explicit RegionBacking(std::size_t bytes);

  // External view: `memory` must outlive the backing.
  explicit RegionBacking(std::span<std::byte> memory) : memory_(memory) {}

  [[nodiscard]] std::span<std::byte> memory() noexcept { return memory_; }
  [[nodiscard]] std::span<const std::byte> memory() const noexcept {
    return memory_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return memory_.size(); }
  [[nodiscard]] bool owning() const noexcept { return owned_ != nullptr; }
  // Bytes held by a self-owning backing: size() below kHugePageBytes, else
  // size() rounded up to whole huge pages. 0 for an external view.
  [[nodiscard]] std::size_t reserved() const noexcept {
    return owned_.get_deleter().reserved;
  }

  void clear() noexcept {
    if (!memory_.empty()) std::memset(memory_.data(), 0, memory_.size());
  }

 private:
  // munmap if reserved >= kHugePageBytes, else delete[]. No initialiser:
  // unique_ptr value-initialises its deleter, zeroing `reserved`.
  struct Release {
    std::size_t reserved;
    void operator()(std::byte* p) const noexcept;
  };

  std::unique_ptr<std::byte, Release> owned_;  // null for an external view
  std::span<std::byte> memory_;
};

class DartStore {
 public:
  // Self-owning store (simulation use): allocates M * slot_bytes zeroed.
  explicit DartStore(const DartConfig& config);

  // External-memory store (RDMA use): `memory` must be exactly
  // config.memory_bytes() long and outlive the store.
  DartStore(const DartConfig& config, std::span<std::byte> memory);

  [[nodiscard]] const DartConfig& config() const noexcept { return config_; }
  [[nodiscard]] const HashFamily& hashes() const noexcept { return hashes_; }

  // ---- address & payload computation (shared with switches) -------------

  // Slot index for copy n of `key`.
  [[nodiscard]] std::uint64_t slot_index(std::span<const std::byte> key,
                                         std::uint32_t n) const noexcept {
    return hashes_.address_of(key, n, config_.n_slots);
  }

  // All N slot indices of `key` in one batched hash pass:
  // out[n] == slot_index(key, n). Requires out.size() >= n_addresses.
  void slot_indices(std::span<const std::byte> key,
                    std::span<std::uint64_t> out) const noexcept {
    hashes_.addresses_of(key, config_.n_slots, out);
  }

  // Byte offset of a slot within the memory block.
  [[nodiscard]] std::uint64_t slot_offset(std::uint64_t index) const noexcept {
    return index * config_.slot_bytes();
  }

  // Shard owning a slot under an n_shards-way range partition (see the free
  // functions above).
  [[nodiscard]] std::uint32_t shard_of(std::uint64_t index,
                                       std::uint32_t n_shards) const noexcept {
    return shard_of_slot(index, config_.n_slots, n_shards);
  }

  // b-bit key checksum as stored in slots.
  [[nodiscard]] std::uint32_t key_checksum(
      std::span<const std::byte> key) const noexcept {
    return hashes_.checksum_of(key, config_.checksum_bits);
  }

  // The exact bytes a report carries for this key+value: checksum ‖ value,
  // checksum little-endian in ceil(b/8) bytes. Appends to `out`.
  void encode_slot_payload(std::span<const std::byte> key,
                           std::span<const std::byte> value,
                           std::vector<std::byte>& out) const;

  // ---- local write path (simulation) -------------------------------------

  // Writes all N copies (WriteMode::kAllSlots semantics).
  void write(std::span<const std::byte> key, std::span<const std::byte> value);

  // Writes only copy `n` (WriteMode::kStochastic semantics: the caller picks
  // n, typically uniformly at random, as the switch RNG does).
  void write_one(std::span<const std::byte> key,
                 std::span<const std::byte> value, std::uint32_t n);

  // ---- read path ----------------------------------------------------------

  // Decodes the N candidate slots for a key, in copy order.
  //
  // The returned views alias store memory; they are invalidated by writes
  // (see SlotView). Query-path read discipline — how the system guarantees
  // no torn [checksum ‖ value] pair is ever *consumed*:
  //
  //   1. Quiesced region. Reads target memory no writer (RNIC or local
  //      apply path) is mutating. This is the epoch scheme's invariant:
  //      RotatingCollector flips switches to the standby region, waits out
  //      a grace window sized to the maximum report time-of-flight, then
  //      seals the old region; query_standby() and sealed-epoch reads only
  //      ever decode quiesced bytes. Torn pairs cannot be observed at all.
  //
  //   2. Live reads under churn. Queries against the *active* region (the
  //      non-rotating deployments) may race reports. A torn pair then looks
  //      like a slot whose checksum does not match the queried key — the
  //      same signature as a hash-colliding foreign key — and the b-bit
  //      checksum filter of QueryEngine::resolve discards it, at the cost
  //      of one lost vote (bounded by the redundancy N). What the filter
  //      can NOT catch is a torn pair whose checksum half matches the
  //      queried key but whose value half is foreign; callers who cannot
  //      tolerate that 2^-b event must use discipline 1.
  //
  //   Rotation metadata itself (which region is active, epoch ids) is
  //   published through epoch_rotation.hpp's SeqCount seqlock; readers
  //   retry around flips instead of locking the data plane.
  //
  // dartcheck's prop_backend suite drives discipline 1 with a live writer
  // thread and asserts no torn pair is ever returned.
  [[nodiscard]] std::vector<SlotView> read_slots(
      std::span<const std::byte> key) const;

  // Decodes one slot by index.
  [[nodiscard]] SlotView read_slot(std::uint64_t index) const;

  // ---- raw memory ---------------------------------------------------------

  [[nodiscard]] std::span<std::byte> memory() noexcept {
    return backing_.memory();
  }
  [[nodiscard]] std::span<const std::byte> memory() const noexcept {
    return backing_.memory();
  }

  [[nodiscard]] std::uint64_t writes_performed() const noexcept {
    return writes_.load(std::memory_order_relaxed);
  }

  void clear();

 private:
  void write_raw(std::uint64_t index, std::uint32_t checksum,
                 std::span<const std::byte> value);

  DartConfig config_;
  HashFamily hashes_;
  RegionBacking backing_;
  // Relaxed: local writers may be sharded across threads (disjoint slot
  // ranges); the write tally must not impose ordering between them.
  std::atomic<std::uint64_t> writes_{0};
};

}  // namespace dart::core
