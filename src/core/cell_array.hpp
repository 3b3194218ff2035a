// CellArray — the one counting core behind every FETCH_ADD structure.
//
// DART §7 and DTA's Key-Increment share one idea: switches FETCH_ADD into
// 64-bit cells in collector memory, so the collector array IS the
// network-wide aggregate with zero collector CPU. CellArray is that array:
// rows × cols host-endian u64 cells (the RNIC atomic unit), row-major, where
// row r of a key is cell
//
//     r * cols + xxhash64(key, row_seeds[r]) % cols
//
// and a key's value is the minimum over its rows (count-min; exact for a
// single row). The row-seed list is the only thing its users differ in, and
// each config builds its own:
//
//   CounterArrayConfig   Key-Increment counters — one row hashed with the
//                        raw seed (primitives.hpp)
//   SketchBackendConfig  count-min sketch — row r hashed with the r-th
//                        SplitMix64 output of the seed (store_backend.hpp)
//
// The switch keeps the CellGeometry to craft one FETCH_ADD per row
// (ReportCrafter::craft_cell_increment); the collector keeps a CellArray
// over the MR those frames land in. fetch_add is the local reference of
// that per-row frame stream.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "common/hash.hpp"
#include "core/store.hpp"

namespace dart::core {

// Shape and addressing of a cell array, shared verbatim by the switch
// (remote vaddr = dst.slot_vaddr(cell_of(key, r))) and the collector.
struct CellGeometry {
  std::uint64_t cols = 0;
  std::vector<std::uint64_t> row_seeds;  // one hash seed per row

  [[nodiscard]] std::uint32_t rows() const noexcept {
    return static_cast<std::uint32_t>(row_seeds.size());
  }
  [[nodiscard]] std::uint64_t n_cells() const noexcept {
    return rows() * cols;
  }
  [[nodiscard]] std::uint64_t memory_bytes() const noexcept {
    return n_cells() * 8;
  }
  // Flat index of row `row`'s cell for `key` — the count-min cell formula.
  [[nodiscard]] std::uint64_t cell_of(std::span<const std::byte> key,
                                      std::uint32_t row) const noexcept {
    return static_cast<std::uint64_t>(row) * cols +
           xxhash64(key, row_seeds[row]) % cols;
  }
};

class CellArray {
 public:
  // Allocates zeroed cells; a collector registers them as an MR.
  explicit CellArray(CellGeometry geometry);
  // A copy's view would still point at the source's cells; moves keep the
  // owned buffer (and so the view) intact.
  CellArray(const CellArray&) = delete;
  CellArray& operator=(const CellArray&) = delete;
  CellArray(CellArray&&) noexcept = default;
  CellArray& operator=(CellArray&&) noexcept = default;

  [[nodiscard]] const CellGeometry& geometry() const noexcept {
    return geometry_;
  }
  [[nodiscard]] std::uint64_t cell_of(std::span<const std::byte> key,
                                      std::uint32_t row) const noexcept {
    return geometry_.cell_of(key, row);
  }
  [[nodiscard]] std::span<std::byte> memory() noexcept {
    return backing_.memory();
  }
  [[nodiscard]] std::span<const std::byte> memory() const noexcept {
    return backing_.memory();
  }

  // Local FETCH_ADD of `delta` on `key`'s cell in every row. Each add is one
  // atomic RMW, like the RNIC's (which serializes atomics against target
  // memory), so concurrent feeders cannot lose updates. Returns the prior
  // estimate — the minimum over rows of the values before the add; for a
  // one-row array that is exactly the RDMA FETCH_ADD return value.
  std::uint64_t fetch_add(std::span<const std::byte> key, std::uint64_t delta);

  // Minimum over `key`'s row cells: never below the true total.
  [[nodiscard]] std::uint64_t estimate(
      std::span<const std::byte> key) const noexcept;
  [[nodiscard]] std::uint64_t read_cell(std::uint64_t index) const noexcept;

  // Adds `other` cell by cell — what FETCH_ADD achieves implicitly when many
  // switches write into one collector-side array. Throws
  // std::invalid_argument on a rows/cols mismatch (in every build mode: a
  // mismatched walk is out of bounds). Seeds are not compared; estimate
  // consistency is the caller's.
  void merge(const CellArray& other);

  void clear() noexcept { backing_.clear(); }

 private:
  // Cells sit at multiples of 8 in an allocation-aligned region, so
  // atomic_ref's alignment requirement holds while the region stays a plain
  // MR-registrable byte span.
  [[nodiscard]] std::atomic_ref<std::uint64_t> cell(
      std::uint64_t index) const noexcept {
    return std::atomic_ref<std::uint64_t>(*reinterpret_cast<std::uint64_t*>(
        const_cast<std::byte*>(backing_.memory().data()) + index * 8));
  }

  CellGeometry geometry_;
  RegionBacking backing_;
};

}  // namespace dart::core
