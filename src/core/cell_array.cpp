#include "core/cell_array.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>
#include <utility>

namespace dart::core {

CellArray::CellArray(CellGeometry geometry)
    : geometry_(std::move(geometry)),
      backing_(static_cast<std::size_t>(geometry_.memory_bytes())) {
  // A zero-row or zero-column array is a config error: clamping it to one
  // cell would alias every key onto one counter.
  assert(geometry_.rows() > 0 && geometry_.cols > 0);
}

std::uint64_t CellArray::fetch_add(std::span<const std::byte> key,
                                   std::uint64_t delta) {
  std::uint64_t prior = UINT64_MAX;
  for (std::uint32_t r = 0; r < geometry_.rows(); ++r) {
    prior = std::min(prior, cell(cell_of(key, r))
                                .fetch_add(delta, std::memory_order_relaxed));
  }
  return prior;
}

std::uint64_t CellArray::estimate(
    std::span<const std::byte> key) const noexcept {
  std::uint64_t best = UINT64_MAX;
  for (std::uint32_t r = 0; r < geometry_.rows(); ++r) {
    best = std::min(best, read_cell(cell_of(key, r)));
  }
  return best;
}

std::uint64_t CellArray::read_cell(std::uint64_t index) const noexcept {
  assert(index < geometry_.n_cells());
  return cell(index).load(std::memory_order_relaxed);
}

void CellArray::merge(const CellArray& other) {
  if (geometry_.rows() != other.geometry_.rows() ||
      geometry_.cols != other.geometry_.cols) {
    throw std::invalid_argument(
        "CellArray::merge: geometry mismatch (" +
        std::to_string(geometry_.rows()) + "x" +
        std::to_string(geometry_.cols) + " vs " +
        std::to_string(other.geometry_.rows()) + "x" +
        std::to_string(other.geometry_.cols) + ")");
  }
  for (std::uint64_t i = 0; i < geometry_.n_cells(); ++i) {
    cell(i).fetch_add(other.read_cell(i), std::memory_order_relaxed);
  }
}

}  // namespace dart::core
