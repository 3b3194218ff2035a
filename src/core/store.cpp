#include "core/store.hpp"

#include <sys/mman.h>

#include <cassert>
#include <cstdint>
#include <cstring>
#include <new>

namespace dart::core {

namespace {

constexpr std::size_t kPageBytes = 4096;  // the smallest page the kernel maps

[[nodiscard]] constexpr std::size_t round_up(std::size_t n,
                                             std::size_t align) noexcept {
  return (n + align - 1) / align * align;
}

// Maps `reserved` zeroed bytes (whole huge pages) at a huge-page boundary:
// over-maps by one huge page, trims the misaligned ends, then advises.
std::byte* map_huge_aligned(std::size_t reserved) {
  constexpr std::size_t kHuge = RegionBacking::kHugePageBytes;
  void* raw = ::mmap(nullptr, reserved + kHuge, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (raw == MAP_FAILED) throw std::bad_alloc();
  const auto base = reinterpret_cast<std::uintptr_t>(raw);
  const std::size_t head = round_up(base, kHuge) - base;
  auto* p = static_cast<std::byte*>(raw) + head;
  if (head != 0) ::munmap(raw, head);
  if (head != kHuge) ::munmap(p + reserved, kHuge - head);
  (void)::madvise(p, reserved, MADV_HUGEPAGE);  // a no-op under THP `never`
  return p;
}

}  // namespace

RegionBacking::RegionBacking(std::size_t bytes) {
  if (bytes < kHugePageBytes) {
    // Value-initialised: the zero fill is the pre-fault.
    owned_ = {new std::byte[bytes](), Release{bytes}};
  } else {
    const std::size_t reserved = round_up(bytes, kHugePageBytes);
    owned_ = {map_huge_aligned(reserved), Release{reserved}};
    // Anonymous pages are already zero; a write per page faults them in.
    for (std::size_t off = 0; off < bytes; off += kPageBytes) {
      owned_.get()[off] = std::byte{0};
    }
  }
  memory_ = {owned_.get(), bytes};
}

void RegionBacking::Release::operator()(std::byte* p) const noexcept {
  if (reserved >= kHugePageBytes) {
    ::munmap(p, reserved);
  } else {
    delete[] p;
  }
}

DartStore::DartStore(const DartConfig& config)
    : config_(config),
      hashes_(config.n_addresses, config.master_seed),
      backing_(static_cast<std::size_t>(config.memory_bytes())) {
  assert(config_.valid());
}

DartStore::DartStore(const DartConfig& config, std::span<std::byte> memory)
    : config_(config),
      hashes_(config.n_addresses, config.master_seed),
      backing_(memory) {
  assert(config_.valid());
  assert(memory.size() == config.memory_bytes());
}

void DartStore::encode_slot_payload(std::span<const std::byte> key,
                                    std::span<const std::byte> value,
                                    std::vector<std::byte>& out) const {
  assert(value.size() == config_.value_bytes);
  const std::uint32_t csum = key_checksum(key);
  for (std::uint32_t i = 0; i < config_.checksum_bytes(); ++i) {
    out.push_back(static_cast<std::byte>((csum >> (8 * i)) & 0xFF));
  }
  out.insert(out.end(), value.begin(), value.end());
}

void DartStore::write(std::span<const std::byte> key,
                      std::span<const std::byte> value) {
  const std::uint32_t csum = key_checksum(key);
  for (std::uint32_t n = 0; n < config_.n_addresses; ++n) {
    write_raw(slot_index(key, n), csum, value);
  }
}

void DartStore::write_one(std::span<const std::byte> key,
                          std::span<const std::byte> value, std::uint32_t n) {
  write_raw(slot_index(key, n), key_checksum(key), value);
}

void DartStore::write_raw(std::uint64_t index, std::uint32_t checksum,
                          std::span<const std::byte> value) {
  assert(value.size() == config_.value_bytes);
  std::byte* slot = backing_.memory().data() + slot_offset(index);
  for (std::uint32_t i = 0; i < config_.checksum_bytes(); ++i) {
    slot[i] = static_cast<std::byte>((checksum >> (8 * i)) & 0xFF);
  }
  std::memcpy(slot + config_.checksum_bytes(), value.data(), value.size());
  writes_.fetch_add(1, std::memory_order_relaxed);
}

std::vector<SlotView> DartStore::read_slots(
    std::span<const std::byte> key) const {
  std::vector<SlotView> out;
  out.reserve(config_.n_addresses);
  for (std::uint32_t n = 0; n < config_.n_addresses; ++n) {
    out.push_back(read_slot(slot_index(key, n)));
  }
  return out;
}

SlotView DartStore::read_slot(std::uint64_t index) const {
  assert(index < config_.n_slots);
  const std::byte* slot = backing_.memory().data() + slot_offset(index);
  SlotView v;
  v.checksum = 0;
  for (std::uint32_t i = 0; i < config_.checksum_bytes(); ++i) {
    v.checksum |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(slot[i]))
                  << (8 * i);
  }
  v.checksum &= checksum_mask(config_.checksum_bits);
  v.value = std::span<const std::byte>(slot + config_.checksum_bytes(),
                                       config_.value_bytes);
  return v;
}

void DartStore::clear() {
  backing_.clear();
  writes_.store(0, std::memory_order_relaxed);
}

}  // namespace dart::core
