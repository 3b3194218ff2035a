// SeqCount — a seqlock-style generation counter.
//
// The epoch-rotation control plane mutates a small composite state (active
// region index, epoch number, directory row) while ingest feeders and query
// clients read it lock-free. A seqlock gives readers a consistency proof
// instead of mutual exclusion: the writer makes the counter odd for the
// duration of the update, and a reader retries whenever the counter was odd
// or changed across its read — so no reader can ever act on a torn rotation
// (e.g. the new epoch number paired with the old region's rkey).
//
// Writers are assumed serialized externally (one control plane); readers are
// unlimited and never block the writer. Fields protected by a SeqCount must
// themselves be std::atomic (relaxed is enough) or immutable: the seqlock
// proves *composite* consistency, the per-field atomicity keeps the racing
// reads defined.
#pragma once

#include <atomic>
#include <cstdint>

namespace dart {

class SeqCount {
 public:
  // Writer side: generation becomes odd while the update is in flight.
  void write_begin() noexcept {
    gen_.fetch_add(1, std::memory_order_acq_rel);
  }
  void write_end() noexcept {
    gen_.fetch_add(1, std::memory_order_acq_rel);
  }

  // Reader side: spins past in-flight updates, returns an even generation.
  [[nodiscard]] std::uint64_t read_begin() const noexcept {
    for (;;) {
      const std::uint64_t g = gen_.load(std::memory_order_acquire);
      if ((g & 1u) == 0) return g;
    }
  }

  // True if the generation moved since read_begin — the reader must retry.
  // Boehm's read-don't-modify-write (MSPC 2012): the release RMW keeps the
  // section's loads before it; unlike a fence, ThreadSanitizer models it.
  [[nodiscard]] bool read_retry(std::uint64_t begin_gen) const noexcept {
    return gen_.fetch_add(0, std::memory_order_release) != begin_gen;
  }

  [[nodiscard]] std::uint64_t generation() const noexcept {
    return gen_.load(std::memory_order_acquire);
  }

 private:
  mutable std::atomic<std::uint64_t> gen_{0};  // read_retry's RMW writes it
};

// Convenience: retry `read` (which must be side-effect free) until it ran
// against a stable generation, then return its result.
template <typename Fn>
auto seq_read(const SeqCount& seq, Fn&& read) {
  for (;;) {
    const std::uint64_t g = seq.read_begin();
    auto result = read();
    if (!seq.read_retry(g)) return result;
  }
}

}  // namespace dart
