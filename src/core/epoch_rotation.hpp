// Live epoch rotation — the §5.2.1 mechanism end to end.
//
// The epoch archive (core/epoch.hpp) answers historical queries, but sealing
// must not pause reporters. RotatingCollector therefore double-buffers at the
// RDMA layer: TWO memory regions (each its own DartStore, vaddr range and
// rkey) are registered on one RNIC. Switches write to whichever region the
// directory currently advertises; an epoch flip is
//
//   1. controller publishes the standby region's directory row (new rkey),
//   2. switches drain onto the new region — reports in flight to the OLD
//      rkey still land, because the old MR stays registered (grace period),
//   3. the old region is sealed to the archive file and cleared, becoming
//      the next standby.
//
// No reporter ever blocks; the only data at risk is what §4 already prices
// in (a report racing the seal lands in the next epoch's file instead).
//
// Threading: the ingest pipeline's feeder threads refresh their directory
// rows (active_info) while the controller thread flips epochs. A flip
// publishes {active region, epoch} under a seqlock (SeqCount): readers retry
// if a flip was in flight, so no thread ever observes a torn rotation — e.g.
// the new region paired with the old epoch number. All per-region fields
// (rkey, base_vaddr, memory) are immutable after construction, which is what
// makes the seqlock's racy read section safe; only the two atomics flip.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "common/result.hpp"
#include "common/seqlock.hpp"
#include "core/collector.hpp"
#include "core/epoch.hpp"
#include "core/query.hpp"
#include "core/store.hpp"
#include "rdma/rnic.hpp"

namespace dart::core {

class RotatingCollector {
 public:
  // Two equally-sized stores; region 0 starts active.
  RotatingCollector(const DartConfig& config, std::uint32_t collector_id,
                    const CollectorEndpoint& endpoint);

  RotatingCollector(const RotatingCollector&) = delete;
  RotatingCollector& operator=(const RotatingCollector&) = delete;

  [[nodiscard]] rdma::SimulatedRnic& rnic() noexcept { return rnic_; }

  // Directory row for the ACTIVE region — what the controller distributes.
  // Safe to call from any thread concurrently with flip() (seqlock retry).
  [[nodiscard]] RemoteStoreInfo active_info() const noexcept;
  // Row for the standby region (what the next flip will publish).
  [[nodiscard]] RemoteStoreInfo standby_info() const noexcept;

  // Consistent {epoch, active region} snapshot — the pair a directory push
  // carries. Never torn across a concurrent flip().
  [[nodiscard]] std::pair<std::uint64_t, std::uint32_t> epoch_snapshot()
      const noexcept;

  [[nodiscard]] std::uint64_t current_epoch() const noexcept {
    return epoch_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::uint32_t active_region() const noexcept {
    return active_.load(std::memory_order_acquire);
  }
  // Rotation generation counter (even = stable, odd = flip in flight).
  [[nodiscard]] std::uint64_t rotation_generation() const noexcept {
    return seq_.generation();
  }

  // Live query against the active region.
  [[nodiscard]] QueryResult query(std::span<const std::byte> key,
                                  ReturnPolicy policy = ReturnPolicy::kPlurality) const;

  // Query against the standby region (reports still draining there during
  // the grace period after a flip).
  [[nodiscard]] QueryResult query_standby(std::span<const std::byte> key,
                                          ReturnPolicy policy = ReturnPolicy::kPlurality) const;

  // Epoch flip, step 1+2: activate the standby region. The previous region
  // keeps accepting in-flight writes until seal_previous(). Must be called
  // from one controller thread at a time (seqlock writers are exclusive);
  // readers on other threads are never blocked.
  void flip();

  // Epoch flip, step 3: seal the now-standby (previous) region to `path`
  // and clear it. Returns archived entry count.
  [[nodiscard]] Result<std::uint64_t> seal_previous(const std::string& path);

  [[nodiscard]] const DartConfig& config() const noexcept { return config_; }

  // Direct store access for quiescent inspection (the analogue of
  // Collector::store()). Only meaningful while no writer is executing —
  // differential tests read it after IngestPipeline::finish().
  [[nodiscard]] const DartStore& active_store() const noexcept {
    return *regions_[active_region()].store;
  }

 private:
  struct Region {
    std::unique_ptr<DartStore> store;  // self-owning; its memory is the MR
    std::uint32_t rkey = 0;
    std::uint64_t base_vaddr = 0;
  };

  [[nodiscard]] RemoteStoreInfo info_for(const Region& region) const noexcept;

  DartConfig config_;
  std::uint32_t collector_id_;
  CollectorEndpoint endpoint_;
  rdma::SimulatedRnic rnic_;
  Region regions_[2];
  // Guarded by seq_: the pair must be observed consistently. Individually
  // atomic so the seqlock's racy read section is data-race-free under TSan.
  SeqCount seq_;
  std::atomic<std::uint32_t> active_{0};
  std::atomic<std::uint64_t> epoch_{0};
};

}  // namespace dart::core
