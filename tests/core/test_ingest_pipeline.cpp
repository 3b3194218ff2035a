// Tests for the sharded multi-threaded ingest pipeline: correctness of the
// feeder→ring→shard-worker data path, loss accounting, epoch rotation under
// concurrency, and the seqlock that guards the flip. These tests are TSan
// targets (tools/check_sanitize.sh tsan): every cross-thread interaction in
// the pipeline is exercised here.
#include "core/ingest_pipeline.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <thread>

#include "core/store.hpp"
#include "net/netsim.hpp"

namespace dart::core {
namespace {

IngestPipelineConfig small_config() {
  IngestPipelineConfig cfg;
  cfg.dart.n_slots = 1 << 16;
  cfg.dart.value_bytes = 20;
  cfg.n_feeders = 2;
  cfg.n_shards = 2;
  cfg.reports_per_feeder = 500;
  cfg.ring_capacity = 256;
  cfg.seed = 77;
  return cfg;
}

TEST(ShardRouting, PartitionIsExactAndContiguous) {
  // Every slot belongs to exactly one shard, ranges are contiguous and
  // non-overlapping, and shard_slot_range inverts shard_of_slot.
  constexpr std::uint64_t kSlots = 1000;
  for (const std::uint32_t shards : {1u, 2u, 3u, 7u, 16u}) {
    std::uint64_t covered = 0;
    for (std::uint32_t s = 0; s < shards; ++s) {
      const auto [lo, hi] = shard_slot_range(s, kSlots, shards);
      EXPECT_EQ(lo, covered) << "gap before shard " << s;
      for (std::uint64_t i = lo; i < hi; ++i) {
        ASSERT_EQ(shard_of_slot(i, kSlots, shards), s);
      }
      covered = hi;
    }
    EXPECT_EQ(covered, kSlots);
  }
}

TEST(IngestPipeline, AppliesEveryCraftedFrame) {
  auto cfg = small_config();
  IngestPipeline pipeline(cfg);
  const auto stats = pipeline.run();

  EXPECT_EQ(stats.reports_generated, 2u * 500u);
  // kAllSlots mode: N=2 frames per report.
  EXPECT_EQ(stats.frames_crafted, 2u * 500u * 2u);
  EXPECT_EQ(stats.frames_dropped, 0u);
  EXPECT_EQ(stats.frames_applied, stats.frames_crafted);
  EXPECT_EQ(stats.frames_rejected, 0u);

  // Per-shard tallies add up, and (with a uniform hash) both shards worked.
  std::uint64_t sum = 0;
  for (const auto n : stats.per_shard_applied) sum += n;
  EXPECT_EQ(sum, stats.frames_applied);
  for (const auto n : stats.per_shard_applied) EXPECT_GT(n, 0u);

  const auto& counters = pipeline.collector().rnic().counters();
  EXPECT_EQ(counters.executed, stats.frames_applied);
  EXPECT_EQ(counters.bad_icrc, 0u);
  EXPECT_EQ(counters.out_of_bounds, 0u);
}

TEST(IngestPipeline, IngestedValuesAreQueryable) {
  auto cfg = small_config();
  IngestPipeline pipeline(cfg);
  (void)pipeline.run();

  // The workload is deterministic: report k of feeder f wrote
  // make_value(make_key(f, k)). Nearly every key must resolve exactly (a few
  // slots get overwritten by colliding later keys — the §4-priced cost).
  std::uint64_t found = 0, wrong = 0;
  std::vector<std::byte> expected;
  for (std::uint32_t f = 0; f < cfg.n_feeders; ++f) {
    for (std::uint64_t k = 0; k < cfg.reports_per_feeder; ++k) {
      const auto key = IngestPipeline::make_key(f, k);
      const auto result = pipeline.query(key);
      if (result.outcome != QueryOutcome::kFound) continue;
      ++found;
      IngestPipeline::make_value(key, cfg.dart.value_bytes, expected);
      if (result.value != expected) ++wrong;
    }
  }
  const auto total = cfg.n_feeders * cfg.reports_per_feeder;
  EXPECT_GT(found, total * 95 / 100);
  EXPECT_EQ(wrong, 0u);  // 32-bit checksums: return errors ≈ 0 at this scale
}

TEST(IngestPipeline, BatchSizesProduceIdenticalStoreState) {
  // batch_size only changes how frames move through the rings, never what
  // they contain or where they land: batch_size=1 (the old per-frame path)
  // and a large batch must leave byte-identical query results behind. One
  // feeder keeps same-slot write order equal to program order (each slot maps
  // to one ring, rings are FIFO), so the comparison is exact.
  auto run_with_batch = [](std::size_t batch) {
    auto cfg = small_config();
    cfg.n_feeders = 1;
    cfg.reports_per_feeder = 1000;
    cfg.batch_size = batch;
    IngestPipeline pipeline(cfg);
    const auto stats = pipeline.run();
    EXPECT_EQ(stats.frames_applied, stats.frames_crafted) << "batch=" << batch;

    std::vector<std::pair<QueryOutcome, std::vector<std::byte>>> results;
    for (std::uint32_t f = 0; f < cfg.n_feeders; ++f) {
      for (std::uint64_t k = 0; k < cfg.reports_per_feeder; ++k) {
        const auto r = pipeline.query(IngestPipeline::make_key(f, k));
        results.emplace_back(r.outcome, r.value);
      }
    }
    return results;
  };
  const auto unbatched = run_with_batch(1);
  const auto batched = run_with_batch(16);
  EXPECT_EQ(unbatched, batched);
}

TEST(IngestPipeline, ManyFeedersManyShards) {
  auto cfg = small_config();
  cfg.n_feeders = 4;
  cfg.n_shards = 4;
  cfg.reports_per_feeder = 300;
  cfg.ring_capacity = 64;  // small rings force the backpressure path
  IngestPipeline pipeline(cfg);
  const auto stats = pipeline.run();
  EXPECT_EQ(stats.frames_applied, stats.frames_crafted);
  EXPECT_EQ(stats.frames_rejected, 0u);
  ASSERT_EQ(stats.per_shard_applied.size(), 4u);
}

TEST(IngestPipeline, LossModelClonesDropFrames) {
  auto cfg = small_config();
  const net::BernoulliLoss loss(0.3);
  cfg.loss_model = &loss;
  IngestPipeline pipeline(cfg);
  const auto stats = pipeline.run();

  EXPECT_GT(stats.frames_dropped, 0u);
  EXPECT_LT(stats.frames_dropped, stats.frames_crafted);
  // Dropped frames never reach a ring: applied + dropped == crafted.
  EXPECT_EQ(stats.frames_applied + stats.frames_dropped,
            stats.frames_crafted);
  // ~30% drop rate, generous 4-sigma-ish band.
  const double rate = static_cast<double>(stats.frames_dropped) /
                      static_cast<double>(stats.frames_crafted);
  EXPECT_NEAR(rate, 0.3, 0.05);
}

TEST(IngestPipeline, DeterministicAcrossRuns) {
  // Per-feeder Xoshiro streams + per-feeder loss clones: identical seeds
  // must produce identical loss decisions regardless of thread scheduling.
  auto cfg = small_config();
  const net::BernoulliLoss loss(0.25);
  cfg.loss_model = &loss;
  IngestPipeline a(cfg), b(cfg);
  const auto sa = a.run();
  const auto sb = b.run();
  EXPECT_EQ(sa.frames_dropped, sb.frames_dropped);
  EXPECT_EQ(sa.frames_applied, sb.frames_applied);
}

TEST(IngestPipeline, StochasticWriteMode) {
  auto cfg = small_config();
  cfg.dart.write_mode = WriteMode::kStochastic;
  cfg.reports_per_feeder = 2000;
  cfg.unique_keys_per_feeder = 50;  // many reports per key fill both slots
  IngestPipeline pipeline(cfg);
  const auto stats = pipeline.run();
  // One frame per report in stochastic mode.
  EXPECT_EQ(stats.frames_crafted, stats.reports_generated);
  EXPECT_EQ(stats.frames_applied, stats.frames_crafted);

  std::uint64_t found = 0;
  for (std::uint64_t k = 0; k < 50; ++k) {
    const auto key = IngestPipeline::make_key(0, k);
    found += pipeline.query(key).outcome == QueryOutcome::kFound;
  }
  EXPECT_GT(found, 45u);
}

TEST(IngestPipeline, SecondCopyCasMode) {
  auto cfg = small_config();
  cfg.dart.checksum_bits = 32;
  cfg.dart.value_bytes = 4;  // slot_bytes == 8: CAS covers the whole slot
  cfg.second_copy_cas = true;
  cfg.reports_per_feeder = 400;
  ASSERT_TRUE(cfg.valid());
  IngestPipeline pipeline(cfg);
  const auto stats = pipeline.run();
  EXPECT_EQ(stats.frames_applied, stats.frames_crafted);

  const auto& counters = pipeline.collector().rnic().counters();
  EXPECT_EQ(counters.compare_swaps, stats.reports_generated);
  EXPECT_EQ(counters.writes + counters.compare_swaps, stats.frames_applied);

  std::uint64_t found = 0;
  for (std::uint64_t k = 0; k < cfg.reports_per_feeder; ++k) {
    found += pipeline.query(IngestPipeline::make_key(0, k)).outcome ==
             QueryOutcome::kFound;
  }
  EXPECT_GT(found, cfg.reports_per_feeder * 95 / 100);
}

TEST(IngestPipeline, RotationDuringIngestLosesNothing) {
  auto cfg = small_config();
  cfg.reports_per_feeder = 2000;
  cfg.directory_refresh = 16;  // refresh often so flips are actually seen
  IngestPipeline pipeline(cfg);
  pipeline.start();
  // Controller thread: several live flips while feeders stream reports.
  for (int i = 0; i < 6; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    pipeline.rotate();
  }
  const auto stats = pipeline.finish();

  // Every crafted frame landed in SOME region — the old MR stays registered
  // through the grace period, so in-flight reports to a pre-flip rkey are
  // never rejected.
  EXPECT_EQ(stats.frames_applied, stats.frames_crafted);
  EXPECT_EQ(stats.frames_rejected, 0u);
  EXPECT_EQ(pipeline.collector().current_epoch(), 6u);
}

TEST(RotatingCollector, SeqlockNeverShowsTornFlip) {
  // Invariant maintained by flip(): active == epoch (mod 2). A torn read —
  // new epoch with old region or vice versa — breaks it. Hammer reads
  // against a flipping controller thread.
  DartConfig config;
  config.n_slots = 1 << 10;
  const CollectorEndpoint ep{{2, 0, 0, 0, 0, 7},
                             net::Ipv4Addr::from_octets(10, 0, 9, 9)};
  RotatingCollector rotating(config, 3, ep);

  constexpr int kFlips = 20000;
  std::thread controller([&] {
    for (int i = 0; i < kFlips; ++i) rotating.flip();
  });
  std::uint64_t reads = 0;
  std::uint64_t last_epoch = 0;
  while (last_epoch < kFlips) {
    const auto [epoch, active] = rotating.epoch_snapshot();
    ASSERT_EQ(active, epoch & 1u) << "torn rotation observed";
    ASSERT_GE(epoch, last_epoch) << "epoch went backwards";
    last_epoch = epoch;
    ++reads;
  }
  controller.join();
  EXPECT_GT(reads, 0u);
  EXPECT_EQ(rotating.current_epoch(), static_cast<std::uint64_t>(kFlips));
  // Generation counter: two bumps per flip, even when stable.
  EXPECT_EQ(rotating.rotation_generation(), 2u * kFlips);
}

TEST(RotatingCollector, DirectoryRowsTrackFlipsUnderConcurrency) {
  DartConfig config;
  config.n_slots = 1 << 10;
  const CollectorEndpoint ep{{2, 0, 0, 0, 0, 8},
                             net::Ipv4Addr::from_octets(10, 0, 9, 10)};
  RotatingCollector rotating(config, 4, ep);
  const auto row0 = rotating.active_info();
  const auto row1 = rotating.standby_info();
  ASSERT_NE(row0.rkey, row1.rkey);

  std::thread controller([&] {
    for (int i = 0; i < 5000; ++i) rotating.flip();
  });
  // Concurrent directory refreshes must always observe one of the two valid
  // rows, never a mix of both.
  for (int i = 0; i < 5000; ++i) {
    const auto row = rotating.active_info();
    const bool is0 = row.rkey == row0.rkey && row.base_vaddr == row0.base_vaddr;
    const bool is1 = row.rkey == row1.rkey && row.base_vaddr == row1.base_vaddr;
    ASSERT_TRUE(is0 || is1) << "mixed directory row";
  }
  controller.join();
}

TEST(IngestPipeline, SealAfterRotationArchivesIngestedEpoch) {
  namespace fs = std::filesystem;
  auto cfg = small_config();
  cfg.reports_per_feeder = 200;
  IngestPipeline pipeline(cfg);
  (void)pipeline.run();

  pipeline.rotate();
  const auto path =
      (fs::temp_directory_path() / "dart_pipeline_epoch_test.bin").string();
  const auto sealed = pipeline.seal_previous(path);
  ASSERT_TRUE(sealed.ok());
  EXPECT_GT(sealed.value(), 0u);  // the ingested epoch had entries
  fs::remove(path);
}

}  // namespace
}  // namespace dart::core
