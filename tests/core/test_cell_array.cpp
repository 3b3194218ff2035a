// Tests for CellArray, the FETCH_ADD counting core shared by Key-Increment
// counters and the count-min sketch backend.
#include "core/cell_array.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <barrier>
#include <stdexcept>
#include <thread>

#include "common/hash.hpp"
#include "core/oracle.hpp"
#include "core/primitives.hpp"
#include "core/store_backend.hpp"

namespace dart::core {
namespace {

// A count-min array built from SketchBackendConfig's row-seed derivation.
CellArray sketch(std::uint32_t rows, std::uint64_t cols, std::uint64_t seed) {
  SketchBackendConfig cfg;
  cfg.rows = rows;
  cfg.cols = cols;
  cfg.seed = seed;
  return CellArray(cfg.geometry());
}

// Counter addressing, recomputed here from xxhash64 rather than through
// CellGeometry: a counter array hashes its one row with the raw seed, so the
// cell is xxhash64(key, seed) % n_counters. Checked on the config geometry,
// on a CellArray, and on where a local add lands.
TEST(CellArray, CounterAddressingMatchesFormula) {
  CounterArrayConfig ctr;
  ctr.n_counters = 64;
  ctr.seed = 11;
  CellArray counters(ctr.geometry());
  ASSERT_EQ(counters.geometry().rows(), 1u);

  std::vector<std::uint64_t> tally(ctr.n_counters, 0);
  for (std::uint64_t k = 0; k < 64; ++k) {
    const auto key = sim_key(k);
    const std::uint64_t cell = xxhash64(key, ctr.seed) % ctr.n_counters;
    EXPECT_EQ(ctr.geometry().cell_of(key, 0), cell) << k;
    EXPECT_EQ(counters.cell_of(key, 0), cell) << k;
    (void)counters.fetch_add(key, k + 1);
    tally[cell] += k + 1;
  }
  for (std::uint64_t c = 0; c < ctr.n_counters; ++c) {
    EXPECT_EQ(counters.read_cell(c), tally[c]) << c;
  }
}

TEST(CellArray, FetchAddMirrorsRdmaSemantics) {
  CounterArrayConfig cfg;
  cfg.n_counters = 16;
  cfg.seed = 5;
  CellArray cells(cfg.geometry());
  const auto key = sim_key(3);
  EXPECT_EQ(cells.fetch_add(key, 7), 0u);  // returns the prior value
  EXPECT_EQ(cells.fetch_add(key, 2), 7u);
  EXPECT_EQ(cells.estimate(key), 9u);
  EXPECT_EQ(cells.read_cell(cells.cell_of(key, 0)), 9u);
}

// Over several rows the prior is the minimum of the rows' prior values —
// the estimate before the add.
TEST(CellArray, FetchAddReturnsPriorEstimate) {
  auto cells = sketch(4, 1 << 14, 3);
  const auto key = sim_key(5);
  EXPECT_EQ(cells.fetch_add(key, 3), 0u);
  EXPECT_EQ(cells.fetch_add(key, 4), 3u);
  EXPECT_EQ(cells.estimate(key), 7u);
  for (std::uint32_t r = 0; r < 4; ++r) {
    EXPECT_EQ(cells.read_cell(cells.cell_of(key, r)), 7u) << r;
  }
}

TEST(CellArray, DistinctKeysUsuallyDistinctCells) {
  CounterArrayConfig cfg;
  cfg.n_counters = 1 << 16;
  cfg.seed = 2;
  CellArray counters(cfg.geometry());
  (void)counters.fetch_add(sim_key(1), 1);
  (void)counters.fetch_add(sim_key(2), 10);
  // With 64K cells the two keys almost surely differ (seed-pinned).
  ASSERT_NE(counters.cell_of(sim_key(1), 0), counters.cell_of(sim_key(2), 0));
  EXPECT_EQ(counters.estimate(sim_key(1)), 1u);
  EXPECT_EQ(counters.estimate(sim_key(2)), 10u);
}

TEST(CellArray, NeverUndercounts) {
  auto cells = sketch(4, 1024, 3);
  for (std::uint64_t i = 0; i < 500; ++i) {
    (void)cells.fetch_add(sim_key(i), i % 7 + 1);
  }
  for (std::uint64_t i = 0; i < 500; ++i) {
    EXPECT_GE(cells.estimate(sim_key(i)), i % 7 + 1) << i;
  }
}

TEST(CellArray, ExactWhenSparse) {
  auto cells = sketch(4, 1 << 14, 3);
  (void)cells.fetch_add(sim_key(1), 100);
  (void)cells.fetch_add(sim_key(2), 50);
  EXPECT_EQ(cells.estimate(sim_key(1)), 100u);
  EXPECT_EQ(cells.estimate(sim_key(2)), 50u);
  EXPECT_EQ(cells.estimate(sim_key(3)), 0u);
}

TEST(CellArray, CellOfMatchesFetchAdd) {
  auto cells = sketch(3, 256, 5);
  (void)cells.fetch_add(sim_key(42), 9);
  for (std::uint32_t r = 0; r < 3; ++r) {
    const auto idx = cells.cell_of(sim_key(42), r);
    EXPECT_EQ(cells.read_cell(idx), 9u);
    EXPECT_EQ(idx / 256, r);  // row-major layout
  }
}

// Regression for a non-atomic `+=`: N threads each add 1 to ONE shared
// cell, and each must observe a distinct prior value — the priors form a
// permutation of 0..n-1 exactly when every RMW was atomic. A plain `+=` both
// lost increments (final sum short) and duplicated priors.
TEST(CellArrayHammer, ConcurrentFetchAddOneCellIsLossless) {
  constexpr std::uint32_t kThreads = 8;
  constexpr std::uint64_t kAddsPerThread = 4096;
  CounterArrayConfig cfg;
  cfg.n_counters = 64;
  cfg.seed = 9;
  CellArray counters(cfg.geometry());
  const auto key = sim_key(3);

  std::vector<std::vector<std::uint64_t>> priors(kThreads);
  std::barrier gate(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::uint32_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      priors[t].reserve(kAddsPerThread);
      gate.arrive_and_wait();
      for (std::uint64_t i = 0; i < kAddsPerThread; ++i) {
        priors[t].push_back(counters.fetch_add(key, 1));
      }
    });
  }
  for (auto& th : threads) th.join();

  const std::uint64_t total = kThreads * kAddsPerThread;
  EXPECT_EQ(counters.estimate(key), total);  // no lost increments
  std::vector<std::uint64_t> all;
  all.reserve(total);
  for (const auto& p : priors) all.insert(all.end(), p.begin(), p.end());
  std::sort(all.begin(), all.end());
  for (std::uint64_t i = 0; i < total; ++i) {
    ASSERT_EQ(all[i], i);  // priors are a permutation of 0..total-1
  }
}

// Same property for a sketch: concurrent adds over many keys conserve the
// per-row sum (every row absorbs every delta exactly once).
TEST(CellArrayHammer, ConcurrentAddsConserveRowSums) {
  constexpr std::uint32_t kThreads = 8;
  constexpr std::uint64_t kAddsPerThread = 2048;
  constexpr std::uint32_t kRows = 4;
  constexpr std::uint64_t kCols = 128;
  auto cells = sketch(kRows, kCols, 11);

  std::barrier gate(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::uint32_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      gate.arrive_and_wait();
      for (std::uint64_t i = 0; i < kAddsPerThread; ++i) {
        // Distinct key streams per thread; delta in 1..4.
        (void)cells.fetch_add(sim_key(t * kAddsPerThread + i), i % 4 + 1);
      }
    });
  }
  for (auto& th : threads) th.join();

  std::uint64_t expected_per_row = 0;
  for (std::uint64_t i = 0; i < kAddsPerThread; ++i) {
    expected_per_row += (i % 4 + 1) * kThreads;
  }
  for (std::uint32_t r = 0; r < kRows; ++r) {
    std::uint64_t row_sum = 0;
    for (std::uint64_t c = 0; c < kCols; ++c) {
      row_sum += cells.read_cell(r * kCols + c);
    }
    EXPECT_EQ(row_sum, expected_per_row) << "row " << r;
  }
}

// The geometry guard must fail loudly in NDEBUG builds too: a mismatched
// merge walks out of bounds if allowed to proceed.
TEST(CellArray, MergeGeometryMismatchThrows) {
  auto base = sketch(4, 512, 7);
  const auto fewer_rows = sketch(3, 512, 7);
  const auto fewer_cols = sketch(4, 256, 7);
  EXPECT_THROW(base.merge(fewer_rows), std::invalid_argument);
  EXPECT_THROW(base.merge(fewer_cols), std::invalid_argument);
  // The failed merges must not have touched the target.
  for (std::uint64_t i = 0; i < 4 * 512; ++i) EXPECT_EQ(base.read_cell(i), 0u);
  // Same geometry, different seed, is still a valid merge (the seeds only
  // matter for estimate consistency, which callers own).
  const auto same_geometry = sketch(4, 512, 9);
  EXPECT_NO_THROW(base.merge(same_geometry));
}

TEST(CellArray, MergeEqualsCombinedStream) {
  // Network-wide aggregation (§7): the sum of two switches' sketches equals
  // one sketch fed both streams — what collector-side FETCH_ADD achieves.
  auto sw1 = sketch(4, 512, 7);
  auto sw2 = sketch(4, 512, 7);
  auto combined = sketch(4, 512, 7);
  for (std::uint64_t i = 0; i < 300; ++i) {
    const auto key = sim_key(i % 50);
    (void)(i % 2 == 0 ? sw1 : sw2).fetch_add(key, 1);
    (void)combined.fetch_add(key, 1);
  }
  sw1.merge(sw2);
  for (std::uint64_t i = 0; i < 50; ++i) {
    EXPECT_EQ(sw1.estimate(sim_key(i)), combined.estimate(sim_key(i)));
  }
}

}  // namespace
}  // namespace dart::core
