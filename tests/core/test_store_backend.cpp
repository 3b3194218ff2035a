// Backend-conformance suite for the StoreBackend seam: both backends must
// agree on (a) MR byte layout, (b) slot/cell addressing — pinned
// byte-for-byte against switch-side frame crafting through the simulated
// RNIC, (c) local apply vs wire-path equivalence, and (d) clear/reset.
// Then §7 network-wide heavy-hitter detection end to end: switches fan
// telemetry out as per-row FETCH_ADDs into one sketch-backed collector.
#include "core/store_backend.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <vector>

#include "common/hash.hpp"
#include "core/collector.hpp"
#include "core/oracle.hpp"
#include "common/random.hpp"
#include "core/report_crafter.hpp"
#include "switchsim/dart_switch.hpp"

namespace dart::core {
namespace {

DartConfig kv_config() {
  DartConfig cfg;
  cfg.n_slots = 1024;
  cfg.n_addresses = 2;
  cfg.checksum_bits = 32;
  cfg.value_bytes = 8;
  cfg.master_seed = 0xDA27;
  return cfg;
}

SketchBackendConfig sketch_config() {
  SketchBackendConfig cfg;
  cfg.rows = 3;
  cfg.cols = 256;
  cfg.seed = 0x5EED'CAFE;
  cfg.topk_capacity = 4;
  return cfg;
}

StoreBackendConfig sketch_choice() {
  StoreBackendConfig choice;
  choice.kind = StoreBackendKind::kSketch;
  choice.sketch = sketch_config();
  return choice;
}

CollectorEndpoint endpoint() {
  CollectorEndpoint ep;
  ep.mac = {0x02, 0xC0, 0, 0, 0, 1};
  ep.ip = net::Ipv4Addr::from_octets(10, 0, 100, 1);
  return ep;
}

ReporterEndpoint reporter() {
  ReporterEndpoint src;
  src.mac = {0x02, 0, 0, 0, 0, 1};
  src.ip = net::Ipv4Addr::from_octets(10, 255, 0, 1);
  return src;
}

std::vector<std::byte> value_of(std::uint64_t v) {
  std::vector<std::byte> out(8);
  std::memcpy(out.data(), &v, 8);
  return out;
}

// --- factory / geometry ------------------------------------------------------

TEST(StoreBackendConformance, KvFactoryGeometryMatchesDartConfig) {
  const DartConfig dart = kv_config();
  const StoreBackendConfig choice;  // default = KV
  ASSERT_TRUE(choice.valid(dart));

  auto backend = make_backend(dart, choice);
  ASSERT_NE(backend, nullptr);
  EXPECT_EQ(backend->kind(), StoreBackendKind::kKv);
  EXPECT_EQ(backend->n_slots(), dart.n_slots);
  EXPECT_EQ(backend->slot_bytes(), dart.slot_bytes());
  EXPECT_EQ(backend->memory_bytes(), dart.memory_bytes());
  EXPECT_EQ(backend->memory().size(), dart.memory_bytes());
}

TEST(StoreBackendConformance, SketchFactoryGeometry) {
  const DartConfig dart = kv_config();
  const StoreBackendConfig choice = sketch_choice();
  ASSERT_TRUE(choice.valid(dart));

  auto backend = make_backend(dart, choice);
  ASSERT_NE(backend, nullptr);
  EXPECT_EQ(backend->kind(), StoreBackendKind::kSketch);
  EXPECT_EQ(backend->n_slots(), choice.sketch.n_cells());
  EXPECT_EQ(backend->slot_bytes(), 8u);
  EXPECT_EQ(backend->memory_bytes(), choice.sketch.memory_bytes());
  EXPECT_EQ(backend->memory().size(), choice.sketch.memory_bytes());
}

// Sketch addressing, recomputed here from xxhash64 and SplitMix64 rather
// than through CellGeometry: row r hashes with the r-th SplitMix64 output of
// the seed, and its cell is r*cols + xxhash64(key, seed_r) % cols. Checked
// on the config geometry and on a SketchBackend's cells.
TEST(StoreBackendConformance, SketchAddressingMatchesFormula) {
  const SketchBackendConfig sk = sketch_config();
  SketchBackend backend(sk);
  std::vector<std::uint64_t> row_seeds;
  SplitMix64 sm(sk.seed);
  for (std::uint32_t r = 0; r < sk.rows; ++r) row_seeds.push_back(sm.next());

  for (std::uint64_t k = 0; k < 64; ++k) {
    const auto key = sim_key(k);
    for (std::uint32_t r = 0; r < sk.rows; ++r) {
      const std::uint64_t cell =
          r * sk.cols + xxhash64(key, row_seeds[r]) % sk.cols;
      EXPECT_EQ(sk.geometry().cell_of(key, r), cell) << k << " row " << r;
      EXPECT_EQ(backend.cells().cell_of(key, r), cell) << k << " row " << r;
    }
  }
}

TEST(StoreBackendConformance, CollectorRemoteInfoCarriesBackendGeometry) {
  Collector kv(kv_config(), 0, endpoint());
  EXPECT_EQ(kv.backend_kind(), StoreBackendKind::kKv);
  EXPECT_EQ(kv.remote_info().backend, StoreBackendKind::kKv);
  EXPECT_EQ(kv.remote_info().n_slots, kv_config().n_slots);
  EXPECT_EQ(kv.remote_info().slot_bytes, kv_config().slot_bytes());

  Collector sk(kv_config(), 1, endpoint(), sketch_choice());
  EXPECT_EQ(sk.backend_kind(), StoreBackendKind::kSketch);
  EXPECT_EQ(sk.remote_info().backend, StoreBackendKind::kSketch);
  EXPECT_EQ(sk.remote_info().n_slots, sketch_config().n_cells());
  EXPECT_EQ(sk.remote_info().slot_bytes, 8u);
}

// --- wire path vs local apply ------------------------------------------------

TEST(StoreBackendConformance, KvWirePathMatchesLocalApply) {
  const DartConfig dart = kv_config();
  Collector collector(dart, 0, endpoint());
  auto twin = make_backend(dart, StoreBackendConfig{});
  const ReportCrafter crafter(dart);
  const auto info = collector.remote_info();

  std::uint32_t psn = 0;
  for (std::uint64_t i = 0; i < 200; ++i) {
    const auto key = sim_key(i);
    const auto value = value_of(i * 31 + 7);
    // apply_report's reference semantics = all N slot copies written.
    for (std::uint32_t n = 0; n < dart.n_addresses; ++n) {
      const auto frame = crafter.craft_write(info, reporter(), key, value, n, psn++);
      ASSERT_TRUE(collector.rnic().process_frame(frame).has_value()) << i;
    }
    twin->apply_report(key, value);
  }
  const auto wire = collector.backend().memory();
  const auto local = twin->memory();
  ASSERT_EQ(wire.size(), local.size());
  EXPECT_TRUE(std::equal(wire.begin(), wire.end(), local.begin()));
}

TEST(StoreBackendConformance, SketchWirePathMatchesLocalApply) {
  const DartConfig dart = kv_config();
  const SketchBackendConfig cfg = sketch_config();
  Collector collector(dart, 0, endpoint(), sketch_choice());
  SketchBackend twin(cfg);
  const ReportCrafter crafter(dart);
  const auto info = collector.remote_info();

  std::uint32_t psn = 0;
  for (std::uint64_t i = 0; i < 300; ++i) {
    const auto key = sim_key(i % 40);
    // One report = one FETCH_ADD of 1 per row.
    for (std::uint32_t r = 0; r < cfg.rows; ++r) {
      const auto frame = crafter.craft_cell_increment(
          info, reporter(), twin.cells().geometry(), key, r, 1, psn++);
      ASSERT_TRUE(collector.rnic().process_frame(frame).has_value()) << i;
    }
    twin.apply_report(key, {});
  }
  const auto wire = collector.backend().memory();
  const auto local = twin.memory();
  ASSERT_EQ(wire.size(), local.size());
  EXPECT_TRUE(std::equal(wire.begin(), wire.end(), local.begin()));
  for (std::uint64_t i = 0; i < 40; ++i) {
    EXPECT_EQ(collector.sketch().cells().estimate(sim_key(i)),
              twin.cells().estimate(sim_key(i)));
  }
}

// The switch pipeline's sketch fan-out (template fast path included) must
// land the same bytes as the crafter reference above.
TEST(StoreBackendConformance, SwitchPipelineSketchFanoutMatchesLocalApply) {
  const DartConfig dart = kv_config();
  const SketchBackendConfig cfg = sketch_config();
  Collector collector(dart, 0, endpoint(), sketch_choice());
  SketchBackend twin(cfg);

  switchsim::DartSwitchPipeline::Config sc;
  sc.dart = dart;
  sc.mac = reporter().mac;
  sc.ip = reporter().ip;
  sc.sketch = cfg;
  switchsim::DartSwitchPipeline sw(sc);
  sw.load_collector(collector.remote_info());

  for (std::uint64_t i = 0; i < 150; ++i) {
    const auto key = sim_key(i % 25);
    const auto value = value_of(i);
    const auto frames = sw.on_telemetry(key, value);
    ASSERT_EQ(frames.size(), cfg.rows) << i;  // one FETCH_ADD per row
    for (const auto& frame : frames) {
      ASSERT_TRUE(collector.rnic().process_frame(frame).has_value()) << i;
    }
    twin.apply_report(key, value);
  }
  EXPECT_EQ(sw.counters().sketch_increments_emitted, 150u * cfg.rows);
  EXPECT_EQ(sw.counters().reports_emitted, 150u * cfg.rows);

  const auto wire = collector.backend().memory();
  const auto local = twin.memory();
  ASSERT_EQ(wire.size(), local.size());
  EXPECT_TRUE(std::equal(wire.begin(), wire.end(), local.begin()));
}

// --- resolve semantics -------------------------------------------------------

TEST(StoreBackendConformance, KvResolveMatchesQueryEngine) {
  const DartConfig dart = kv_config();
  auto backend = make_backend(dart, StoreBackendConfig{});
  backend->apply_report(sim_key(1), value_of(42));

  const auto hit = backend->resolve(sim_key(1), ReturnPolicy::kPlurality);
  ASSERT_EQ(hit.outcome, QueryOutcome::kFound);
  EXPECT_EQ(hit.value, value_of(42));

  const auto miss = backend->resolve(sim_key(2), ReturnPolicy::kPlurality);
  EXPECT_NE(miss.outcome, QueryOutcome::kFound);
}

TEST(StoreBackendConformance, SketchResolveEncodesEstimate) {
  SketchBackend backend(sketch_config());
  const auto empty = backend.resolve(sim_key(9), ReturnPolicy::kPlurality);
  EXPECT_EQ(empty.outcome, QueryOutcome::kEmpty);

  (void)backend.cells().fetch_add(sim_key(9), 5);
  const auto found = backend.resolve(sim_key(9), ReturnPolicy::kPlurality);
  ASSERT_EQ(found.outcome, QueryOutcome::kFound);
  ASSERT_EQ(found.value.size(), 8u);
  std::uint64_t est = 0;
  std::memcpy(&est, found.value.data(), 8);
  EXPECT_EQ(est, backend.cells().estimate(sim_key(9)));
  EXPECT_GE(est, 5u);  // count-min never undercounts
}

// --- clear / reset -----------------------------------------------------------

TEST(StoreBackendConformance, ClearZeroesMemoryAndResetsState) {
  const DartConfig dart = kv_config();
  auto kv = make_backend(dart, StoreBackendConfig{});
  kv->apply_report(sim_key(1), value_of(1));
  kv->clear();
  for (const std::byte b : kv->memory()) {
    ASSERT_EQ(b, std::byte{0});
  }

  SketchBackend sk(sketch_config());
  sk.apply_report(sim_key(1), {});
  sk.offer(sim_key(1));
  ASSERT_EQ(sk.tracked_candidates(), 1u);
  sk.clear();
  for (const std::byte b : sk.memory()) {
    ASSERT_EQ(b, std::byte{0});
  }
  EXPECT_EQ(sk.tracked_candidates(), 0u);
  EXPECT_EQ(sk.cells().estimate(sim_key(1)), 0u);
}

// --- heavy-hitter tracker ----------------------------------------------------

TEST(SketchBackendTracker, TopKOrdersByLiveEstimate) {
  SketchBackendConfig cfg = sketch_config();
  cfg.topk_capacity = 8;
  SketchBackend backend(cfg);
  for (std::uint64_t i = 0; i < 5; ++i) {
    (void)backend.cells().fetch_add(sim_key(i), (i + 1) * 10);
    backend.offer(sim_key(i));
  }
  // Counts are re-estimated at top_k() time, so later adds are reflected.
  (void)backend.cells().fetch_add(sim_key(0), 1000);

  const auto top = backend.top_k(3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_TRUE(std::equal(top[0].key.begin(), top[0].key.end(),
                         sim_key(0).begin()));
  EXPECT_GE(top[0].count, 1000u);
  EXPECT_GE(top[0].count, top[1].count);
  EXPECT_GE(top[1].count, top[2].count);
}

TEST(SketchBackendTracker, CapacityEvictionPrefersStrongerCandidates) {
  SketchBackendConfig cfg = sketch_config();
  cfg.topk_capacity = 2;
  SketchBackend backend(cfg);
  auto& cells = backend.cells();
  (void)cells.fetch_add(sim_key(1), 10);
  (void)cells.fetch_add(sim_key(2), 20);
  (void)cells.fetch_add(sim_key(3), 5);
  (void)cells.fetch_add(sim_key(4), 30);

  backend.offer(sim_key(1));
  backend.offer(sim_key(2));
  ASSERT_EQ(backend.tracked_candidates(), 2u);

  // Weaker newcomer at capacity: rejected, set unchanged.
  backend.offer(sim_key(3));
  EXPECT_EQ(backend.tracked_candidates(), 2u);
  EXPECT_EQ(backend.offers_rejected(), 1u);
  EXPECT_EQ(backend.offers_evicted(), 0u);

  // Stronger newcomer: evicts the weakest (key 1).
  backend.offer(sim_key(4));
  EXPECT_EQ(backend.tracked_candidates(), 2u);
  EXPECT_EQ(backend.offers_evicted(), 1u);
  const auto top = backend.top_k(2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_TRUE(std::equal(top[0].key.begin(), top[0].key.end(),
                         sim_key(4).begin()));
  EXPECT_TRUE(std::equal(top[1].key.begin(), top[1].key.end(),
                         sim_key(2).begin()));

  // Re-offering a tracked key is a dedupe, not an eviction.
  backend.offer(sim_key(4));
  EXPECT_EQ(backend.tracked_candidates(), 2u);
  EXPECT_EQ(backend.offers_evicted(), 1u);
}

// --- network-wide heavy hitters (§7) -----------------------------------------
//
// "Fetch & Add can be used ... to perform network-wide aggregation of
// sketches": switches keep no counting state, and the sketch-backed
// collector's MR is the sum of every switch's contributions with no merge
// step. Driven through DartSwitchPipeline's sketch fan-out (one FETCH_ADD of
// 1 per row per telemetry event) into a real Collector's RNIC.

StoreBackendConfig hh_choice() {
  StoreBackendConfig choice;
  choice.kind = StoreBackendKind::kSketch;
  choice.sketch.rows = 4;
  choice.sketch.cols = 1 << 12;
  choice.sketch.seed = 0x5E7C;
  return choice;
}

switchsim::DartSwitchPipeline hh_switch(std::uint8_t id) {
  switchsim::DartSwitchPipeline::Config sc;
  sc.dart = kv_config();
  sc.mac = {0x02, 0, 0, 0, 0, id};
  sc.ip = net::Ipv4Addr::from_octets(10, 255, 1, id);
  sc.sketch = hh_choice().sketch;
  return switchsim::DartSwitchPipeline(sc);
}

struct HeavyHitterDeployment {
  Collector collector{kv_config(), 0, endpoint(), hh_choice()};
  switchsim::DartSwitchPipeline sw1 = hh_switch(1);
  switchsim::DartSwitchPipeline sw2 = hh_switch(2);

  HeavyHitterDeployment() {
    sw1.load_collector(collector.remote_info());
    sw2.load_collector(collector.remote_info());
  }
  // One packet of flow `id` seen at `sw`; every frame must execute.
  void observe(switchsim::DartSwitchPipeline& sw, std::uint64_t id) {
    for (const auto& frame : sw.on_telemetry(sim_key(id), value_of(id))) {
      ASSERT_TRUE(collector.rnic().process_frame(frame).has_value());
    }
  }
  [[nodiscard]] std::uint64_t estimate(std::uint64_t id) const {
    return collector.sketch().cells().estimate(sim_key(id));
  }
};

TEST(HeavyHitters, SingleSwitchCountsThroughRnic) {
  HeavyHitterDeployment d;
  for (int i = 0; i < 10; ++i) d.observe(d.sw1, 1);
  EXPECT_EQ(d.estimate(1), 10u);
  EXPECT_EQ(d.sw1.counters().sketch_increments_emitted, 10u * 4u);  // per row
  EXPECT_EQ(d.collector.rnic().counters().fetch_adds, 40u);
}

TEST(HeavyHitters, SketchNeverUndercounts) {
  HeavyHitterDeployment d;
  std::map<std::uint64_t, std::uint64_t> truth;
  Xoshiro256 rng(3);
  for (int i = 0; i < 3000; ++i) {
    const auto id = rng.below(200);
    truth[id] += 1;
    d.observe(d.sw1, id);
  }
  for (const auto& [id, count] : truth) {
    EXPECT_GE(d.estimate(id), count) << id;
  }
}

TEST(HeavyHitters, MultiSwitchAggregationIsAutomatic) {
  // Two switches each see half a flow's packets: the collector-side sketch
  // holds the network-wide total with no merge step.
  HeavyHitterDeployment d;
  for (int i = 0; i < 25; ++i) {
    d.observe(d.sw1, 7);
    d.observe(d.sw2, 7);
  }
  EXPECT_EQ(d.estimate(7), 50u);
}

TEST(HeavyHitters, WeightedObservations) {
  // Byte counting: one report carries a weight, one FETCH_ADD per row.
  HeavyHitterDeployment d;
  const ReportCrafter crafter(kv_config());
  const auto info = d.collector.remote_info();
  const auto& cells = d.collector.sketch().cells();
  for (std::uint32_t r = 0; r < cells.geometry().rows(); ++r) {
    const auto frame = crafter.craft_cell_increment(
        info, reporter(), cells.geometry(), sim_key(3), r, 1400, r);
    ASSERT_TRUE(d.collector.rnic().process_frame(frame).has_value());
  }
  EXPECT_EQ(d.estimate(3), 1400u);
}

TEST(HeavyHitters, ThresholdReportRecoversElephants) {
  HeavyHitterDeployment d;
  Xoshiro256 rng(9);
  // 5 elephants at 500 packets, 200 mice at < 10.
  for (std::uint64_t id = 0; id < 205; ++id) {
    const auto packets = id < 5 ? 500 : rng.below(10);
    for (std::uint64_t p = 0; p < packets; ++p) d.observe(d.sw1, id);
  }
  // The operator's candidates go through the read-side tracker, as estimate
  // queries do; the elephants must all survive it and clear the threshold.
  auto& sketch = d.collector.sketch();
  for (std::uint64_t id = 0; id < 205; ++id) sketch.offer(sim_key(id));
  std::size_t above = 0;
  for (const auto& hh : sketch.top_k(hh_choice().sketch.topk_capacity)) {
    if (hh.count < 400) continue;
    ++above;
    EXPECT_GE(hh.count, 500u);  // count-min only over-estimates
  }
  EXPECT_EQ(above, 5u);  // perfect recall, no mice promoted
}

TEST(HeavyHitters, UnknownFlowEstimatesSmall) {
  HeavyHitterDeployment d;
  for (std::uint64_t id = 0; id < 100; ++id) d.observe(d.sw1, id);
  // A never-observed flow collides with at most a handful of counts w.h.p.
  EXPECT_LE(d.estimate(9999), 3u);
}

}  // namespace
}  // namespace dart::core
