// §7 extensions in action: RDMA Fetch&Add for collector-side flow counters
// and network-wide sketch aggregation.
//
// "Fetch & Add can be used to implement flow-counters directly in
//  collectors' memory (saving resources at switches) or to perform
//  network-wide aggregation of sketches."
//
// Two switches keep ZERO counter state; each packet observation becomes
// FETCH_ADD frames into one collector: (a) a Key-Increment on the flow's
// counter cell (on_increment_event) and (b) one add per row of the
// collector's count-min sketch (on_telemetry's sketch fan-out). The RNIC
// executes the atomics; the operator reads per-flow counts and sketch
// estimates straight from collector memory, with no merge step.
//
// Build & run:  ./build/examples/rdma_aggregation
#include <cstdio>
#include <vector>

#include "common/random.hpp"
#include "core/collector.hpp"
#include "switchsim/dart_switch.hpp"
#include "switchsim/topology.hpp"
#include "telemetry/workload.hpp"

int main() {
  using namespace dart;
  using namespace dart::core;

  DartConfig cfg;
  cfg.value_bytes = 8;

  // Collector memory: a 4x1024 count-min sketch as the report MR, plus the
  // DTA primitive regions, whose counter region holds 4K flow-counter cells.
  StoreBackendConfig backend;
  backend.kind = StoreBackendKind::kSketch;
  backend.sketch.rows = 4;
  backend.sketch.cols = 1024;
  backend.sketch.seed = 0x55;
  DtaPrimitivesConfig prim = default_primitives(cfg.master_seed);
  prim.counters.n_counters = 4096;
  prim.counters.seed = 0xC0;

  CollectorEndpoint ep;
  ep.mac = {0x02, 0xC0, 0, 0, 0, 1};
  ep.ip = net::Ipv4Addr::from_octets(10, 0, 100, 1);
  Collector collector(cfg, 0, ep, backend);
  if (!collector.enable_primitives(prim).ok()) return 1;

  // Two switches share the collector's geometry and observe a Zipf
  // workload; every frame they emit goes straight to the collector's RNIC.
  const switchsim::FatTree topo(4);
  telemetry::FlowSampler sampler(topo, 300, 1.2, 9);
  std::vector<std::uint64_t> truth(300, 0);
  const std::vector<std::byte> value(cfg.value_bytes);

  for (std::uint8_t s = 0; s < 2; ++s) {
    switchsim::DartSwitchPipeline::Config sc;
    sc.dart = cfg;
    sc.mac = {0x02, 0, 0, 0, 0, s};
    sc.ip = net::Ipv4Addr::from_octets(10, 255, 0, s);
    sc.sketch = backend.sketch;
    sc.primitives = prim;
    switchsim::DartSwitchPipeline sw(sc);
    sw.load_collector(collector.remote_info());
    sw.load_primitives(collector.remote_ring_info(),
                       collector.remote_counter_info(),
                       collector.remote_postcard_info());

    Xoshiro256 rng(100 + s);
    for (int pkt = 0; pkt < 20'000; ++pkt) {
      const auto idx = rng.below(300);
      truth[idx] += 1;
      const auto key = sampler.flow(idx).tuple.key_bytes();
      (void)collector.rnic().process_frame(sw.on_increment_event(key, 1));
      for (const auto& frame : sw.on_telemetry(key, value)) {
        (void)collector.rnic().process_frame(frame);
      }
    }
  }
  std::printf("RNIC executed %llu FETCH_ADDs from 2 switches "
              "(switch SRAM used for counters: 0 bytes).\n",
              static_cast<unsigned long long>(
                  collector.ingest_counters().fetch_adds.load()));

  std::printf("\nTop-5 flows — truth vs counter cell vs sketch estimate:\n");
  for (std::uint64_t rank = 0; rank < 5; ++rank) {
    const auto& flow = sampler.flow(rank);
    const auto key = flow.tuple.key_bytes();
    std::printf("  %-34s truth=%-6llu counter=%-6llu sketch>=%llu\n",
                flow.tuple.str().c_str(),
                static_cast<unsigned long long>(truth[rank]),
                static_cast<unsigned long long>(
                    collector.counters().estimate(key)),
                static_cast<unsigned long long>(
                    collector.sketch().cells().estimate(key)));
  }
  std::printf("\n(Counter cells can over-count on hash collisions; the sketch\n"
              "over-estimates by design — both are collector-side only.)\n");
  return 0;
}
