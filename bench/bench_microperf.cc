/**
 * @file
 * Simulator micro-performance benchmarks (google-benchmark). These do
 * not reproduce paper results; they track the speed of the simulator's
 * hot paths (event queue, cache accesses, mesh routing, System
 * construction, end-to-end simulated-cycles-per-second) so regressions
 * are visible when the model is extended.
 */

#include <benchmark/benchmark.h>

#include "cache/spec_cache.hh"
#include "core/system.hh"
#include "noc/network.hh"
#include "sim/event_queue.hh"
#include "workload/scripted_source.hh"
#include "workload/registry.hh"

namespace {

using namespace tcc;

void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    for (auto _ : state) {
        EventQueue eq;
        int sink = 0;
        for (int i = 0; i < 1000; ++i)
            eq.schedule(i % 7, [&sink] { ++sink; });
        eq.run();
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueScheduleRun);

void
BM_CacheLoadHit(benchmark::State &state)
{
    CacheConfig cfg;
    SpecCache cache(cfg);
    cache.fill(0x1000);
    for (auto _ : state) {
        auto out = cache.load(0x1000);
        benchmark::DoNotOptimize(out);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheLoadHit);

void
BM_MeshSend(benchmark::State &state)
{
    EventQueue eq;
    MeshNetwork net(eq, 64);
    for (NodeId n = 0; n < 64; ++n)
        net.connect(n, [](const Message &) {});
    Message m;
    m.type = MsgType::Skip;
    m.src = 0;
    m.dst = 63;
    m.bytes = 16;
    for (auto _ : state) {
        net.send(m);
        eq.run();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MeshSend);

void
BM_SystemConstruct(benchmark::State &state)
{
    // The fixed cost every run pays before its first event: a default
    // 32-processor machine built and torn down.
    SystemConfig cfg;
    cfg.numProcs = 32;
    for (auto _ : state) {
        System sys(cfg);
        benchmark::DoNotOptimize(sys.numProcs());
    }
}
BENCHMARK(BM_SystemConstruct)->Unit(benchmark::kMicrosecond);

void
BM_EndToEndSimulation(benchmark::State &state)
{
    for (auto _ : state) {
        SystemConfig cfg;
        cfg.numProcs = 8;
        System sys(cfg);
        WorkloadParams wl;
        wl.set("txns_per_phase", "64").set("phases", "1");
        const WorkloadBundle bundle =
            makeWorkload("water_spatial", wl, /*seed=*/1, cfg.numProcs);
        bundle.attach(sys);
        auto res = sys.run();
        benchmark::DoNotOptimize(res.cycles);
        state.counters["sim_cycles"] =
            static_cast<double>(res.cycles);
    }
}
BENCHMARK(BM_EndToEndSimulation)->Unit(benchmark::kMillisecond);

} // namespace
