/**
 * @file
 * Full-stack cluster benchmark: wall-clock cost of simulating the same
 * incast workload three ways —
 *
 *  - single:      the whole array on one Simulator (the pre-sharding
 *                 baseline, one event queue, one host thread);
 *  - sharded/seq: the rack/switch-partitioned build driven by the
 *                 sequential reference engine (adds barrier + channel
 *                 drain bookkeeping, still one host thread);
 *  - sharded/par: the same partitioned build on the pooled parallel
 *                 engine (one worker thread per partition).
 *
 * This is the software analog of the paper's Table 6 host-performance
 * question: what does partitioning cost, and what does parallel
 * execution of the partitions buy back?  Items processed = simulated
 * events, so items_per_second is engine event throughput.  Results are
 * appended to BENCH_cluster.json (see bench/bench_json.hh).
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <vector>

#include "apps/incast.hh"
#include "bench/bench_json.hh"
#include "core/cpu_topology.hh"
#include "sim/cluster.hh"

using namespace diablo;
using namespace diablo::time_literals;

namespace {

/**
 * @p racks racks of @p servers_per_rack servers under one array switch.
 * The 4x4 shape keeps an iteration in the tens of milliseconds; the 8x8
 * shape carries ~5x the per-quantum work, which is what decides whether
 * parallel partitions amortize their barrier cost.
 */
sim::ClusterParams
benchParams(uint32_t racks, uint32_t servers_per_rack)
{
    sim::ClusterParams p = sim::ClusterParams::gige1us();
    p.topo.servers_per_rack = servers_per_rack;
    p.topo.racks_per_array = racks;
    p.topo.num_arrays = 1;
    return p;
}

apps::IncastParams
benchWorkload()
{
    apps::IncastParams ip;
    ip.block_bytes = 64 * 1024;
    ip.iterations = 4;
    ip.warmup_iterations = 1;
    return ip;
}

std::vector<net::NodeId>
crossRackServers(sim::Cluster &cluster)
{
    // Client is node 0; all of racks 1..3 serve.
    std::vector<net::NodeId> servers;
    for (net::NodeId n = cluster.params().topo.servers_per_rack;
         n < cluster.size(); ++n) {
        servers.push_back(n);
    }
    return servers;
}

constexpr SimTime kHorizon = SimTime::sec(10);

void
BM_ClusterIncastSingleSim(benchmark::State &state)
{
    const auto racks = static_cast<uint32_t>(state.range(0));
    const auto spr = static_cast<uint32_t>(state.range(1));
    uint64_t events = 0;
    for (auto _ : state) {
        Simulator sim;
        sim::Cluster cluster(sim, benchParams(racks, spr));
        apps::IncastApp app(cluster, benchWorkload(), 0,
                            crossRackServers(cluster));
        app.install();
        sim.run();
        if (!app.result().done) {
            state.SkipWithError("incast did not complete");
            return;
        }
        events += sim.executedEvents();
    }
    state.SetItemsProcessed(static_cast<int64_t>(events));
}
BENCHMARK(BM_ClusterIncastSingleSim)
    ->Args({4, 4})
    ->Args({8, 8})
    ->ArgNames({"racks", "spr"})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void
BM_ClusterIncastSharded(benchmark::State &state)
{
    const bool parallel = state.range(0) != 0;
    const auto racks = static_cast<uint32_t>(state.range(1));
    const auto spr = static_cast<uint32_t>(state.range(2));
    // Worker cap for the fused parallel engine; 0 = one per allowed CPU.
    // threads=1 is the degenerate-fusion case that must stay within
    // striking distance of the sequential reference even on a 1-core
    // runner (guarded in CI by tools/bench_guard.py).
    const auto threads = static_cast<size_t>(state.range(3));
    uint64_t events = 0;
    uint64_t quanta = 0;
    uint64_t workers = 0;
    double max_share = 0.0;
    for (auto _ : state) {
        const sim::ClusterParams params = benchParams(racks, spr);
        fame::PartitionSet ps(sim::Cluster::partitionsRequired(params));
        ps.setParallelism(threads);
        sim::Cluster cluster(ps, params);
        apps::IncastApp app(cluster, benchWorkload(), 0,
                            crossRackServers(cluster));
        app.install();
        if (parallel) {
            ps.runParallel(kHorizon);
        } else {
            ps.runSequential(kHorizon);
        }
        if (!app.result().done) {
            state.SkipWithError("incast did not complete");
            return;
        }
        events += ps.totalExecutedEvents();
        quanta = ps.lastRunQuanta();
        workers = parallel ? ps.lastRunWorkers() : 1;
        uint64_t largest = 0;
        for (size_t i = 0; i < ps.size(); ++i) {
            largest = std::max(largest, ps.partition(i).executedEvents());
        }
        max_share = static_cast<double>(largest) /
                    static_cast<double>(ps.totalExecutedEvents());
    }
    state.counters["quanta"] =
        benchmark::Counter(static_cast<double>(quanta));
    state.counters["workers"] =
        benchmark::Counter(static_cast<double>(workers));
    // The busiest partition's share of executed events (deterministic,
    // the same on every engine): no placement of whole partitions can
    // beat 1/share times sequential, which bench_guard prints as each
    // scaling row's Amdahl bound.
    state.counters["max_part_share"] = benchmark::Counter(max_share);
    // The cores this run may use, for bench_guard's multicore scoring
    // (google-benchmark's num_cpus ignores the affinity mask).
    state.counters["cores"] = benchmark::Counter(
        static_cast<double>(allowedCpus().size()));
    state.SetItemsProcessed(static_cast<int64_t>(events));
}
// Real time is the comparable axis (the parallel engine spends its
// cycles on pooled worker threads, not the benchmark thread); process
// CPU time additionally exposes the total host cost of the barriers.
BENCHMARK(BM_ClusterIncastSharded)
    ->Args({0, 4, 4, 0})
    ->Args({1, 4, 4, 1})
    ->Args({1, 4, 4, 0})
    ->Args({0, 8, 8, 0})
    ->Args({1, 8, 8, 1})
    ->Args({1, 8, 8, 2})
    ->Args({1, 8, 8, 0})
    ->ArgNames({"par", "racks", "spr", "threads"})
    ->UseRealTime()
    ->MeasureProcessCPUTime()
    ->Unit(benchmark::kMillisecond);

} // namespace

// Custom main: console output plus a JSON trajectory entry appended to
// BENCH_cluster.json, so partitioned-cluster host performance is
// tracked across PRs alongside the engine microbenchmarks.
int
main(int argc, char **argv)
{
    return diablo::bench_json::runMain(argc, argv, "BENCH_cluster.json");
}
