/**
 * @file
 * Microbenchmarks of the conservative-parallel FAME engine itself,
 * isolating the three costs that decide whether partitioned execution
 * accelerates or taxes the model (the paper's §3.2 synchronization
 * design, SimBricks' quantum-sync overhead):
 *
 *  - BM_FameBarrierRoundTrip: raw cost of one synchronization quantum
 *    with *no model work at all* (skipping disabled, empty partitions).
 *    items/s = barriers/s; the spin-then-park barrier and the fused
 *    worker count (threads axis) are what's being measured.
 *  - BM_FameFusedThroughput: a dense cross-partition token workload on
 *    a fixed 8-partition set, swept over worker counts.  threads=1 is
 *    the degenerate fusion that must track runSequential; larger counts
 *    expose barrier amortization on multi-core hosts.
 *  - BM_FameSkipRate: a bursty workload (activity clusters separated by
 *    long idle gaps) with skipping on; the skip_pct counter reports the
 *    fraction of grid windows the incremental next-event fold jumped
 *    over without a barrier.
 *  - BM_SparseManyPartitions: four tokens circulating on an 8-partition
 *    ring inside a set of 64 or 1,024 partitions under runSequential,
 *    so every quantum has the same few events and the same working set
 *    whatever the partition count.  ns_per_quantum must stay flat in
 *    P: the next-event calendar advances only the partitions with work
 *    instead of sweeping all of them.
 *
 * Results append to BENCH_fame.json (bench/bench_json.hh) so engine
 * regressions show up in the trajectory next to the cluster numbers.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <vector>

#include "bench/bench_json.hh"
#include "fame/partition.hh"

using namespace diablo;
using namespace diablo::time_literals;

namespace {

void
BM_FameBarrierRoundTrip(benchmark::State &state)
{
    const auto parts = static_cast<size_t>(state.range(0));
    const auto threads = static_cast<size_t>(state.range(1));
    uint64_t quanta = 0;
    size_t workers = 0;
    // 1 ms quantum over a 1 s horizon = 1000 barriers per run; no
    // channels and no events, so each quantum is pure synchronization.
    for (auto _ : state) {
        state.PauseTiming();
        fame::PartitionSet ps(parts);
        ps.setParallelism(threads);
        ps.setSkipIdleQuanta(false);
        // Keep one event alive at the horizon so the run cannot end
        // early; it fires once, after every measured barrier.
        ps.partition(0).schedule(1_sec, [] {});
        state.ResumeTiming();
        ps.runParallel(SimTime::sec(1));
        quanta += ps.lastRunQuanta();
        workers = ps.lastRunWorkers();
    }
    bench_json::annotate_multicore(state, workers);
    state.SetItemsProcessed(static_cast<int64_t>(quanta));
}

/**
 * Dense ring: every partition forwards a token to its neighbour each
 * hop with 1 us lookahead, so every quantum carries work in every
 * partition — the worst case for barrier frequency, the best case for
 * fusion amortization.  @p ring_size limits the ring to the first
 * partitions of the set (0: all of them); the rest stay idle.
 */
struct DenseRing {
    explicit DenseRing(fame::PartitionSet &ps, int tokens_per_part,
                       uint32_t ttl_hops = UINT32_MAX, size_t ring_size = 0)
        : ps(ps), n(ring_size != 0 ? ring_size : ps.size()), ttl(ttl_hops)
    {
        channels.reserve(n);
        for (size_t i = 0; i < n; ++i) {
            channels.push_back(&ps.makeChannel(i, (i + 1) % n, 1_us));
        }
        for (size_t i = 0; i < n; ++i) {
            for (int t = 0; t < tokens_per_part; ++t) {
                const auto token = static_cast<uint64_t>(t);
                ps.partition(i).schedule(SimTime(), [this, i, token] {
                    hop(i, token, ttl);
                });
            }
        }
    }

    void
    hop(size_t part, uint64_t token, uint32_t hops_left)
    {
        Simulator &sim = ps.partition(part);
        sum += token + static_cast<uint64_t>(sim.now().toPs() & 0xff);
        if (hops_left == 0) {
            return; // token retires; the ring can drain to idle
        }
        const size_t dst = (part + 1) % n;
        channels[part]->post(
            sim.now() + 1_us + SimTime::ns(token % 31),
            [this, dst, token, hops_left] {
                hop(dst, token + 1, hops_left - 1);
            });
    }

    fame::PartitionSet &ps;
    const size_t n;
    std::vector<fame::PartitionSet::Channel *> channels;
    const uint32_t ttl;
    uint64_t sum = 0;
};

void
BM_FameFusedThroughput(benchmark::State &state)
{
    const auto threads = static_cast<size_t>(state.range(0));
    constexpr size_t kParts = 8;
    uint64_t events = 0;
    size_t workers = 0;
    for (auto _ : state) {
        state.PauseTiming();
        fame::PartitionSet ps(kParts);
        ps.setParallelism(threads);
        DenseRing ring(ps, /*tokens_per_part=*/4);
        state.ResumeTiming();
        ps.runParallel(SimTime::ms(20));
        benchmark::DoNotOptimize(ring.sum);
        events += ps.lastRunTotalExecutedEvents();
        workers = ps.lastRunWorkers();
    }
    bench_json::annotate_multicore(state, workers);
    state.SetItemsProcessed(static_cast<int64_t>(events));
}

void
BM_FameSkipRate(benchmark::State &state)
{
    const auto threads = static_cast<size_t>(state.range(0));
    constexpr size_t kParts = 4;
    uint64_t events = 0;
    uint64_t quanta = 0;
    uint64_t grid_windows = 0;
    size_t workers = 0;
    for (auto _ : state) {
        state.PauseTiming();
        fame::PartitionSet ps(kParts);
        ps.setParallelism(threads);
        // Channels only (no standing tokens); bursts injected below
        // with a 200-hop TTL so each one burns ~200 us of dense
        // activity and then retires, leaving ~33 ms of idle grid —
        // the bursty shape quantum skipping exists for.
        DenseRing ring(ps, 0, /*ttl=*/200);
        for (int burst = 0; burst < 3; ++burst) {
            for (size_t i = 0; i < kParts; ++i) {
                ps.partition(i).schedule(
                    SimTime::ms(1 + 33 * burst),
                    [&ring, i] { ring.hop(i, 7 + i, ring.ttl); });
            }
        }
        state.ResumeTiming();
        const SimTime horizon = SimTime::ms(100);
        ps.runParallel(horizon);
        benchmark::DoNotOptimize(ring.sum);
        events += ps.lastRunTotalExecutedEvents();
        quanta += ps.lastRunQuanta();
        grid_windows +=
            static_cast<uint64_t>(horizon.toPs() / ps.quantum().toPs());
        workers = ps.lastRunWorkers();
    }
    state.counters["skip_pct"] = benchmark::Counter(
        grid_windows != 0
            ? 100.0 * static_cast<double>(grid_windows - quanta) /
                  static_cast<double>(grid_windows)
            : 0.0);
    bench_json::annotate_multicore(state, workers);
    state.SetItemsProcessed(static_cast<int64_t>(events));
}

void
BM_SparseManyPartitions(benchmark::State &state)
{
    const auto parts = static_cast<size_t>(state.range(0));
    constexpr size_t kRing = 8;
    constexpr size_t kTokens = 4;
    uint64_t quanta = 0;
    double run_ns = 0.0;
    for (auto _ : state) {
        state.PauseTiming();
        fame::PartitionSet ps(parts);
        DenseRing ring(ps, 0, UINT32_MAX, kRing);
        for (size_t t = 0; t < kTokens; ++t) {
            const size_t at = t * kRing / kTokens;
            ps.partition(at).schedule(SimTime(), [&ring, at, t] {
                ring.hop(at, t, ring.ttl);
            });
        }
        state.ResumeTiming();
        const auto t0 = std::chrono::steady_clock::now();
        ps.runSequential(SimTime::ms(2));
        run_ns += std::chrono::duration<double, std::nano>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
        benchmark::DoNotOptimize(ring.sum);
        quanta += ps.lastRunQuanta();
    }
    state.counters["ns_per_quantum"] = benchmark::Counter(
        quanta != 0 ? run_ns / static_cast<double>(quanta) : 0.0);
    state.SetItemsProcessed(static_cast<int64_t>(quanta));
}

BENCHMARK(BM_FameBarrierRoundTrip)
    ->Args({8, 1})
    ->Args({8, 2})
    ->Args({8, 4})
    ->Args({8, 0})
    ->ArgNames({"parts", "threads"})
    ->UseRealTime()
    ->MeasureProcessCPUTime();

BENCHMARK(BM_FameFusedThroughput)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(0)
    ->ArgName("threads")
    ->UseRealTime()
    ->MeasureProcessCPUTime()
    ->Unit(benchmark::kMillisecond);

BENCHMARK(BM_SparseManyPartitions)
    ->Arg(64)
    ->Arg(1024)
    ->ArgName("parts")
    ->Unit(benchmark::kMillisecond);

BENCHMARK(BM_FameSkipRate)
    ->Arg(1)
    ->Arg(0)
    ->ArgName("threads")
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

} // namespace

// Custom main: console output plus a JSON trajectory entry appended to
// BENCH_fame.json, tracked across PRs like the engine/cluster files.
int
main(int argc, char **argv)
{
    return diablo::bench_json::runMain(argc, argv, "BENCH_fame.json");
}
