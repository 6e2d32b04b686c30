/**
 * @file
 * Microbenchmarks of the cross-process transport layer — the software
 * analog of DIABLO's inter-FPGA serial links (§3.2) — isolating the
 * three numbers that decide whether splitting an engine across
 * processes pays:
 *
 *  - BM_ShmRingRoundTrip: raw record round-trip time over a
 *    file-backed shared-memory ring pair (one ping-pong per iteration,
 *    so real_ns_per_iter IS the RTT), echo peer on a second thread.
 *  - BM_CoupledSyncRate: two coupled PartitionSets exchanging nothing
 *    but window-end publications (skipping off, empty partitions) — the
 *    pure synchronization cost of the coupled barrier; items/s = the
 *    leader side's publications sent and folded per second.
 *  - BM_CoupledIncastSeq / BM_CoupledIncastPair: the 4-rack incast
 *    model run whole on one engine vs split across two coupled copies
 *    on two threads.  items/s = simulated events per second (summed
 *    over owners for the pair), so pair/seq is the 2-process speedup
 *    bench_guard --mode transport floors on multi-core runners.
 *
 * Results append to BENCH_transport.json (bench/bench_json.hh).  Every
 * row carries cores/oversubscribed counters: on a 1-core host the two
 * sides timeshare one CPU and every wait is a context switch, so the
 * guard skips the timing floors there — explicitly, never silently.
 */

#include <benchmark/benchmark.h>

#include <unistd.h>

#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "apps/incast.hh"
#include "bench/bench_json.hh"
#include "fame/partition.hh"
#include "fame/transport.hh"
#include "sim/cluster.hh"

using namespace diablo;
using namespace diablo::time_literals;

namespace {

void
BM_ShmRingRoundTrip(benchmark::State &state)
{
    fame::ShmGroupLayout layout;
    layout.nprocs = 2;
    layout.ring_capacity = 1u << 16;
    const std::string path = "/tmp/diablo_bench_ring_" +
                             std::to_string(getpid()) + ".shm";
    std::remove(path.c_str());
    ShmSegment seg = ShmSegment::create(path, layout.totalBytes());
    fame::initGroupSegment(seg.data(), layout);
    auto ping = fame::groupTransport(seg.data(), layout, 0, 1);
    auto pong = fame::groupTransport(seg.data(), layout, 1, 0);
    seg.unlinkFile();

    constexpr uint64_t kStop = UINT64_MAX;
    std::thread echo([tr = pong.get()] {
        uint64_t rec = 0;
        while (true) {
            if (tr->tryRecv(&rec, sizeof(rec)) == sizeof(rec)) {
                if (rec == kStop) {
                    return;
                }
                while (!tr->trySend(&rec, sizeof(rec))) {
                }
                continue;
            }
            tr->waitForData(/*spin=*/2048, /*timeout_ns=*/1000 * 1000);
        }
    });

    uint64_t seqno = 0;
    for (auto _ : state) {
        const uint64_t sent = seqno++;
        while (!ping->trySend(&sent, sizeof(sent))) {
        }
        uint64_t got = 0;
        while (ping->tryRecv(&got, sizeof(got)) != sizeof(got)) {
            ping->waitForData(/*spin=*/2048, /*timeout_ns=*/1000 * 1000);
        }
        if (got != sent) {
            state.SkipWithError("echo mismatch");
            break;
        }
    }
    while (!ping->trySend(&kStop, sizeof(kStop))) {
    }
    echo.join();
    bench_json::annotate_multicore(state, 2);
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}

void
BM_CoupledSyncRate(benchmark::State &state)
{
    // 1 ms quantum over a 1 s horizon with empty partitions and
    // skipping off: 1000 barriers of pure slot exchange per run.
    uint64_t syncs = 0;
    for (auto _ : state) {
        state.PauseTiming();
        auto pair = fame::makeInProcTransportPair();
        fame::PartitionSet set_a(2);
        fame::PartitionSet set_b(2);
        for (fame::PartitionSet *ps : {&set_a, &set_b}) {
            ps->setSkipIdleQuanta(false);
            ps->partition(0).schedule(1_sec, [] {});
            ps->partition(1).schedule(1_sec, [] {});
        }
        fame::PartitionSet::CoupledOptions oa;
        oa.self_rank = 0;
        oa.owner_of = {0, 1};
        oa.peers = {{1u, pair.first.get()}};
        set_a.enableCoupled(oa);
        fame::PartitionSet::CoupledOptions ob;
        ob.self_rank = 1;
        ob.owner_of = {0, 1};
        ob.peers = {{0u, pair.second.get()}};
        set_b.enableCoupled(ob);
        state.ResumeTiming();

        bool ok_b = false;
        std::thread peer([&] { ok_b = set_b.runCoupled(1_sec); });
        const bool ok_a = set_a.runCoupled(1_sec);
        peer.join();
        if (!ok_a || !ok_b) {
            state.SkipWithError("coupled run abandoned");
            break;
        }
        syncs += set_a.coupledStats().sync_sent +
                 set_a.coupledStats().sync_recv;
    }
    bench_json::annotate_multicore(state, 2);
    state.SetItemsProcessed(static_cast<int64_t>(syncs));
}

sim::ClusterParams
fourRackParams()
{
    sim::ClusterParams p = sim::ClusterParams::gige1us();
    p.topo.servers_per_rack = 3;
    p.topo.racks_per_array = 4;
    p.topo.num_arrays = 1;
    return p;
}

/** One process's copy of the benchmark incast model. */
struct ModelCopy {
    ModelCopy()
        : params(fourRackParams()),
          ps(sim::Cluster::partitionsRequired(params)),
          cluster(ps, params)
    {
        apps::IncastParams ip;
        ip.block_bytes = 32 * 1024;
        ip.iterations = 3;
        ip.warmup_iterations = 1;
        std::vector<net::NodeId> servers;
        for (net::NodeId n = 3; n < cluster.size(); ++n) {
            servers.push_back(n);
        }
        app = std::make_unique<apps::IncastApp>(cluster, ip,
                                                /*client=*/0, servers);
        app->install();
    }

    sim::ClusterParams params;
    fame::PartitionSet ps;
    sim::Cluster cluster;
    std::unique_ptr<apps::IncastApp> app;
};

void
BM_CoupledIncastSeq(benchmark::State &state)
{
    uint64_t events = 0;
    for (auto _ : state) {
        state.PauseTiming();
        auto m = std::make_unique<ModelCopy>();
        state.ResumeTiming();
        m->ps.runSequential(10_sec);
        events += m->ps.lastRunTotalExecutedEvents();
    }
    bench_json::annotate_multicore(state, 1);
    state.SetItemsProcessed(static_cast<int64_t>(events));
}

void
BM_CoupledIncastPair(benchmark::State &state)
{
    uint64_t events = 0;
    for (auto _ : state) {
        state.PauseTiming();
        auto a = std::make_unique<ModelCopy>();
        auto b = std::make_unique<ModelCopy>();
        const std::vector<uint32_t> owner =
            fame::PartitionSet::lptAssign(a->ps.partitionWeights(), 2);
        auto pair = fame::makeInProcTransportPair();
        fame::PartitionSet::CoupledOptions oa;
        oa.self_rank = 0;
        oa.owner_of = owner;
        oa.peers = {{1u, pair.first.get()}};
        a->cluster.enableProcessCoupling(oa);
        fame::PartitionSet::CoupledOptions ob;
        ob.self_rank = 1;
        ob.owner_of = owner;
        ob.peers = {{0u, pair.second.get()}};
        b->cluster.enableProcessCoupling(ob);
        state.ResumeTiming();

        bool ok_b = false;
        std::thread peer([&] { ok_b = b->ps.runCoupled(10_sec); });
        const bool ok_a = a->ps.runCoupled(10_sec);
        peer.join();
        if (!ok_a || !ok_b) {
            state.SkipWithError("coupled run abandoned");
            break;
        }
        // Each side executed only its owned partitions; the sum is the
        // whole model, comparable to the sequential row.
        events += a->ps.lastRunTotalExecutedEvents() +
                  b->ps.lastRunTotalExecutedEvents();
    }
    bench_json::annotate_multicore(state, 2);
    state.SetItemsProcessed(static_cast<int64_t>(events));
}

BENCHMARK(BM_ShmRingRoundTrip)->UseRealTime();

BENCHMARK(BM_CoupledSyncRate)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

BENCHMARK(BM_CoupledIncastSeq)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

BENCHMARK(BM_CoupledIncastPair)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

} // namespace

// Console output plus a trajectory entry in BENCH_transport.json, like
// the engine/cluster/packet benchmark files.
int
main(int argc, char **argv)
{
    return diablo::bench_json::runMain(argc, argv, "BENCH_transport.json");
}
