/**
 * @file
 * google-benchmark microbenchmarks of the simulation engine itself:
 * event queue throughput, coroutine wakeup cost, RNG and statistics
 * primitives, and the switch forwarding fast path.  These bound the
 * software engine's achievable event rate (the quantity DIABLO's FPGA
 * acceleration improves by two orders of magnitude).
 */

#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench/bench_json.hh"
#include "core/random.hh"
#include "core/simulator.hh"
#include "core/stats.hh"
#include "fame/partition.hh"
#include "net/link.hh"
#include "switchm/packet_switch.hh"

using namespace diablo;
using namespace diablo::time_literals;

namespace {

void
BM_EventScheduleExecute(benchmark::State &state)
{
    Simulator sim;
    int64_t n = 0;
    for (auto _ : state) {
        sim.schedule(1_ns, [&n] { ++n; });
        sim.run();
    }
    benchmark::DoNotOptimize(n);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventScheduleExecute);

void
BM_EventQueueDepth(benchmark::State &state)
{
    const int depth = static_cast<int>(state.range(0));
    for (auto _ : state) {
        Simulator sim;
        int64_t n = 0;
        for (int i = 0; i < depth; ++i) {
            sim.schedule(SimTime::ns(i % 97), [&n] { ++n; });
        }
        sim.run();
        benchmark::DoNotOptimize(n);
    }
    state.SetItemsProcessed(state.iterations() * depth);
}
BENCHMARK(BM_EventQueueDepth)->Arg(1024)->Arg(65536)->Arg(262144);

void
BM_EventCancelHeavy(benchmark::State &state)
{
    // Cancellation-heavy churn: schedule a batch, cancel every other
    // event, run the rest.  Exercises the tombstone path (cancel is
    // O(1); the heap prunes lazily at pop time).
    const int depth = static_cast<int>(state.range(0));
    std::vector<EventId> ids;
    ids.reserve(static_cast<size_t>(depth));
    for (auto _ : state) {
        Simulator sim;
        int64_t n = 0;
        ids.clear();
        for (int i = 0; i < depth; ++i) {
            ids.push_back(sim.schedule(SimTime::ns(i % 251 + 1),
                                       [&n] { ++n; }));
        }
        for (int i = 0; i < depth; i += 2) {
            sim.cancel(ids[static_cast<size_t>(i)]);
        }
        sim.run();
        benchmark::DoNotOptimize(n);
    }
    state.SetItemsProcessed(state.iterations() * depth);
}
BENCHMARK(BM_EventCancelHeavy)->Arg(4096);

Task<>
sleeperLoop(Simulator &sim, int rounds)
{
    for (int i = 0; i < rounds; ++i) {
        co_await sim.sleep(1_ns);
    }
}

void
BM_CoroutineSleepWake(benchmark::State &state)
{
    for (auto _ : state) {
        Simulator sim;
        sim.spawn(sleeperLoop(sim, 1000));
        sim.run();
    }
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_CoroutineSleepWake);

/**
 * Sparse cross-partition ping-pong: one message per millisecond through
 * channels with 1 us lookahead.  Without quantum skipping the barrier
 * scheduler spins ~1000 empty quanta per hop; with it, one per hop.
 */
struct PingPong {
    explicit PingPong(fame::PartitionSet &ps) : ps(ps)
    {
        c01 = &ps.makeChannel(0, 1, 1_us);
        c10 = &ps.makeChannel(1, 0, 1_us);
    }

    void
    onToken(size_t part, int remaining)
    {
        ++hops;
        if (remaining <= 0) {
            return;
        }
        Simulator &sim = ps.partition(part);
        auto *ch = part == 0 ? c01 : c10;
        const size_t dst = 1 - part;
        ch->post(sim.now() + 1_ms, [this, dst, remaining] {
            onToken(dst, remaining - 1);
        });
    }

    fame::PartitionSet &ps;
    fame::PartitionSet::Channel *c01;
    fame::PartitionSet::Channel *c10;
    uint64_t hops = 0;
};

void
BM_PartitionIdleQuanta(benchmark::State &state)
{
    const bool skip = state.range(0) != 0;
    const int kHops = 50;
    uint64_t quanta = 0;
    for (auto _ : state) {
        fame::PartitionSet ps(2);
        PingPong pp(ps);
        ps.setSkipIdleQuanta(skip);
        ps.partition(0).schedule(SimTime(), [&pp] { pp.onToken(0, kHops); });
        ps.runSequential(SimTime::ms(kHops + 2));
        quanta = ps.quantaExecuted();
        benchmark::DoNotOptimize(pp.hops);
    }
    state.counters["quanta"] =
        benchmark::Counter(static_cast<double>(quanta));
    state.SetItemsProcessed(state.iterations() * (kHops + 1));
}
BENCHMARK(BM_PartitionIdleQuanta)
    ->Arg(0)
    ->Arg(1)
    ->ArgNames({"skip"})
    ->Unit(benchmark::kMicrosecond);

void
BM_RngUniform(benchmark::State &state)
{
    Rng rng(42);
    double acc = 0;
    for (auto _ : state) {
        acc += rng.uniform();
    }
    benchmark::DoNotOptimize(acc);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngUniform);

void
BM_GeneralizedPareto(benchmark::State &state)
{
    Rng rng(42);
    double acc = 0;
    for (auto _ : state) {
        acc += rng.generalizedPareto(0, 214.476, 0.348238);
    }
    benchmark::DoNotOptimize(acc);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GeneralizedPareto);

void
BM_SampleSetPercentile(benchmark::State &state)
{
    SampleSet s;
    Rng rng(7);
    for (int i = 0; i < 100000; ++i) {
        s.record(rng.exponential(100));
    }
    for (auto _ : state) {
        // Insert invalidates the sort cache; this measures the
        // sort + interpolate cost benches pay once per run.
        s.record(1.0);
        benchmark::DoNotOptimize(s.percentile(99));
    }
}
BENCHMARK(BM_SampleSetPercentile);

void
BM_SwitchForwarding(benchmark::State &state)
{
    Simulator sim;
    switchm::SwitchParams params;
    params.num_ports = 16;
    params.buffer_per_port_bytes = 1 << 20;
    params.port_latency = 1_us;
    switchm::PacketSwitch sw(sim, params);

    struct NullSink : net::PacketSink {
        void receive(net::PacketPtr) override {}
    } sink;
    std::vector<std::unique_ptr<net::Link>> links;
    for (uint32_t i = 0; i < 16; ++i) {
        links.push_back(std::make_unique<net::Link>(
            sim, "out", Bandwidth::gbps(10), 0_ns));
        links.back()->connectTo(sink);
        sw.attachOutLink(i, *links.back());
    }

    uint64_t pkts = 0;
    for (auto _ : state) {
        auto p = net::makePacket();
        p->flow.proto = net::Proto::Udp;
        p->payload_bytes = 1400;
        p->route = net::SourceRoute(
            {static_cast<uint16_t>(pkts % 16)});
        p->last_bit = sim.now();
        sw.inPort(static_cast<uint32_t>(pkts % 16))
            .receive(std::move(p));
        sim.run();
        ++pkts;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SwitchForwarding);

} // namespace

// Custom main: console output as usual, plus a JSON trajectory entry
// appended to BENCH_engine.json (see bench/bench_json.hh) so engine
// throughput is tracked across PRs.
int
main(int argc, char **argv)
{
    return diablo::bench_json::runMain(argc, argv, "BENCH_engine.json");
}
