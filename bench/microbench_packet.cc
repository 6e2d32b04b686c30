/**
 * @file
 * Packet-datapath microbenchmark: the allocation-free traversal claim,
 * measured.
 *
 * DIABLO's FPGA datapath moves packets through fixed BRAM rings with no
 * dynamic memory at all (§4.2-4.3); the software analog is the
 * partition-local PacketPool plus inline source routes plus ring-buffer
 * queues.  This harness drives pooled packets around the full model
 * loop — NIC tx ring -> link -> VOQ switch -> link -> NIC rx ring ->
 * recycle — and hooks global operator new/delete so every benchmark
 * reports `allocs_per_packet` alongside packets/s.  Steady state must
 * be exactly 0 allocations per packet; tools/bench_guard.py fails the
 * build if it is not.
 *
 * Results append to BENCH_packet.json (see bench/bench_json.hh).
 */

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "bench/bench_json.hh"
#include "core/simulator.hh"
#include "net/link.hh"
#include "net/packet.hh"
#include "nic/nic_model.hh"
#include "switchm/packet_switch.hh"

using namespace diablo;
using namespace diablo::time_literals;

// ---------------------------------------------------------------------
// Global allocation hook.  Counts every operator new in the process —
// including google-benchmark's own — which is exactly the point: if the
// measured region stays at zero, nothing anywhere allocated.
// ---------------------------------------------------------------------

namespace {
std::atomic<uint64_t> g_allocs{0};
} // namespace

void *
operator new(std::size_t n)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1)) {
        return p;
    }
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1)) {
        return p;
    }
    throw std::bad_alloc();
}

// GCC pairs the replaced deletes with its builtin operator new and
// warns about malloc/free mismatch; the replacement news above really
// do malloc, so the pairing is correct.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

#pragma GCC diagnostic pop

namespace {

// ---------------------------------------------------------------------
// Pool cycle: the tightest loop — make, touch, recycle.
// ---------------------------------------------------------------------

void
BM_PacketPoolCycle(benchmark::State &state)
{
    Simulator sim;
    // Warm the pool (first make heap-allocates the slab).
    { auto warm = net::makePacket(sim); }

    const uint64_t before = g_allocs.load(std::memory_order_relaxed);
    uint64_t pkts = 0;
    for (auto _ : state) {
        auto p = net::makePacket(sim);
        p->flow.proto = net::Proto::Udp;
        p->payload_bytes = 1460;
        p->route = net::SourceRoute({1, 2, 3, 4, 5});
        benchmark::DoNotOptimize(p->l3Bytes());
        ++pkts;
    }
    const uint64_t allocs =
        g_allocs.load(std::memory_order_relaxed) - before;

    state.SetItemsProcessed(static_cast<int64_t>(pkts));
    state.counters["items_per_second"] = benchmark::Counter(
        static_cast<double>(pkts), benchmark::Counter::kIsRate);
    state.counters["allocs_per_packet"] =
        pkts ? static_cast<double>(allocs) / static_cast<double>(pkts)
             : 0.0;
}
BENCHMARK(BM_PacketPoolCycle);

// ---------------------------------------------------------------------
// Full datapath: NIC -> link -> VOQ switch -> link -> NIC -> recycle.
// ---------------------------------------------------------------------

/** One server NIC feeding port 0 of a 2-port switch; port 1 returns to
 *  a receiving NIC.  No kernel attached: the harness is the driver. */
struct Datapath {
    Simulator sim;
    nic::NicModel tx_nic;
    nic::NicModel rx_nic;
    switchm::PacketSwitch sw;
    net::Link up;    ///< tx NIC -> switch port 0
    net::Link down;  ///< switch port 1 -> rx NIC

    static switchm::SwitchParams
    swParams()
    {
        switchm::SwitchParams p;
        p.name = "bench-sw";
        p.num_ports = 2;
        p.port_bw = Bandwidth::gbps(10);
        p.port_latency = 100_ns;
        // Deep buffers: this benchmark measures traversal cost, not
        // congestion behavior, so nothing should drop.
        p.buffer_per_port_bytes = 1 << 20;
        return p;
    }

    Datapath()
        : tx_nic(sim, "tx", nic::NicParams{}),
          rx_nic(sim, "rx", nic::NicParams{}), sw(sim, swParams()),
          up(sim, "up", Bandwidth::gbps(10), 1_us),
          down(sim, "down", Bandwidth::gbps(10), 1_us)
    {
        up.connectTo(sw.inPort(0));
        tx_nic.attachTxLink(up);
        down.connectTo(rx_nic);
        sw.attachOutLink(1, down);
    }

    uint64_t generated = 0;
    uint64_t drained = 0;

    /** Top up the tx ring and drain/recycle the rx ring. */
    void
    pump()
    {
        while (auto p = rx_nic.rxDequeue()) {
            ++drained;
            // p dies here -> recycles to the pool that made it.
        }
        while (!tx_nic.txRingFull()) {
            auto p = net::makePacket(sim);
            p->flow.proto = net::Proto::Udp;
            p->payload_bytes = 1460;
            p->route = net::SourceRoute({1});
            ++generated;
            tx_nic.txEnqueue(std::move(p));
        }
        sim.schedule(20_us, [this] { pump(); });
    }

    /** Run until @p target packets have completed the loop. */
    void
    runUntilDrained(uint64_t target)
    {
        SimTime t = sim.now();
        while (drained < target) {
            t = t + 1_ms;
            sim.runUntil(t);
        }
    }
};

void
BM_PacketDatapath(benchmark::State &state)
{
    Datapath d;
    d.pump();
    d.runUntilDrained(4096); // warm every ring, pool and event slab

    const uint64_t before_allocs =
        g_allocs.load(std::memory_order_relaxed);
    const uint64_t before_drained = d.drained;
    for (auto _ : state) {
        d.runUntilDrained(d.drained + 1024);
    }
    const uint64_t pkts = d.drained - before_drained;
    const uint64_t allocs =
        g_allocs.load(std::memory_order_relaxed) - before_allocs;

    if (const net::PacketPool *pool = net::packetPoolIfAttached(d.sim)) {
        state.counters["pool_heap_allocs"] =
            static_cast<double>(pool->heapAllocs());
        state.counters["pool_high_water"] =
            static_cast<double>(pool->highWater());
    }
    state.SetItemsProcessed(static_cast<int64_t>(pkts));
    state.counters["items_per_second"] = benchmark::Counter(
        static_cast<double>(pkts), benchmark::Counter::kIsRate);
    state.counters["allocs_per_packet"] =
        pkts ? static_cast<double>(allocs) / static_cast<double>(pkts)
             : 0.0;
}
BENCHMARK(BM_PacketDatapath);

} // namespace

// Custom main: console output plus a JSON trajectory entry appended to
// BENCH_packet.json so the allocation guarantee is machine-checkable.
int
main(int argc, char **argv)
{
    return diablo::bench_json::runMain(argc, argv, "BENCH_packet.json");
}
