#include <gtest/gtest.h>

#include "switchm/packet_switch.hh"
#include "switchm/switch_test_util.hh"

namespace diablo {
namespace switchm {
namespace {

using namespace diablo::time_literals;
using test::SwitchHarness;
using test::routedPacket;

SwitchParams
baselineParams()
{
    SwitchParams p;
    p.name = "oq";
    p.num_ports = 4;
    p.port_bw = Bandwidth::gbps(1);
    p.port_latency = 1_us;
    p.cut_through = true; // must be ignored: OQ is store-and-forward
    p.buffer_policy = BufferPolicy::Partitioned;
    p.buffer_per_port_bytes = 4096;
    return p;
}

TEST(OutputQueueSwitch, AlwaysStoreAndForward)
{
    Simulator sim;
    SwitchHarness<PacketSwitch> h(sim, baselineParams(), Bandwidth::gbps(1),
                                  0_ns, SwitchModelKind::OutputQueue);

    auto p = routedPacket(1, 1462);
    const uint32_t wire = p->wireBytes();
    sim.schedule(0_ns, [&h, &p] { h.in_links[0]->transmit(std::move(p)); });
    sim.run();

    ASSERT_EQ(h.sinks[1]->arrivals.size(), 1u);
    SimTime ser = Bandwidth::gbps(1).transferTime(wire);
    // Cut-through is requested but the OQ baseline ignores it.
    EXPECT_EQ(h.sinks[1]->arrivals[0].first, ser + 1_us + ser);
}

TEST(OutputQueueSwitch, FifoArrivalOrderNotRoundRobin)
{
    Simulator sim;
    SwitchParams params = baselineParams();
    params.port_latency = 0_ns;
    params.buffer_per_port_bytes = 1 << 20;
    SwitchHarness<PacketSwitch> h(sim, params, Bandwidth::gbps(10), 0_ns,
                                  SwitchModelKind::OutputQueue);

    // Input 0 injects three packets, then input 1 injects three; FIFO
    // keeps arrival order (no interleaving).
    sim.schedule(0_ns, [&h] {
        for (int k = 0; k < 3; ++k) {
            auto a = routedPacket(3, 1000);
            a->flow.src = 100;
            h.sw.inPort(0).receive(std::move(a));
        }
        for (int k = 0; k < 3; ++k) {
            auto b = routedPacket(3, 1000);
            b->flow.src = 200;
            h.sw.inPort(1).receive(std::move(b));
        }
    });
    sim.run();

    ASSERT_EQ(h.sinks[3]->arrivals.size(), 6u);
    std::vector<net::NodeId> srcs;
    for (auto &[t, pkt] : h.sinks[3]->arrivals) {
        srcs.push_back(pkt->flow.src);
    }
    EXPECT_EQ(srcs, (std::vector<net::NodeId>{100, 100, 100, 200, 200,
                                              200}));
}

TEST(OutputQueueSwitch, DropTailOnFullQueue)
{
    Simulator sim;
    SwitchParams params = baselineParams();
    params.port_latency = 0_ns;
    SwitchHarness<PacketSwitch> h(sim, params, Bandwidth::gbps(1), 0_ns,
                                  SwitchModelKind::OutputQueue);

    sim.schedule(0_ns, [&h] {
        for (int k = 0; k < 6; ++k) {
            h.sw.inPort(0).receive(routedPacket(1, 1462));
        }
    });
    sim.run();

    EXPECT_EQ(h.sw.stats().forwarded_pkts, 2u);
    EXPECT_EQ(h.sw.stats().dropped_pkts, 4u);
}

// The disciplines differ in which port pays for a packet: three frames
// from each of two inputs to one output fill the output's one 4 KB
// budget on the output queue (2 of 6 forwarded), one budget per input
// on VOQ (4 of 6).
TEST(OutputQueueSwitch, BufferChargedToOutputPort)
{
    for (SwitchModelKind kind :
         {SwitchModelKind::OutputQueue, SwitchModelKind::Voq}) {
        Simulator sim;
        SwitchParams params = baselineParams();
        params.port_latency = 0_ns;
        SwitchHarness<PacketSwitch> h(sim, params, Bandwidth::gbps(1), 0_ns,
                                      kind);
        sim.schedule(0_ns, [&h] {
            for (uint32_t in : {0u, 2u}) {
                for (int k = 0; k < 3; ++k) {
                    h.sw.inPort(in).receive(routedPacket(1, 1462));
                }
            }
        });
        sim.run();
        const uint64_t fits = kind == SwitchModelKind::Voq ? 4 : 2;
        EXPECT_EQ(h.sw.stats().forwarded_pkts, fits);
        EXPECT_EQ(h.sw.stats().dropped_pkts, 6 - fits);
    }
}

} // namespace
} // namespace switchm
} // namespace diablo
