#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "switchm/packet_switch.hh"
#include "switchm/switch_test_util.hh"

namespace diablo {
namespace switchm {
namespace {

using namespace diablo::time_literals;
using test::CollectSink;
using test::SwitchHarness;
using test::routedPacket;

SwitchParams
gigeParams(uint32_t ports = 4)
{
    SwitchParams p;
    p.name = "tor";
    p.num_ports = ports;
    p.port_bw = Bandwidth::gbps(1);
    p.port_latency = 1_us;
    p.cut_through = true;
    p.buffer_policy = BufferPolicy::Partitioned;
    p.buffer_per_port_bytes = 4096;
    return p;
}

TEST(VoqSwitch, CutThroughForwardingLatency)
{
    Simulator sim;
    SwitchHarness<PacketSwitch> h(sim, gigeParams(), Bandwidth::gbps(1), 0_ns);

    auto p = routedPacket(1, 1462);
    const uint32_t wire = p->wireBytes(); // 1529 (route header adds 1)
    sim.schedule(0_ns, [&h, &p] { h.in_links[0]->transmit(std::move(p)); });
    sim.run();

    ASSERT_EQ(h.sinks[1]->arrivals.size(), 1u);
    // Early delivery at header time (72 B), forwarding latency 1 us,
    // then full egress serialization.
    SimTime header = Bandwidth::gbps(1).transferTime(72);
    SimTime ser = Bandwidth::gbps(1).transferTime(wire);
    EXPECT_EQ(h.sinks[1]->arrivals[0].first, header + 1_us + ser);
    EXPECT_EQ(h.sinks[1]->arrivals[0].second->hop_count, 1u);
    EXPECT_TRUE(h.sinks[1]->arrivals[0].second->route.exhausted());
}

TEST(VoqSwitch, StoreAndForwardLatency)
{
    Simulator sim;
    SwitchParams params = gigeParams();
    params.cut_through = false;
    SwitchHarness<PacketSwitch> h(sim, params, Bandwidth::gbps(1), 0_ns);

    auto p = routedPacket(1, 1462);
    const uint32_t wire = p->wireBytes();
    sim.schedule(0_ns, [&h, &p] { h.in_links[0]->transmit(std::move(p)); });
    sim.run();

    ASSERT_EQ(h.sinks[1]->arrivals.size(), 1u);
    SimTime ser = Bandwidth::gbps(1).transferTime(wire);
    // Full receive, then latency, then egress serialization.
    EXPECT_EQ(h.sinks[1]->arrivals[0].first, ser + 1_us + ser);
}

TEST(VoqSwitch, CutThroughNeverOutrunsIngressBits)
{
    // Ingress at 1 Gbps feeding an egress at 10 Gbps: the egress must not
    // finish before the ingress last bit has arrived.
    Simulator sim;
    SwitchParams params = gigeParams();
    params.port_bw = Bandwidth::gbps(10);
    params.port_latency = 100_ns;
    SwitchHarness<PacketSwitch> h(sim, params, Bandwidth::gbps(1), 0_ns);

    auto p = routedPacket(1, 1462);
    const uint32_t wire = p->wireBytes();
    sim.schedule(0_ns, [&h, &p] { h.in_links[0]->transmit(std::move(p)); });
    sim.run();

    ASSERT_EQ(h.sinks[1]->arrivals.size(), 1u);
    SimTime ingress_last = Bandwidth::gbps(1).transferTime(wire);
    EXPECT_GE(h.sinks[1]->arrivals[0].first, ingress_last);
}

/** Inputs feeding one output, and the order their frames depart in. */
struct RoundRobinCase {
    const char *name;
    uint32_t ports;
    uint32_t out;
    /** Injection order within each of the three rounds. */
    std::vector<uint32_t> inputs;
    /** Source input of each departure. */
    std::vector<uint32_t> departures;
};

class VoqRoundRobin : public testing::TestWithParam<RoundRobinCase> {};

TEST_P(VoqRoundRobin, AcrossInputs)
{
    const RoundRobinCase &c = GetParam();
    Simulator sim;
    SwitchParams params = gigeParams(c.ports);
    params.cut_through = false;
    params.port_latency = 0_ns;
    params.buffer_per_port_bytes = 1 << 20; // no drops
    SwitchHarness<PacketSwitch> h(sim, params, Bandwidth::gbps(10), 0_ns);

    // Three packets from each input, all to one output, injected at
    // once.  The first departs at once; the rest queue behind it and
    // leave in round-robin order from one past its input.
    sim.schedule(0_ns, [&h, &c] {
        for (int k = 0; k < 3; ++k) {
            for (uint32_t in : c.inputs) {
                auto p = routedPacket(c.out, 1000);
                p->flow.src = in; // tag by source for checking
                h.sw.inPort(in).receive(std::move(p));
            }
        }
    });
    sim.run();

    std::vector<uint32_t> srcs;
    for (auto &[t, pkt] : h.sinks[c.out]->arrivals) {
        srcs.push_back(pkt->flow.src);
    }
    EXPECT_EQ(srcs, c.departures);
}

INSTANTIATE_TEST_SUITE_P(
    Ports, VoqRoundRobin,
    testing::Values(
        // Round robin alternates sources.
        RoundRobinCase{"four_ports", 4, 3, {0, 1}, {0, 1, 0, 1, 0, 1}},
        // Three 64-bit words of queues.  Input 129 is injected first,
        // so it departs first and every later scan wraps past the last
        // port to input 1 and crosses the 63/64 word boundary.
        RoundRobinCase{"wide_130_ports",
                       130,
                       0,
                       {129, 1, 63, 64},
                       {129, 1, 63, 64, 129, 1, 63, 64, 129, 1, 63, 64}}),
    [](const testing::TestParamInfo<RoundRobinCase> &info) {
        return std::string(info.param.name);
    });

TEST(VoqSwitch, ShallowBufferTailDrop)
{
    Simulator sim;
    SwitchParams params = gigeParams();
    params.port_latency = 0_ns;
    SwitchHarness<PacketSwitch> h(sim, params, Bandwidth::gbps(1), 0_ns);

    // Inject 6 full frames directly at t=0; buffer charge per frame is
    // l3 (1462+8+20+1=1491) + 18 = 1509 bytes; 4096-byte budget holds
    // two frames.
    sim.schedule(0_ns, [&h] {
        for (int k = 0; k < 6; ++k) {
            h.sw.inPort(0).receive(routedPacket(1, 1462));
        }
    });
    sim.run();

    EXPECT_EQ(h.sw.stats().forwarded_pkts, 2u);
    EXPECT_EQ(h.sw.stats().dropped_pkts, 4u);
    EXPECT_EQ(h.sw.dropsAt(1), 4u);
    EXPECT_EQ(h.sinks[1]->arrivals.size(), 2u);
}

TEST(VoqSwitch, BufferFreedAfterTransmit)
{
    Simulator sim;
    SwitchParams params = gigeParams();
    params.port_latency = 0_ns;
    SwitchHarness<PacketSwitch> h(sim, params, Bandwidth::gbps(1), 0_ns);

    // Two packets fit; after they drain, two more fit.
    sim.schedule(0_ns, [&h] {
        h.sw.inPort(0).receive(routedPacket(1, 1462));
        h.sw.inPort(0).receive(routedPacket(1, 1462));
    });
    sim.schedule(1_ms, [&h] {
        h.sw.inPort(0).receive(routedPacket(1, 1462));
        h.sw.inPort(0).receive(routedPacket(1, 1462));
    });
    sim.run();
    EXPECT_EQ(h.sw.stats().forwarded_pkts, 4u);
    EXPECT_EQ(h.sw.stats().dropped_pkts, 0u);
    EXPECT_EQ(h.sw.bufferUsed(), 0u);
}

TEST(VoqSwitch, DownedOutputLinkDrainsIntoDrops)
{
    Simulator sim;
    SwitchParams params = gigeParams();
    params.buffer_per_port_bytes = 1 << 20; // no tail drops
    SwitchHarness<PacketSwitch> h(sim, params, Bandwidth::gbps(1), 0_ns);
    net::Link &out = *h.out_links[1];
    out.setUp(false);

    // Three frames queue for the forwarding latency, then drain one per
    // completion event onto the cut cable, each freeing its buffer.
    sim.schedule(0_ns, [&h] {
        for (int k = 0; k < 3; ++k) {
            h.sw.inPort(0).receive(routedPacket(1, 1462));
        }
    });
    sim.run();
    EXPECT_EQ(out.downDrops(), 3u);
    EXPECT_EQ(h.sw.stats().forwarded_pkts, 3u);
    EXPECT_EQ(h.sw.stats().dropped_pkts, 0u);
    EXPECT_TRUE(h.sinks[1]->arrivals.empty());
    EXPECT_EQ(h.sw.bufferUsed(), 0u);

    out.setUp(true);
    sim.schedule(0_ns, [&h] {
        h.sw.inPort(0).receive(routedPacket(1, 1462));
    });
    sim.run();
    EXPECT_EQ(out.downDrops(), 3u);
    EXPECT_EQ(h.sw.stats().forwarded_pkts, 4u);
    EXPECT_EQ(h.sinks[1]->arrivals.size(), 1u);
    EXPECT_EQ(h.sw.bufferUsed(), 0u);
}

TEST(VoqSwitch, DistinctOutputsDontInterfere)
{
    Simulator sim;
    SwitchParams params = gigeParams();
    params.port_latency = 0_ns;
    SwitchHarness<PacketSwitch> h(sim, params, Bandwidth::gbps(1), 0_ns);

    sim.schedule(0_ns, [&h] {
        h.sw.inPort(0).receive(routedPacket(1, 1000));
        h.sw.inPort(0).receive(routedPacket(2, 1000));
        h.sw.inPort(0).receive(routedPacket(3, 1000));
    });
    sim.run();

    // All three depart in parallel on separate egress links.
    ASSERT_EQ(h.sinks[1]->arrivals.size(), 1u);
    ASSERT_EQ(h.sinks[2]->arrivals.size(), 1u);
    ASSERT_EQ(h.sinks[3]->arrivals.size(), 1u);
    EXPECT_EQ(h.sinks[1]->arrivals[0].first, h.sinks[2]->arrivals[0].first);
    EXPECT_EQ(h.sinks[1]->arrivals[0].first, h.sinks[3]->arrivals[0].first);
}

TEST(VoqSwitch, MultiHopRoute)
{
    Simulator sim;
    SwitchParams params = gigeParams();
    params.port_latency = 1_us;

    // Two switches chained: sw1 port 2 egress feeds sw2 port 0 ingress.
    SwitchHarness<PacketSwitch> h1(sim, params, Bandwidth::gbps(1), 0_ns);
    SwitchHarness<PacketSwitch> h2(sim, params, Bandwidth::gbps(1), 0_ns);
    h1.out_links[2]->connectTo(h2.sw.inPort(0));

    auto p = routedPacket(0, 500); // route rewritten below
    p->route = net::SourceRoute({2, 3});
    sim.schedule(0_ns, [&h1, &p] {
        h1.in_links[0]->transmit(std::move(p));
    });
    sim.run();

    ASSERT_EQ(h2.sinks[3]->arrivals.size(), 1u);
    EXPECT_EQ(h2.sinks[3]->arrivals[0].second->hop_count, 2u);
    EXPECT_EQ(h1.sw.stats().forwarded_pkts, 1u);
    EXPECT_EQ(h2.sw.stats().forwarded_pkts, 1u);
}

TEST(VoqSwitch, PanicsOnExhaustedRoute)
{
    Simulator sim;
    SwitchHarness<PacketSwitch> h(sim, gigeParams(), Bandwidth::gbps(1), 0_ns);

    auto p = net::makePacket();
    p->flow.proto = net::Proto::Udp;
    p->payload_bytes = 10; // no route hops at all
    sim.schedule(0_ns, [&h, &p] {
        h.sw.inPort(0).receive(std::move(p));
    });
    EXPECT_DEATH(sim.run(), "exhausted route");
}

} // namespace
} // namespace switchm
} // namespace diablo
