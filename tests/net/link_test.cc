#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "net/link.hh"

namespace diablo {
namespace net {
namespace {

using namespace diablo::time_literals;

class CollectSink : public PacketSink {
  public:
    explicit CollectSink(Simulator &sim) : sim_(sim) {}

    void
    receive(PacketPtr p) override
    {
        arrivals.emplace_back(sim_.now(), std::move(p));
    }

    std::vector<std::pair<SimTime, PacketPtr>> arrivals;

  private:
    Simulator &sim_;
};

PacketPtr
udpPacket(uint32_t payload)
{
    auto p = makePacket();
    p->flow.proto = Proto::Udp;
    p->payload_bytes = payload;
    return p;
}

TEST(Link, DeliversAfterSerializationAndPropagation)
{
    Simulator sim;
    CollectSink sink(sim);
    Link link(sim, "l0", Bandwidth::gbps(1), 1_us);
    link.connectTo(sink);

    auto p = udpPacket(1462); // 1462+8+20 = 1490 L3, 1528 wire bytes
    const uint32_t wire = p->wireBytes();
    sim.schedule(0_ns, [&, wire] {
        (void)wire;
    });
    sim.run();

    sim.schedule(0_ns, [&] { link.transmit(std::move(p)); });
    sim.run();

    ASSERT_EQ(sink.arrivals.size(), 1u);
    // 1528 B at 1 Gbps = 12.224 us serialization + 1 us propagation.
    SimTime expect = Bandwidth::gbps(1).transferTime(wire) + 1_us;
    EXPECT_EQ(sink.arrivals[0].first, expect);
    EXPECT_EQ(sink.arrivals[0].second->first_bit, 1_us);
    EXPECT_EQ(sink.arrivals[0].second->last_bit, expect);
}

TEST(Link, BusyDuringSerialization)
{
    Simulator sim;
    CollectSink sink(sim);
    Link link(sim, "l0", Bandwidth::gbps(1), 0_ns);
    link.connectTo(sink);

    sim.schedule(0_ns, [&] {
        link.transmit(udpPacket(1000));
        EXPECT_TRUE(link.busy());
    });
    sim.run();
    EXPECT_FALSE(link.busy());
    EXPECT_EQ(sink.arrivals.size(), 1u);
}

TEST(Link, TransmitReturnsSerializationEnd)
{
    Simulator sim;
    CollectSink sink(sim);
    Link link(sim, "l0", Bandwidth::gbps(10), 5_us);
    link.connectTo(sink);

    SimTime done_at;
    PacketPtr p = udpPacket(472); // 472+28 = 500 L3 -> 538 wire bytes
    SimTime expect_ser = Bandwidth::gbps(10).transferTime(538);
    sim.schedule(0_ns, [&] { done_at = link.transmit(std::move(p)); });
    sim.run();

    EXPECT_EQ(done_at, expect_ser);
    // Delivery still happens 5 us after serialization completes.
    ASSERT_EQ(sink.arrivals.size(), 1u);
    EXPECT_EQ(sink.arrivals[0].first, expect_ser + 5_us);
}

TEST(Link, BackToBackTransmissions)
{
    Simulator sim;
    CollectSink sink(sim);
    Link link(sim, "l0", Bandwidth::mbps(100), 0_ns);
    link.connectTo(sink);

    int sent = 0;
    std::function<void()> sendNext = [&] {
        if (sent < 3) {
            ++sent;
            // 1000 L3 -> 1038 wire bytes; re-send when the line frees.
            sim.scheduleAt(link.transmit(udpPacket(972)), sendNext);
        }
    };
    sim.schedule(0_ns, sendNext);
    sim.run();

    ASSERT_EQ(sink.arrivals.size(), 3u);
    SimTime per = Bandwidth::mbps(100).transferTime(1038);
    EXPECT_EQ(sink.arrivals[0].first, per);
    EXPECT_EQ(sink.arrivals[1].first, per * 2);
    EXPECT_EQ(sink.arrivals[2].first, per * 3);
}

} // namespace
} // namespace net
} // namespace diablo
