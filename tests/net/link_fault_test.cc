#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "net/fault_injection.hh"
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

TEST(LinkFault, DownLinkDropsAndCountsInsteadOfPanicking)
{
    Simulator sim;
    CollectSink sink(sim);
    Link link(sim, "l0", Bandwidth::gbps(1), 1_us);
    link.connectTo(sink);

    EXPECT_TRUE(link.isUp());
    link.setUp(false);
    EXPECT_FALSE(link.isUp());

    sim.schedule(0_ns, [&] { link.transmit(udpPacket(1000)); });
    sim.schedule(10_us, [&] { link.transmit(udpPacket(1000)); });
    sim.run();

    EXPECT_TRUE(sink.arrivals.empty());
    EXPECT_EQ(link.downDrops(), 2u);
}

TEST(LinkFault, DownLinkCompletesAtOnceSoQueuesDrain)
{
    // The contract that lets egress queues drain into counted drops
    // with no fault logic of their own: a dropped transmit returns the
    // current instant and leaves the transmitter free.
    Simulator sim;
    CollectSink sink(sim);
    Link link(sim, "l0", Bandwidth::gbps(1), 1_us);
    link.connectTo(sink);
    link.setUp(false);

    std::vector<SimTime> done_at;
    std::function<void()> sendNext = [&] {
        EXPECT_FALSE(link.busy());
        done_at.push_back(link.transmit(udpPacket(500)));
        if (done_at.size() < 3) {
            sim.scheduleAt(done_at.back(), sendNext); // drain the queue
        }
    };
    sim.schedule(5_us, sendNext);
    sim.run();

    EXPECT_EQ(link.downDrops(), 3u);
    ASSERT_EQ(done_at.size(), 3u);
    for (SimTime t : done_at) {
        EXPECT_EQ(t, 5_us); // all at the transmit instant, no serialization
    }
    EXPECT_TRUE(sink.arrivals.empty());
}

TEST(LinkFault, LinkRecoversAfterSetUp)
{
    Simulator sim;
    CollectSink sink(sim);
    Link link(sim, "l0", Bandwidth::gbps(1), 1_us);
    link.connectTo(sink);

    link.setUp(false);
    sim.schedule(0_ns, [&] { link.transmit(udpPacket(1000)); });
    sim.schedule(1_us, [&] { link.setUp(true); });
    sim.schedule(2_us, [&] { link.transmit(udpPacket(1000)); });
    sim.run();

    EXPECT_EQ(link.downDrops(), 1u);
    ASSERT_EQ(sink.arrivals.size(), 1u);
    // Only the frame sent after setUp(true) arrives: serialized at 2 us,
    // plus propagation.
    EXPECT_EQ(sink.arrivals[0].first,
              2_us + Bandwidth::gbps(1).transferTime(
                         sink.arrivals[0].second->wireBytes()) +
                  1_us);
}

TEST(LinkFault, BrownoutAddsLatencyAndNeverDeliversEarlier)
{
    Simulator sim;
    CollectSink sink(sim);
    Link link(sim, "l0", Bandwidth::gbps(1), 1_us);
    link.connectTo(sink);

    // loss_prob 0: pure latency degradation, every frame survives.
    link.setDegraded(0.0, 7_us, 42);
    EXPECT_TRUE(link.degraded());

    auto p = udpPacket(1462);
    const uint32_t wire = p->wireBytes();
    sim.schedule(0_ns, [&] { link.transmit(std::move(p)); });
    sim.run();

    ASSERT_EQ(sink.arrivals.size(), 1u);
    const SimTime clean = Bandwidth::gbps(1).transferTime(wire) + 1_us;
    EXPECT_EQ(sink.arrivals[0].first, clean + 7_us);
}

TEST(LinkFault, BrownoutLossIsSeedDeterministic)
{
    auto run = [](uint64_t seed) {
        Simulator sim;
        CollectSink sink(sim);
        Link link(sim, "l0", Bandwidth::gbps(10), 100_ns);
        link.connectTo(sink);
        link.setDegraded(0.5, SimTime(), seed);
        for (int i = 0; i < 64; ++i) {
            sim.schedule(SimTime::us(10 * i),
                         [&] { link.transmit(udpPacket(100)); });
        }
        sim.run();
        std::vector<SimTime> times;
        for (auto &[t, p] : sink.arrivals) {
            times.push_back(t);
        }
        return std::make_pair(times, link.degradeDrops());
    };

    auto [a_times, a_drops] = run(7);
    auto [b_times, b_drops] = run(7);
    auto [c_times, c_drops] = run(8);

    EXPECT_EQ(a_times, b_times); // same seed: identical loss pattern
    EXPECT_EQ(a_drops, b_drops);
    EXPECT_GT(a_drops, 0u);             // p=0.5 over 64 frames
    EXPECT_LT(a_drops, 64u);
    EXPECT_NE(a_times, c_times); // different seed: different pattern
}

TEST(LinkFault, ClearDegradedRestoresCleanDelivery)
{
    Simulator sim;
    CollectSink sink(sim);
    Link link(sim, "l0", Bandwidth::gbps(1), 1_us);
    link.connectTo(sink);

    link.setDegraded(1.0, SimTime(), 3); // loses everything
    sim.schedule(0_ns, [&] { link.transmit(udpPacket(100)); });
    sim.schedule(10_us, [&] { link.clearDegraded(); });
    sim.schedule(20_us, [&] { link.transmit(udpPacket(100)); });
    sim.run();

    EXPECT_EQ(link.degradeDrops(), 1u);
    EXPECT_FALSE(link.degraded());
    ASSERT_EQ(sink.arrivals.size(), 1u);
}

TEST(LossySink, AttributesDropsToOneCauseEach)
{
    Simulator sim;
    CollectSink inner(sim);
    LossySink lossy(inner);

    lossy.dropArrivals({0});
    lossy.dropIf([](const Packet &p) { return p.payload_bytes == 77; });

    for (uint32_t i = 0; i < 4; ++i) {
        lossy.receive(udpPacket(i == 2 ? 77 : 100));
    }

    EXPECT_EQ(lossy.arrivals(), 4u);
    EXPECT_EQ(lossy.droppedByIndex(), 1u);     // arrival 0
    EXPECT_EQ(lossy.droppedByPredicate(), 1u); // the 77-byte packet
    EXPECT_EQ(lossy.droppedRandomly(), 0u);
    EXPECT_EQ(lossy.dropped(), 2u);
    EXPECT_EQ(inner.arrivals.size(), 2u);
}

TEST(LossySink, RandomDropsAreSeedDeterministic)
{
    auto run = [](uint64_t seed) {
        Simulator sim;
        CollectSink inner(sim);
        LossySink lossy(inner);
        lossy.dropRandomly(0.3, seed);
        uint64_t survived_mask = 0;
        for (int i = 0; i < 64; ++i) {
            const uint64_t before = lossy.droppedRandomly();
            lossy.receive(udpPacket(100));
            if (lossy.droppedRandomly() == before) {
                survived_mask |= 1ULL << i;
            }
        }
        return survived_mask;
    };

    EXPECT_EQ(run(11), run(11));
    EXPECT_NE(run(11), run(12));
}

} // namespace
} // namespace net
} // namespace diablo
