#include <gtest/gtest.h>

#include <functional>
#include <utility>
#include <vector>

#include "net/link.hh"

namespace diablo {
namespace net {
namespace {

using namespace diablo::time_literals;

/** Records (arrival time, packet id, payload) for every delivery. */
class RecordSink : public PacketSink {
  public:
    explicit RecordSink(Simulator &sim) : sim_(sim) {}

    void
    receive(PacketPtr p) override
    {
        arrivals.push_back({sim_.now(), p->payload_bytes, p->last_bit});
    }

    struct Arrival {
        SimTime at;
        uint32_t payload;
        SimTime last_bit;

        bool
        operator==(const Arrival &o) const
        {
            return at == o.at && payload == o.payload &&
                   last_bit == o.last_bit;
        }
    };

    std::vector<Arrival> arrivals;

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

/**
 * Drive a back-to-back burst: each frame is sent at the time the
 * previous transmit() returned, exactly as a saturated NIC or switch
 * egress would.
 * Returns every delivery the sink observed.
 */
std::vector<RecordSink::Arrival>
runBurst(bool coalesce, uint32_t n_pkts, SimTime propagation)
{
    Simulator sim;
    RecordSink sink(sim);
    Link link(sim, "l0", Bandwidth::gbps(1), propagation);
    link.setDeliveryCoalescing(coalesce);
    link.connectTo(sink);

    uint32_t sent = 0;
    std::function<void()> sendNext = [&] {
        if (sent < n_pkts) {
            // Distinct sizes so a reordered or merged delivery would
            // change the observed (time, payload) pairs.
            const SimTime done = link.transmit(udpPacket(100 + 10 * sent));
            ++sent;
            sim.scheduleAt(done, sendNext);
        }
    };
    sim.schedule(0_ns, sendNext);
    sim.run();

    EXPECT_EQ(sent, n_pkts);
    EXPECT_EQ(sink.arrivals.size(), n_pkts);
    if (!coalesce) {
        EXPECT_EQ(link.deliveriesCoalesced(), 0u);
    } else if (propagation > Bandwidth::gbps(1).transferTime(2000)) {
        // With propagation exceeding serialization the next frame is
        // committed while the previous delivery is still in flight, so
        // the whole burst rides one armed walker instead of each
        // delivery scheduling an event of its own.  (At zero
        // propagation the walker legitimately drains between frames.)
        EXPECT_GT(link.deliveriesCoalesced(), 0u);
        EXPECT_LT(link.deliveryTrains(), n_pkts);
    }
    return sink.arrivals;
}

TEST(LinkBurst, CoalescingPreservesPerPacketDeliveryTimes)
{
    // The tentpole invariant: coalesced trains are a scheduling
    // optimization only — every packet's delivery instant and byte
    // bookkeeping must be bit-identical to the uncoalesced engine.
    for (SimTime prop : {SimTime(10_us), SimTime(1_us), SimTime(0_ns)}) {
        auto plain = runBurst(false, 32, prop);
        auto trains = runBurst(true, 32, prop);
        EXPECT_EQ(plain.size(), trains.size());
        for (size_t i = 0; i < plain.size(); ++i) {
            EXPECT_EQ(plain[i], trains[i])
                << "packet " << i << " prop=" << prop.str();
        }
    }
}

TEST(LinkBurst, ArrivalsAreInOrderAndStrictlyIncreasing)
{
    auto a = runBurst(true, 16, 5_us);
    for (size_t i = 1; i < a.size(); ++i) {
        EXPECT_LT(a[i - 1].at, a[i].at);
        EXPECT_EQ(a[i].payload, 100u + 10 * i); // FIFO order kept
    }
}

TEST(LinkBurst, IdleLinkStartsAFreshTrain)
{
    Simulator sim;
    RecordSink sink(sim);
    Link link(sim, "l0", Bandwidth::gbps(1), 1_us);
    link.connectTo(sink);

    sim.schedule(0_ns, [&] { link.transmit(udpPacket(100)); });
    sim.schedule(1_ms, [&] { link.transmit(udpPacket(200)); });
    sim.run();

    ASSERT_EQ(sink.arrivals.size(), 2u);
    // Two widely separated sends: two trains, nothing to coalesce.
    EXPECT_EQ(link.deliveryTrains(), 2u);
    EXPECT_EQ(link.deliveriesCoalesced(), 0u);
}

TEST(LinkBurst, FaultedDeliveriesMatchUncoalesced)
{
    // Brownout extra latency rides the same delivery path; degraded
    // frames must arrive at identical times in both modes.
    auto run = [](bool coalesce) {
        Simulator sim;
        RecordSink sink(sim);
        Link link(sim, "l0", Bandwidth::gbps(1), 2_us);
        link.setDeliveryCoalescing(coalesce);
        link.connectTo(sink);
        // Loss probability 0 so the comparison sees every frame; the
        // extra latency path is what's under test.
        sim.schedule(0_ns, [&] { link.setDegraded(0.0, 3_us, 1); });
        uint32_t sent = 0;
        std::function<void()> sendNext = [&] {
            if (sent < 8) {
                const SimTime done = link.transmit(udpPacket(400 + 10 * sent));
                ++sent;
                sim.scheduleAt(done, sendNext);
            }
        };
        sim.schedule(1_us, sendNext);
        sim.run();
        return sink.arrivals;
    };
    auto plain = run(false);
    auto trains = run(true);
    ASSERT_EQ(plain.size(), 8u);
    EXPECT_EQ(plain, trains);
}

} // namespace
} // namespace net
} // namespace diablo
