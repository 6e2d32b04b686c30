#include <gtest/gtest.h>

#include <vector>

#include "nic/nic_model.hh"
#include "os/node_test_util.hh"

namespace diablo {
namespace nic {
namespace {

using namespace diablo::time_literals;

net::PacketPtr
smallPacket()
{
    auto p = net::makePacket();
    p->flow.proto = net::Proto::Udp;
    p->payload_bytes = 100;
    return p;
}

/** Records the arrival time of every frame the wire delivers. */
class ArrivalSink : public net::PacketSink {
  public:
    explicit ArrivalSink(Simulator &sim) : sim_(sim) {}

    void receive(net::PacketPtr) override { arrivals.push_back(sim_.now()); }

    std::vector<SimTime> arrivals;

  private:
    Simulator &sim_;
};

TEST(NicModel, RxRingHoldsAndDequeues)
{
    Simulator sim;
    NicParams params;
    NicModel nic(sim, "n", params);

    sim.schedule(0_ns, [&] { nic.receive(smallPacket()); });
    sim.run(); // DMA latency elapses
    EXPECT_EQ(nic.rxPending(), 1u);
    auto p = nic.rxDequeue();
    ASSERT_TRUE(p);
    EXPECT_EQ(nic.rxPending(), 0u);
    EXPECT_FALSE(nic.rxDequeue());
}

TEST(NicModel, RxRingOverflowDrops)
{
    Simulator sim;
    NicParams params;
    params.rx_ring_entries = 4;
    NicModel nic(sim, "n", params);

    sim.schedule(0_ns, [&] {
        for (int i = 0; i < 10; ++i) {
            nic.receive(smallPacket());
        }
    });
    sim.run();
    EXPECT_EQ(nic.rxPending(), 4u);
    EXPECT_EQ(nic.rxRingDrops(), 6u);
}

TEST(NicModel, TxRingOverflowIsACountedDrop)
{
    // A descriptor-ring-full transmit is dropped and counted, exactly
    // like the rx side (and like real 8254x hardware under a stalled
    // driver) — it must not take the simulation down.
    struct NullSink : net::PacketSink {
        void receive(net::PacketPtr) override {}
    } sink;
    Simulator sim;
    NicParams params;
    params.tx_ring_entries = 4;
    NicModel nic(sim, "n", params);
    net::Link link(sim, "l", Bandwidth::gbps(1), 0_ns);
    link.connectTo(sink);
    nic.attachTxLink(link);
    // One burst inside a single event: the first frame occupies the
    // serializer, the next four fill the ring, the last two overflow.
    sim.schedule(0_ns, [&] {
        for (int i = 0; i < 7; ++i) {
            nic.txEnqueue(smallPacket());
        }
        EXPECT_TRUE(nic.txRingFull());
    });
    sim.run();
    EXPECT_EQ(nic.txRingDrops(), 2u);
    EXPECT_EQ(nic.txPackets(), 5u);
}

TEST(NicModel, TxRingDrainsBackToBackAtLineRate)
{
    // The NIC sends its next descriptor from the completion of the
    // previous frame, so a burst leaves back to back at line rate.
    Simulator sim;
    ArrivalSink sink(sim);
    NicModel nic(sim, "n", NicParams());
    net::Link link(sim, "l", Bandwidth::gbps(1), 2_us);
    link.connectTo(sink);
    nic.attachTxLink(link);
    sim.schedule(0_ns, [&] {
        for (int i = 0; i < 5; ++i) {
            nic.txEnqueue(smallPacket());
        }
    });
    sim.run();

    const SimTime ser =
        Bandwidth::gbps(1).transferTime(smallPacket()->wireBytes());
    ASSERT_EQ(sink.arrivals.size(), 5u);
    for (int k = 1; k <= 5; ++k) {
        EXPECT_EQ(sink.arrivals[k - 1], 2_us + ser * k) << "frame " << k;
    }
    EXPECT_EQ(nic.txPackets(), 5u);
}

TEST(NicModel, DownedUplinkDrainsRingIntoDrops)
{
    // A downed uplink completes every transmit at once, so the TX ring
    // drains into the link's counted drops instead of wedging.
    Simulator sim;
    ArrivalSink sink(sim);
    NicParams params;
    params.tx_ring_entries = 2;
    NicModel nic(sim, "n", params);
    net::Link link(sim, "l", Bandwidth::gbps(1), 1_us);
    link.connectTo(sink);
    nic.attachTxLink(link);
    const SimTime ser =
        Bandwidth::gbps(1).transferTime(smallPacket()->wireBytes());

    // One frame on the wire and a full ring when the cable is cut: the
    // ring drains into drops when that frame's serialization ends.
    sim.schedule(0_ns, [&] {
        for (int i = 0; i < 3; ++i) {
            nic.txEnqueue(smallPacket());
        }
        EXPECT_TRUE(nic.txRingFull());
    });
    sim.schedule(1_ns, [&] { link.setUp(false); });
    sim.runUntil(ser);
    EXPECT_EQ(link.downDrops(), 2u);
    EXPECT_FALSE(nic.txRingFull());

    // Twice the ring depth in one event: each frame is dropped at its
    // enqueue instant, so the ring never fills.
    sim.scheduleAt(5_us, [&] {
        for (int i = 0; i < 4; ++i) {
            nic.txEnqueue(smallPacket());
            EXPECT_FALSE(nic.txRingFull());
        }
    });
    sim.runUntil(5_us);
    EXPECT_EQ(link.downDrops(), 6u);
    EXPECT_EQ(nic.txPackets(), 7u);
    EXPECT_EQ(nic.txRingDrops(), 0u);
    // Only the frame already on the wire arrived.
    ASSERT_EQ(sink.arrivals.size(), 1u);
    EXPECT_EQ(sink.arrivals[0], ser + 1_us);

    sim.scheduleAt(10_us, [&] {
        link.setUp(true);
        nic.txEnqueue(smallPacket());
    });
    sim.run();
    ASSERT_EQ(sink.arrivals.size(), 2u);
    EXPECT_EQ(sink.arrivals[1], 10_us + ser + 1_us);
    EXPECT_EQ(link.downDrops(), 6u);
}

TEST(NicModel, DmaLatencyDelaysVisibility)
{
    Simulator sim;
    NicParams params;
    params.dma_latency = 2_us;
    NicModel nic(sim, "n", params);

    sim.schedule(0_ns, [&] { nic.receive(smallPacket()); });
    sim.runUntil(1_us);
    EXPECT_EQ(nic.rxPending(), 0u); // still in flight over DMA
    sim.runUntil(3_us);
    EXPECT_EQ(nic.rxPending(), 1u);
}

TEST(NicModel, InterruptMitigationCoalesces)
{
    // With a 100 us ITR, a burst of packets raises far fewer interrupts
    // than packets.
    os::test::TwoNodeHarness base; // to borrow a kernel for callbacks
    Simulator &sim = base.sim;

    NicParams params;
    params.rx_itr = 100_us;
    NicModel nic(sim, "n", params);
    nic.attachKernel(base.a.kernel); // interrupts go somewhere harmless

    sim.schedule(0_ns, [&] {
        for (int i = 0; i < 50; ++i) {
            sim.schedule(SimTime::us(i), [&] {
                nic.receive(smallPacket());
            });
        }
    });
    sim.run();
    // 50 packets over 50 us with a 100 us throttle: 1-2 interrupts.
    EXPECT_LE(nic.interruptsRaised(), 2u);
    EXPECT_EQ(nic.rxPackets(), 50u);
}

TEST(NicModel, NoThrottleMeansInterruptPerQuietPacket)
{
    os::test::TwoNodeHarness base;
    Simulator &sim = base.sim;
    NicParams params; // rx_itr = 0
    NicModel nic(sim, "n", params);
    nic.attachKernel(base.a.kernel);

    // Well-separated packets: each gets its own interrupt (NAPI will
    // mask only while the kernel is actively polling).
    for (int i = 0; i < 5; ++i) {
        sim.schedule(SimTime::ms(i + 1), [&] {
            nic.receive(smallPacket());
        });
    }
    sim.run();
    EXPECT_GE(nic.interruptsRaised(), 5u);
}

TEST(NicParams, FromConfig)
{
    Config cfg;
    cfg.set("nic.tx_ring_entries", 64);
    cfg.set("nic.zero_copy", false);
    cfg.set("nic.rx_itr_us", 12.5);
    NicParams p = NicParams::fromConfig(cfg, "nic.");
    EXPECT_EQ(p.tx_ring_entries, 64u);
    EXPECT_FALSE(p.zero_copy);
    EXPECT_EQ(p.rx_itr, SimTime::nanoseconds(12500));
}

TEST(NicModel, ZeroCopyLowersSendCpuCost)
{
    using os::test::TwoNodeHarness;
    // Zero-copy affects the TCP scatter/gather send path: compare the
    // sender's CPU busy time for an identical bulk transfer.
    auto tcpBusy = [](bool zc) {
        NicParams np;
        np.zero_copy = zc;
        TwoNodeHarness h({}, os::KernelProfile::linux2639(), np);
        auto sink = [](os::Kernel &k) -> Task<> {
            os::Thread &t = k.createThread("sink");
            long lfd = co_await k.sysSocket(t, net::Proto::Tcp);
            co_await k.sysBind(t, static_cast<int>(lfd), 7);
            co_await k.sysListen(t, static_cast<int>(lfd), 4);
            long fd = co_await k.sysAccept(t, static_cast<int>(lfd),
                                           true);
            while (true) {
                long n = co_await k.sysRecv(t, static_cast<int>(fd),
                                            1 << 20, nullptr);
                if (n <= 0) {
                    co_return;
                }
            }
        };
        auto src = [](os::Kernel &k) -> Task<> {
            os::Thread &t = k.createThread("src");
            long fd = co_await k.sysSocket(t, net::Proto::Tcp);
            co_await k.sysConnect(t, static_cast<int>(fd), 2, 7);
            co_await k.sysSend(t, static_cast<int>(fd), 400000, nullptr);
            co_await k.sysClose(t, static_cast<int>(fd));
        };
        h.b.kernel.spawnProcess(sink(h.b.kernel));
        h.a.kernel.spawnProcess(src(h.a.kernel));
        h.sim.run();
        return h.a.kernel.cpu().totalBusyTime();
    };
    SimTime with_zc = tcpBusy(true);
    SimTime without_zc = tcpBusy(false);
    EXPECT_LT(with_zc, without_zc);
}

} // namespace
} // namespace nic
} // namespace diablo
