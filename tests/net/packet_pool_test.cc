#include <gtest/gtest.h>

#include "core/simulator.hh"
#include "net/packet.hh"

namespace diablo {
namespace net {
namespace {

using namespace diablo::time_literals;

struct Marker : AppData {
    int tag = 0;
};

/** Dirty every model-visible field a previous life could have set. */
void
dirtyPacket(Packet &p)
{
    p.flow = FlowKey{7, 9, 1234, 80, Proto::Tcp};
    p.tcp.seq = 111;
    p.tcp.ack = 222;
    p.tcp.flags = tcp_flags::kSyn | tcp_flags::kFin;
    p.tcp.window = 333;
    p.payload_bytes = 1460;
    p.dgram_id = 42;
    p.dgram_bytes = 9000;
    p.frag_idx = 3;
    p.frag_count = 7;
    p.route = SourceRoute({1, 2, 3, 4, 5});
    p.route.advance();
    p.app = std::make_shared<Marker>();
    p.created = 5_us;
    p.first_bit = 6_us;
    p.last_bit = 7_us;
    p.hop_count = 4;
}

TEST(PacketPool, RecyclesToOriginAndCountsIt)
{
    Simulator sim;
    EXPECT_EQ(packetPoolIfAttached(sim), nullptr);

    auto p = makePacket(sim);
    const Packet *raw = p.get();
    PacketPool *pool = packetPoolIfAttached(sim);
    ASSERT_NE(pool, nullptr);
    EXPECT_EQ(p->pool, pool);
    EXPECT_EQ(pool->makes(), 1u);
    EXPECT_EQ(pool->heapAllocs(), 1u);
    EXPECT_EQ(pool->returns(), 0u);

    p.reset(); // dies -> freelist, not the heap
    EXPECT_EQ(pool->returns(), 1u);

    auto q = makePacket(sim);
    EXPECT_EQ(q.get(), raw); // warm slab reused
    EXPECT_EQ(pool->makes(), 2u);
    EXPECT_EQ(pool->recycles(), 1u);
    EXPECT_EQ(pool->heapAllocs(), 1u);
}

TEST(PacketPool, RecycledPacketIsFactoryFresh)
{
    Simulator sim;
    auto p = makePacket(sim);
    const uint64_t old_id = p->id;
    dirtyPacket(*p);
    p.reset();

    auto q = makePacket(sim);
    EXPECT_NE(q->id, 0u);
    EXPECT_NE(q->id, old_id);
    const FlowKey fresh;
    EXPECT_EQ(q->flow.src, fresh.src);
    EXPECT_EQ(q->flow.dst, fresh.dst);
    EXPECT_EQ(q->flow.sport, fresh.sport);
    EXPECT_EQ(q->flow.dport, fresh.dport);
    EXPECT_EQ(q->tcp.seq, 0u);
    EXPECT_EQ(q->tcp.ack, 0u);
    EXPECT_EQ(q->tcp.flags, 0);
    EXPECT_EQ(q->tcp.window, 0u);
    EXPECT_EQ(q->payload_bytes, 0u);
    EXPECT_EQ(q->dgram_id, 0u);
    EXPECT_EQ(q->dgram_bytes, 0u);
    EXPECT_EQ(q->frag_idx, 0);
    EXPECT_EQ(q->frag_count, 1);
    EXPECT_EQ(q->route.hops(), 0u);
    EXPECT_TRUE(q->route.exhausted());
    EXPECT_EQ(q->app, nullptr);
    EXPECT_EQ(q->created, SimTime());
    EXPECT_EQ(q->first_bit, SimTime());
    EXPECT_EQ(q->last_bit, SimTime());
    EXPECT_EQ(q->hop_count, 0u);
}

TEST(PacketPool, RecycleReleasesAppDataImmediately)
{
    // The pool must not pin application metadata until the slab's next
    // reuse: the shared_ptr drops at recycle time.
    Simulator sim;
    auto marker = std::make_shared<Marker>();
    std::weak_ptr<const AppData> watch = marker;
    auto p = makePacket(sim);
    p->app = std::move(marker);
    p.reset();
    EXPECT_TRUE(watch.expired());
}

TEST(PacketPool, HighWaterTracksConcurrentlyLivePackets)
{
    Simulator sim;
    auto a = makePacket(sim);
    auto b = makePacket(sim);
    auto c = makePacket(sim);
    PacketPool *pool = packetPoolIfAttached(sim);
    ASSERT_NE(pool, nullptr);
    EXPECT_EQ(pool->highWater(), 3u);
    a.reset();
    b.reset();
    c.reset();
    auto d = makePacket(sim);
    EXPECT_EQ(pool->highWater(), 3u); // one live again: no new peak
    EXPECT_EQ(pool->heapAllocs(), 3u);

    // Coupled runs: a packet that crosses to a peer process leaves its
    // sender's pool uncounted, and a replica arriving from a peer dies
    // as a counted return.  Neither may skew the live count.
    constexpr int kRounds = 5;
    Simulator sender;
    for (int i = 0; i < kRounds; ++i) {
        releaseGhost(makePacket(sender));
    }
    EXPECT_EQ(packetPoolIfAttached(sender)->highWater(), 1u);
    Simulator receiver;
    PacketPool &replicas = packetPoolOf(receiver);
    for (int i = 0; i < kRounds; ++i) {
        replicas.makeGhost().reset();
    }
    auto e = makePacket(receiver);
    EXPECT_EQ(replicas.highWater(), 1u);
    EXPECT_EQ(replicas.makes(), 1u);
    EXPECT_EQ(replicas.returns(), static_cast<uint64_t>(kRounds));
}

TEST(PacketPool, PacketDyingElsewhereReturnsHome)
{
    // A packet made by partition A's pool but dropped while owned by
    // partition B's structures must recycle to A (origin pool), keeping
    // each pool's memory bounded under one-way flows.
    Simulator a, b;
    auto p = makePacket(a);
    const Packet *raw = p.get();
    (void)makePacket(b); // give B a pool of its own
    PacketPool *pool_a = packetPoolIfAttached(a);
    PacketPool *pool_b = packetPoolIfAttached(b);
    const uint64_t b_returns_before = pool_b->returns();

    p.reset(); // "drop in B": PacketPtr death site doesn't matter
    EXPECT_EQ(pool_a->returns(), 1u);
    EXPECT_EQ(pool_b->returns(), b_returns_before);
    auto q = makePacket(a);
    EXPECT_EQ(q.get(), raw);
}

TEST(PacketPool, SteadyStateLoopNeverReallocates)
{
    Simulator sim;
    for (int i = 0; i < 1000; ++i) {
        auto p = makePacket(sim);
        dirtyPacket(*p);
    }
    PacketPool *pool = packetPoolIfAttached(sim);
    ASSERT_NE(pool, nullptr);
    EXPECT_EQ(pool->makes(), 1000u);
    EXPECT_EQ(pool->heapAllocs(), 1u);
    EXPECT_EQ(pool->recycles(), 999u);
    EXPECT_EQ(pool->highWater(), 1u);
}

TEST(PacketPool, PlainHeapPacketsBypassThePool)
{
    auto p = makePacket();
    EXPECT_EQ(p->pool, nullptr);
    // Destruction must plain-delete (exercised under the sanitizers).
}

} // namespace
} // namespace net
} // namespace diablo
