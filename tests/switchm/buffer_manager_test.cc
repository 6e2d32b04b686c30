#include <gtest/gtest.h>

#include "switchm/buffer_manager.hh"

namespace diablo {
namespace switchm {
namespace {

/** A @p ports-port buffer of @p bytes per port (Partitioned) or in
 *  the pool (Shared, SharedDynamic). */
BufferManager
makeBuffer(BufferPolicy policy, uint32_t ports, uint64_t bytes,
           double alpha = 0.5)
{
    SwitchParams p;
    p.num_ports = ports;
    p.buffer_policy = policy;
    p.buffer_per_port_bytes = bytes;
    p.buffer_total_bytes = bytes;
    p.dynamic_alpha = alpha;
    return BufferManager(p);
}

TEST(PartitionedBuffer, PerPortIsolation)
{
    BufferManager b = makeBuffer(BufferPolicy::Partitioned, 4, 4096);
    EXPECT_TRUE(b.tryAdmit(0, 3000));
    EXPECT_TRUE(b.tryAdmit(0, 1000));
    EXPECT_FALSE(b.tryAdmit(0, 200)); // port 0 full
    // Other ports unaffected.
    EXPECT_TRUE(b.tryAdmit(1, 4096));
    EXPECT_EQ(b.usedAt(0), 4000u);
    EXPECT_EQ(b.usedAt(1), 4096u);
    EXPECT_EQ(b.used(), 8096u);
}

TEST(PartitionedBuffer, ReleaseRestoresCapacity)
{
    BufferManager b = makeBuffer(BufferPolicy::Partitioned, 2, 1000);
    EXPECT_TRUE(b.tryAdmit(0, 800));
    EXPECT_FALSE(b.tryAdmit(0, 300));
    b.release(0, 800);
    EXPECT_TRUE(b.tryAdmit(0, 1000));
    EXPECT_EQ(b.used(), 1000u);
}

TEST(PartitionedBuffer, ExactFit)
{
    BufferManager b = makeBuffer(BufferPolicy::Partitioned, 1, 1500);
    EXPECT_TRUE(b.tryAdmit(0, 1500));
    EXPECT_FALSE(b.tryAdmit(0, 1));
}

TEST(SharedBuffer, OnePortCanHogPool)
{
    BufferManager b = makeBuffer(BufferPolicy::Shared, 4, 10000);
    EXPECT_TRUE(b.tryAdmit(0, 9000));
    EXPECT_FALSE(b.tryAdmit(1, 2000)); // pool nearly full
    EXPECT_TRUE(b.tryAdmit(1, 1000));
    EXPECT_EQ(b.used(), 10000u);
    b.release(0, 9000);
    EXPECT_TRUE(b.tryAdmit(2, 5000));
}

TEST(SharedDynamicBuffer, ThresholdLimitsSingleQueue)
{
    // alpha=1: a single queue may use at most the free pool, i.e. at
    // most half the pool once it has taken half (threshold shrinks as
    // occupancy grows).
    BufferManager b = makeBuffer(BufferPolicy::SharedDynamic, 4, 8000, 1.0);
    uint64_t admitted = 0;
    while (b.tryAdmit(0, 500)) {
        admitted += 500;
    }
    // Fixed point: used <= 1.0 * (8000 - used)  =>  used <= 4000.
    EXPECT_EQ(admitted, 4000u);
    // A second queue can still get space.
    EXPECT_TRUE(b.tryAdmit(1, 500));
}

TEST(SharedDynamicBuffer, SmallAlphaIsStingy)
{
    BufferManager b =
        makeBuffer(BufferPolicy::SharedDynamic, 4, 8000, 0.25);
    uint64_t admitted = 0;
    while (b.tryAdmit(0, 100)) {
        admitted += 100;
    }
    // used <= 0.25 * (8000 - used) => used <= 1600.
    EXPECT_EQ(admitted, 1600u);
}

TEST(SharedDynamicBuffer, ReleaseReopensThreshold)
{
    BufferManager b = makeBuffer(BufferPolicy::SharedDynamic, 2, 8000, 1.0);
    while (b.tryAdmit(0, 500)) {
    }
    EXPECT_FALSE(b.tryAdmit(0, 500));
    b.release(0, 2000);
    EXPECT_TRUE(b.tryAdmit(0, 500));
}

TEST(BufferManager, FactorySelectsPolicy)
{
    SwitchParams p;
    p.num_ports = 2;
    p.buffer_policy = BufferPolicy::Partitioned;
    p.buffer_per_port_bytes = 100;
    BufferManager part(p);
    EXPECT_TRUE(part.tryAdmit(0, 100));
    EXPECT_FALSE(part.tryAdmit(0, 1));
    EXPECT_TRUE(part.tryAdmit(1, 100));

    p.buffer_policy = BufferPolicy::Shared;
    p.buffer_total_bytes = 150;
    BufferManager shared(p);
    EXPECT_TRUE(shared.tryAdmit(0, 100));
    EXPECT_FALSE(shared.tryAdmit(1, 100));

    p.buffer_policy = BufferPolicy::SharedDynamic;
    p.buffer_total_bytes = 1000;
    p.dynamic_alpha = 1.0;
    BufferManager dyn(p);
    EXPECT_TRUE(dyn.tryAdmit(0, 500));
    EXPECT_FALSE(dyn.tryAdmit(0, 500));
}

TEST(SwitchParams, FromConfigOverrides)
{
    Config cfg;
    cfg.set("sw.num_ports", 48);
    cfg.set("sw.port_gbps", 10.0);
    cfg.set("sw.port_latency_ns", 100.0);
    cfg.set("sw.cut_through", false);
    cfg.set("sw.buffer_policy", "shared_dynamic");
    cfg.set("sw.buffer_total_bytes", 1048576);
    cfg.set("sw.dynamic_alpha", 0.75);

    SwitchParams p = SwitchParams::fromConfig(cfg, "sw.");
    EXPECT_EQ(p.num_ports, 48u);
    EXPECT_DOUBLE_EQ(p.port_bw.asGbps(), 10.0);
    EXPECT_EQ(p.port_latency, SimTime::ns(100));
    EXPECT_FALSE(p.cut_through);
    EXPECT_EQ(p.buffer_policy, BufferPolicy::SharedDynamic);
    EXPECT_EQ(p.buffer_total_bytes, 1048576u);
    EXPECT_DOUBLE_EQ(p.dynamic_alpha, 0.75);
}

TEST(SwitchParams, DefaultsPreservedWhenAbsent)
{
    Config cfg;
    SwitchParams defaults;
    defaults.num_ports = 32;
    defaults.port_latency = SimTime::us(1);
    SwitchParams p = SwitchParams::fromConfig(cfg, "x.", defaults);
    EXPECT_EQ(p.num_ports, 32u);
    EXPECT_EQ(p.port_latency, SimTime::us(1));
    EXPECT_EQ(p.buffer_policy, BufferPolicy::Partitioned);
}

} // namespace
} // namespace switchm
} // namespace diablo
