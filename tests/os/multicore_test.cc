#include <gtest/gtest.h>

#include "os/cpu.hh"
#include "os/node_test_util.hh"

namespace diablo {
namespace os {
namespace {

using namespace diablo::time_literals;

CpuParams
multi(uint32_t cores, double ghz = 1.0)
{
    CpuParams p;
    p.freq_ghz = ghz;
    p.cores = cores;
    return p;
}

TEST(MultiCoreCpu, IndependentWorkRunsConcurrently)
{
    Simulator sim;
    Cpu cpu(sim, multi(2), 1ULL << 40, 0);
    SimTime a_done, b_done;
    sim.schedule(0_ns, [&] {
        cpu.submit(SchedClass::User, 1000, 1, [&] { a_done = sim.now(); });
        cpu.submit(SchedClass::User, 1000, 2, [&] { b_done = sim.now(); });
    });
    sim.run();
    // Both finish at 1 us: true parallelism across two cores.
    EXPECT_EQ(a_done, 1_us);
    EXPECT_EQ(b_done, 1_us);
}

TEST(MultiCoreCpu, FourThreadsOnTwoCoresTakeTwoRounds)
{
    Simulator sim;
    Cpu cpu(sim, multi(2), 1ULL << 40, 0);
    std::vector<SimTime> done(4);
    sim.schedule(0_ns, [&] {
        for (uint64_t i = 0; i < 4; ++i) {
            cpu.submit(SchedClass::User, 1000, i + 1,
                       [&, i] { done[i] = sim.now(); });
        }
    });
    sim.run();
    EXPECT_EQ(done[0], 1_us);
    EXPECT_EQ(done[1], 1_us);
    EXPECT_EQ(done[2], 2_us);
    EXPECT_EQ(done[3], 2_us);
}

TEST(MultiCoreCpu, IrqPreemptsOnlyOneCore)
{
    Simulator sim;
    Cpu cpu(sim, multi(2), 1ULL << 40, 0);
    SimTime a_done, b_done, irq_done;
    sim.schedule(0_ns, [&] {
        cpu.submit(SchedClass::User, 10000, 1, [&] { a_done = sim.now(); });
        cpu.submit(SchedClass::User, 10000, 2, [&] { b_done = sim.now(); });
    });
    sim.schedule(2_us, [&] {
        cpu.submit(SchedClass::Irq, 1000, 0, [&] { irq_done = sim.now(); });
    });
    sim.run();
    EXPECT_EQ(irq_done, 3_us);
    // Exactly one user thread was delayed by the interrupt.
    const SimTime earlier = std::min(a_done, b_done);
    const SimTime later = std::max(a_done, b_done);
    EXPECT_EQ(earlier, 10_us);
    EXPECT_EQ(later, 11_us);
}

TEST(MultiCoreCpu, UtilizationNormalizedByCores)
{
    Simulator sim;
    Cpu cpu(sim, multi(4), 1ULL << 40, 0);
    sim.schedule(0_ns, [&] {
        cpu.submit(SchedClass::User, 4000, 1, [] {});
    });
    sim.scheduleAt(8_us, [] {});
    sim.run();
    // One core busy 4 us of 8 us, over 4 cores: 12.5%.
    EXPECT_NEAR(cpu.utilization(8_us), 0.125, 1e-9);
}

TEST(MultiCoreCpu, PerCoreContextSwitchAccounting)
{
    Simulator sim;
    Cpu cpu(sim, multi(2), 1ULL << 40, 500);
    SimTime d1, d2, d3, d4;
    sim.schedule(0_ns, [&] {
        // Threads 1,2 land on cores 0,1; then 1 and 2 again: same-core
        // affinity by queue order means no switch is guaranteed, but
        // a *different* pair definitely pays.
        cpu.submit(SchedClass::User, 1000, 1, [&] { d1 = sim.now(); });
        cpu.submit(SchedClass::User, 1000, 2, [&] { d2 = sim.now(); });
        cpu.submit(SchedClass::User, 1000, 3, [&] { d3 = sim.now(); });
        cpu.submit(SchedClass::User, 1000, 4, [&] { d4 = sim.now(); });
    });
    sim.run();
    EXPECT_EQ(cpu.contextSwitches(), 2u); // threads 3 and 4 switch in
    EXPECT_EQ(d3, SimTime::ns(2500));
    EXPECT_EQ(d4, SimTime::ns(2500));
}

TEST(MultiCoreCpu, DeterministicPlacement)
{
    auto run = [] {
        Simulator sim;
        Cpu cpu(sim, multi(3), 2000, 300);
        std::vector<int64_t> done;
        sim.schedule(0_ns, [&] {
            for (uint64_t i = 0; i < 9; ++i) {
                cpu.submit(SchedClass::User, 700 + i * 13, i + 1,
                           [&] { done.push_back(sim.now().toPs()); });
            }
        });
        sim.run();
        return done;
    };
    EXPECT_EQ(run(), run());
}

/** Full-stack check: a dual-core server handles concurrent requests
 *  faster than a single core once the CPU is the bottleneck. */
Task<>
burnWorker(Kernel &k, int fd)
{
    Thread &t = k.createThread("burn-w");
    while (true) {
        os::RecvedMessage m;
        long n = co_await k.sysRecvFrom(t, fd, &m);
        if (n < 0) {
            co_return;
        }
        co_await t.compute(4000000); // 1 ms at 4 GHz per request
        co_await k.sysSendTo(t, fd, m.from, m.from_port, 64, nullptr);
    }
}

Task<>
burnServer(Kernel &k, uint16_t port)
{
    Thread &t = k.createThread("burn-main");
    long fd = co_await k.sysSocket(t, net::Proto::Udp);
    co_await k.sysBind(t, static_cast<int>(fd), port);
    // Two worker threads sharing the socket (memcached-UDP style).
    k.spawnProcess(burnWorker(k, static_cast<int>(fd)));
    k.spawnProcess(burnWorker(k, static_cast<int>(fd)));
}

Task<>
burstClient(Kernel &k, int n, SimTime *finished)
{
    Thread &t = k.createThread("burst");
    long fd = co_await k.sysSocket(t, net::Proto::Udp);
    for (int i = 0; i < n; ++i) {
        co_await k.sysSendTo(t, static_cast<int>(fd), 2, 7, 64, nullptr);
    }
    for (int i = 0; i < n; ++i) {
        os::RecvedMessage m;
        co_await k.sysRecvFrom(t, static_cast<int>(fd), &m);
    }
    *finished = k.sim().now();
}

TEST(MultiCoreCpu, DualCoreServerDoublesComputeThroughput)
{
    auto run = [](uint32_t cores) {
        CpuParams cp;
        cp.cores = cores;
        test::TwoNodeHarness h(cp);
        h.b.kernel.spawnProcess(burnServer(h.b.kernel, 7));
        SimTime finished;
        h.a.kernel.spawnProcess(burstClient(h.a.kernel, 8, &finished));
        h.sim.run();
        return finished;
    };
    SimTime one = run(1);
    SimTime two = run(2);
    // 8 requests x 1 ms of service: ~8 ms serialized, ~4 ms dual-core.
    EXPECT_GT(one, 8_ms);
    EXPECT_LT(two, one.scaled(0.65));
}

} // namespace
} // namespace os
} // namespace diablo
