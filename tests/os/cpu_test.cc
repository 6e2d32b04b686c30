#include <gtest/gtest.h>

#include <vector>

#include "os/cpu.hh"

namespace diablo {
namespace os {
namespace {

using namespace diablo::time_literals;

CpuParams
ghz(double f)
{
    CpuParams p;
    p.freq_ghz = f;
    return p;
}

TEST(Cpu, FixedCpiTiming)
{
    Simulator sim;
    Cpu cpu(sim, ghz(4.0), 1000000, 0);
    SimTime done_at;
    sim.schedule(0_ns, [&] {
        cpu.submit(SchedClass::User, 4000, 1, [&] { done_at = sim.now(); });
    });
    sim.run();
    // 4000 cycles at 4 GHz = 1 us.
    EXPECT_EQ(done_at, 1_us);
}

TEST(Cpu, CpiScalesTime)
{
    Simulator sim;
    CpuParams p = ghz(2.0);
    p.cpi = 2.0;
    Cpu cpu(sim, p, 1000000, 0);
    SimTime done_at;
    sim.schedule(0_ns, [&] {
        cpu.submit(SchedClass::User, 1000, 1, [&] { done_at = sim.now(); });
    });
    sim.run();
    // 1000 instr * 2 CPI / 2 GHz = 1 us.
    EXPECT_EQ(done_at, 1_us);
}

TEST(Cpu, FifoWithinClass)
{
    Simulator sim;
    Cpu cpu(sim, ghz(1.0), 1ULL << 40, 0);
    std::vector<int> order;
    sim.schedule(0_ns, [&] {
        cpu.submit(SchedClass::User, 100, 1, [&] { order.push_back(1); });
        cpu.submit(SchedClass::User, 100, 1, [&] { order.push_back(2); });
        cpu.submit(SchedClass::User, 100, 1, [&] { order.push_back(3); });
    });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Cpu, IrqPreemptsUser)
{
    Simulator sim;
    Cpu cpu(sim, ghz(1.0), 1ULL << 40, 0);
    SimTime user_done, irq_done;
    sim.schedule(0_ns, [&] {
        // 10 us of user work.
        cpu.submit(SchedClass::User, 10000, 1,
                   [&] { user_done = sim.now(); });
    });
    sim.schedule(2_us, [&] {
        // 1 us IRQ arrives mid-run.
        cpu.submit(SchedClass::Irq, 1000, 0,
                   [&] { irq_done = sim.now(); });
    });
    sim.run();
    EXPECT_EQ(irq_done, 3_us);   // runs immediately on arrival
    EXPECT_EQ(user_done, 11_us); // pushed back by the interrupt
}

TEST(Cpu, PriorityOrderAcrossClasses)
{
    Simulator sim;
    Cpu cpu(sim, ghz(1.0), 1ULL << 40, 0);
    std::vector<int> order;
    sim.schedule(0_ns, [&] {
        // Occupy the CPU briefly so everything below queues.
        cpu.submit(SchedClass::Kernel, 100, 0, [] {});
        cpu.submit(SchedClass::User, 10, 1, [&] { order.push_back(3); });
        cpu.submit(SchedClass::SoftIrq, 10, 0, [&] { order.push_back(1); });
        cpu.submit(SchedClass::Kernel, 10, 0, [&] { order.push_back(2); });
    });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Cpu, TimesliceRoundRobin)
{
    Simulator sim;
    // Timeslice = 1000 cycles at 1 GHz = 1 us.
    Cpu cpu(sim, ghz(1.0), 1000, 0);
    SimTime a_done, b_done;
    sim.schedule(0_ns, [&] {
        cpu.submit(SchedClass::User, 3000, 1, [&] { a_done = sim.now(); });
        cpu.submit(SchedClass::User, 1000, 2, [&] { b_done = sim.now(); });
    });
    sim.run();
    // A runs [0,1), B runs [1,2), A finishes its remaining 2000.
    EXPECT_EQ(b_done, 2_us);
    EXPECT_EQ(a_done, 4_us);
}

TEST(Cpu, ContextSwitchChargedOnThreadChange)
{
    Simulator sim;
    Cpu cpu(sim, ghz(1.0), 1000000, 500);
    SimTime b_done;
    sim.schedule(0_ns, [&] {
        cpu.submit(SchedClass::User, 1000, 1, [] {});
        cpu.submit(SchedClass::User, 1000, 2, [&] { b_done = sim.now(); });
    });
    sim.run();
    // Thread 1: 1000 cycles (first dispatch is free);
    // thread 2: 500 switch + 1000 work.
    EXPECT_EQ(b_done, SimTime::ns(2500));
    EXPECT_EQ(cpu.contextSwitches(), 1u);
}

TEST(Cpu, NoSwitchChargeForSameThread)
{
    Simulator sim;
    Cpu cpu(sim, ghz(1.0), 1000000, 500);
    SimTime done;
    sim.schedule(0_ns, [&] {
        cpu.submit(SchedClass::User, 1000, 7, [] {});
        cpu.submit(SchedClass::User, 1000, 7, [&] { done = sim.now(); });
    });
    sim.run();
    EXPECT_EQ(done, 2_us);
    EXPECT_EQ(cpu.contextSwitches(), 0u);
}

TEST(Cpu, PreemptionPreservesRemainingWork)
{
    Simulator sim;
    Cpu cpu(sim, ghz(1.0), 1ULL << 40, 0);
    SimTime user_done;
    sim.schedule(0_ns, [&] {
        cpu.submit(SchedClass::User, 10000, 1,
                   [&] { user_done = sim.now(); });
    });
    // Three interrupts of 1 us each.
    for (int i = 1; i <= 3; ++i) {
        sim.schedule(SimTime::us(i * 2), [&] {
            cpu.submit(SchedClass::Irq, 1000, 0, [] {});
        });
    }
    sim.run();
    EXPECT_EQ(user_done, 13_us); // 10 us work + 3 us of interrupts
}

TEST(Cpu, UtilizationAndBusyAccounting)
{
    Simulator sim;
    Cpu cpu(sim, ghz(1.0), 1ULL << 40, 0);
    sim.schedule(0_ns, [&] {
        cpu.submit(SchedClass::User, 5000, 1, [] {});
        cpu.submit(SchedClass::SoftIrq, 3000, 0, [] {});
    });
    sim.scheduleAt(16_us, [] {}); // idle tail
    sim.run();
    EXPECT_EQ(cpu.busyTime(SchedClass::User), 5_us);
    EXPECT_EQ(cpu.busyTime(SchedClass::SoftIrq), 3_us);
    EXPECT_NEAR(cpu.utilization(16_us), 0.5, 1e-9);
}

TEST(Cpu, ZeroCycleWorkStillCompletes)
{
    Simulator sim;
    Cpu cpu(sim, ghz(1.0), 1000, 0);
    bool done = false;
    sim.schedule(0_ns, [&] {
        cpu.submit(SchedClass::User, 0, 1, [&] { done = true; });
    });
    sim.run();
    EXPECT_TRUE(done);
}

} // namespace
} // namespace os
} // namespace diablo
