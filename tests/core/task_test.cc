#include <gtest/gtest.h>

#include <vector>

#include "core/simulator.hh"
#include "core/task.hh"

namespace diablo {
namespace {

using namespace diablo::time_literals;

Task<>
sleeper(Simulator &sim, SimTime d, std::vector<int> &log, int id)
{
    co_await sim.sleep(d);
    log.push_back(id);
}

TEST(Task, SleepResumesAtRightTime)
{
    Simulator sim;
    std::vector<int> log;
    sim.spawn(sleeper(sim, 100_ns, log, 1));
    sim.run();
    EXPECT_EQ(log, std::vector<int>{1});
    EXPECT_EQ(sim.now(), 100_ns);
}

TEST(Task, InterleavedSleeps)
{
    Simulator sim;
    std::vector<int> log;
    sim.spawn(sleeper(sim, 30_ns, log, 3));
    sim.spawn(sleeper(sim, 10_ns, log, 1));
    sim.spawn(sleeper(sim, 20_ns, log, 2));
    sim.run();
    EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
}

Task<int>
computeValue(Simulator &sim)
{
    co_await sim.sleep(5_ns);
    co_return 42;
}

Task<>
parent(Simulator &sim, int &out)
{
    out = co_await computeValue(sim);
}

TEST(Task, ChildTaskReturnsValue)
{
    Simulator sim;
    int out = 0;
    sim.spawn(parent(sim, out));
    sim.run();
    EXPECT_EQ(out, 42);
    EXPECT_EQ(sim.now(), 5_ns);
}

Task<int>
deepChain(Simulator &sim, int depth)
{
    if (depth == 0) {
        co_await sim.sleep(1_ns);
        co_return 0;
    }
    int below = co_await deepChain(sim, depth - 1);
    co_return below + 1;
}

Task<>
deepRoot(Simulator &sim, int &out)
{
    out = co_await deepChain(sim, 500);
}

TEST(Task, DeepAwaitChains)
{
    Simulator sim;
    int out = -1;
    sim.spawn(deepRoot(sim, out));
    sim.run();
    EXPECT_EQ(out, 500);
}

Task<>
multiSleep(Simulator &sim, std::vector<int64_t> &times)
{
    for (int i = 0; i < 5; ++i) {
        co_await sim.sleep(10_ns);
        times.push_back(sim.now().toNs());
    }
}

TEST(Task, SequentialSleepsAccumulate)
{
    Simulator sim;
    std::vector<int64_t> times;
    sim.spawn(multiSleep(sim, times));
    sim.run();
    EXPECT_EQ(times, (std::vector<int64_t>{10, 20, 30, 40, 50}));
}

Task<>
spawnerTask(Simulator &sim, std::vector<int> &log)
{
    log.push_back(1);
    sim.spawn(sleeper(sim, 5_ns, log, 2));
    co_await sim.sleep(10_ns);
    log.push_back(3);
}

TEST(Task, TasksCanSpawnTasks)
{
    Simulator sim;
    std::vector<int> log;
    sim.spawn(spawnerTask(sim, log));
    sim.run();
    EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
}

TEST(Task, ManyConcurrentTasks)
{
    Simulator sim;
    std::vector<int> log;
    for (int i = 0; i < 1000; ++i) {
        sim.spawn(sleeper(sim, SimTime::ns(i), log, i));
    }
    sim.run();
    ASSERT_EQ(log.size(), 1000u);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_EQ(log[static_cast<size_t>(i)], i);
    }
}

TEST(Task, UnstartedTaskDestroysCleanly)
{
    std::vector<int> log;
    Simulator sim;
    {
        Task<> t = sleeper(sim, 1_ns, log, 1);
        EXPECT_TRUE(t.valid());
        EXPECT_FALSE(t.done());
    } // dropped without ever running
    sim.run();
    EXPECT_TRUE(log.empty());
}

TEST(Task, SimulatorTeardownWithBlockedTasks)
{
    std::vector<int> log;
    {
        Simulator sim;
        sim.spawn(sleeper(sim, 1_sec, log, 1));
        sim.runUntil(1_ms); // leaves the task suspended
    } // Simulator destructor must reclaim the frame without running it
    EXPECT_TRUE(log.empty());
}

} // namespace
} // namespace diablo
