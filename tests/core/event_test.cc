#include <gtest/gtest.h>

#include <vector>

#include "core/simulator.hh"

namespace diablo {
namespace {

using namespace diablo::time_literals;

TEST(EventQueue, FiresInTimeOrder)
{
    Simulator sim;
    std::vector<int> order;
    sim.schedule(30_ns, [&] { order.push_back(3); });
    sim.schedule(10_ns, [&] { order.push_back(1); });
    sim.schedule(20_ns, [&] { order.push_back(2); });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(sim.now(), 30_ns);
}

TEST(EventQueue, FifoAtEqualTime)
{
    Simulator sim;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i) {
        sim.schedule(5_ns, [&order, i] { order.push_back(i); });
    }
    sim.run();
    for (int i = 0; i < 10; ++i) {
        EXPECT_EQ(order[static_cast<size_t>(i)], i);
    }
}

TEST(EventQueue, PriorityBreaksTies)
{
    Simulator sim;
    std::vector<int> order;
    sim.schedule(5_ns, [&] { order.push_back(2); }, event_prio::kDefault);
    sim.schedule(5_ns, [&] { order.push_back(3); }, event_prio::kWakeup);
    sim.schedule(5_ns, [&] { order.push_back(1); }, event_prio::kTimer);
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, Cancellation)
{
    Simulator sim;
    int fired = 0;
    EventId id = sim.schedule(10_ns, [&] { ++fired; });
    sim.schedule(5_ns, [&] { sim.cancel(id); });
    sim.run();
    EXPECT_EQ(fired, 0);
}

TEST(EventQueue, CancelAfterFireIsSafe)
{
    Simulator sim;
    int fired = 0;
    EventId id = sim.schedule(1_ns, [&] { ++fired; });
    sim.run();
    sim.cancel(id); // no effect, no crash
    EXPECT_EQ(fired, 1);
}

TEST(EventQueue, CancelInvalidIdIsSafe)
{
    Simulator sim;
    sim.cancel(EventId{}); // default id is invalid
}

TEST(Simulator, EventsCanScheduleEvents)
{
    Simulator sim;
    int depth = 0;
    std::function<void()> chain = [&] {
        if (++depth < 100) {
            sim.schedule(1_ns, chain);
        }
    };
    sim.schedule(1_ns, chain);
    sim.run();
    EXPECT_EQ(depth, 100);
    EXPECT_EQ(sim.now(), 100_ns);
}

TEST(Simulator, RunUntilAdvancesClockToBound)
{
    Simulator sim;
    int fired = 0;
    sim.schedule(10_ns, [&] { ++fired; });
    sim.schedule(100_ns, [&] { ++fired; });
    sim.runUntil(50_ns);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(sim.now(), 50_ns);
    sim.runUntil(100_ns);
    EXPECT_EQ(fired, 2);
}

TEST(Simulator, ScheduleAtAbsolute)
{
    Simulator sim;
    SimTime seen;
    sim.scheduleAt(42_ns, [&] { seen = sim.now(); });
    sim.run();
    EXPECT_EQ(seen, 42_ns);
}

TEST(Simulator, NextEventTimeAndStep)
{
    Simulator sim;
    int fired = 0;
    sim.schedule(5_ns, [&] { ++fired; });
    sim.schedule(9_ns, [&] { ++fired; });
    EXPECT_EQ(sim.nextEventTime(), 5_ns);
    sim.executeNext();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(sim.nextEventTime(), 9_ns);
    sim.executeNext();
    EXPECT_TRUE(sim.idle());
    EXPECT_EQ(sim.nextEventTime(), SimTime::max());
}

TEST(Simulator, ExecutedEventCount)
{
    Simulator sim;
    for (int i = 0; i < 7; ++i) {
        sim.schedule(SimTime::ns(i + 1), [] {});
    }
    sim.run();
    EXPECT_EQ(sim.executedEvents(), 7u);
}

TEST(Simulator, CancelledEventsDontBlockNextTime)
{
    Simulator sim;
    EventId a = sim.schedule(1_ns, [] {});
    sim.schedule(5_ns, [] {});
    sim.cancel(a);
    EXPECT_EQ(sim.nextEventTime(), 5_ns);
}

TEST(EventQueue, ScheduleCancelStress)
{
    // Interleaved schedule / cancel / cancel-after-fire churn across the
    // slot pool, the freelist, and the tombstoned heap: 12k events at
    // colliding timestamps, a third cancelled before the run, a fifth
    // cancelled from inside the run, stale ids re-cancelled afterwards.
    Simulator sim;
    constexpr int kEvents = 12000;

    struct Rec {
        SimTime when;
        int idx;
    };
    std::vector<Rec> fired;
    fired.reserve(kEvents);
    std::vector<EventId> ids(kEvents);
    std::vector<bool> cancelled(kEvents, false);

    // Deterministic LCG so the test is reproducible without <random>.
    uint64_t lcg = 0x2545F4914F6CDD1Dull;
    auto next = [&lcg] {
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        return static_cast<uint32_t>(lcg >> 33);
    };

    for (int i = 0; i < kEvents; ++i) {
        const SimTime when = SimTime::ns(next() % 499 + 1);
        ids[i] = sim.schedule(when, [&fired, &sim, i] {
            fired.push_back(Rec{sim.now(), i});
        });
    }
    for (int i = 0; i < kEvents; i += 3) {
        sim.cancel(ids[i]);
        cancelled[i] = true;
    }
    // Cancel another slice from inside the run, before any victim fires
    // (victims are all at >= 1 ns).
    sim.schedule(SimTime(), [&] {
        for (int i = 1; i < kEvents; i += 5) {
            if (!cancelled[i]) {
                sim.cancel(ids[i]);
                cancelled[i] = true;
            }
        }
    });
    // Cancel-after-fire from inside the run: by 600 ns every survivor
    // has fired, so these must all be inert no-ops.
    sim.schedule(600_ns, [&] {
        for (int i = 0; i < 100; ++i) {
            sim.cancel(ids[i]);
        }
    });
    sim.run();

    // Liveness: the queue drained completely.
    EXPECT_TRUE(sim.idle());

    // Exactly the non-cancelled events fired, each exactly once.
    size_t expected = 0;
    std::vector<int> seen(kEvents, 0);
    for (int i = 0; i < kEvents; ++i) {
        expected += cancelled[i] ? 0u : 1u;
    }
    ASSERT_EQ(fired.size(), expected);
    for (const Rec &r : fired) {
        ++seen[static_cast<size_t>(r.idx)];
        EXPECT_FALSE(cancelled[static_cast<size_t>(r.idx)]);
    }
    for (int i = 0; i < kEvents; ++i) {
        EXPECT_EQ(seen[static_cast<size_t>(i)], cancelled[i] ? 0 : 1);
    }

    // Ordering: non-decreasing time, FIFO (insertion index) at ties.
    for (size_t k = 1; k < fired.size(); ++k) {
        ASSERT_LE(fired[k - 1].when, fired[k].when);
        if (fired[k - 1].when == fired[k].when) {
            ASSERT_LT(fired[k - 1].idx, fired[k].idx);
        }
    }

    // Stale ids stay inert after the run, even en masse.
    for (int i = 0; i < kEvents; ++i) {
        sim.cancel(ids[i]);
    }
    sim.run(); // no-op
    EXPECT_EQ(fired.size(), expected);
}

} // namespace
} // namespace diablo
