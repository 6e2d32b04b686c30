#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <set>
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
    // slot pool, the freelist, and the heap's remove path: 12k events at
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

/**
 * The queue's key, kept by hand: every event is logged in schedule
 * order with its time and priority, and the queue must fire exactly the
 * events never cancelled, sorted by (time, priority, schedule order).
 * That holds because every event scheduled during the run lies at
 * least 1 us after the event that schedules it.
 */
struct ReferenceOrder {
    static constexpr size_t kTimers = 64;
    static constexpr size_t kNone = ~size_t{0};
    static constexpr SimTime kStop = SimTime::ms(2);

    struct Rec {
        SimTime when;
        int8_t prio;
        EventId id; ///< invalid for wakeups and task starts
        bool cancelled = false;
    };

    /** Pending records, earliest key first: begin() is the heap root. */
    struct KeyLess {
        const std::vector<Rec> *recs;
        bool
        operator()(size_t a, size_t b) const
        {
            const Rec &x = (*recs)[a];
            const Rec &y = (*recs)[b];
            if (x.when != y.when) {
                return x.when < y.when;
            }
            if (x.prio != y.prio) {
                return x.prio < y.prio;
            }
            return a < b;
        }
    };

    Simulator sim;
    std::vector<Rec> recs;
    std::set<size_t, KeyLess> pending{KeyLess{&recs}};
    std::vector<size_t> fired;
    std::vector<size_t> armed = std::vector<size_t>(kTimers, kNone);
    std::vector<size_t> one_shots;
    uint64_t lcg = 0x9E3779B97F4A7C15ull;
    size_t root_cancels = 0;
    size_t last_cancels = 0;
    size_t middle_cancels = 0;

    uint32_t
    draw(uint32_t n)
    {
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        return static_cast<uint32_t>(lcg >> 33) % n;
    }

    /** Log the schedule about to be made; its index is its order. */
    size_t
    log(SimTime when, int8_t prio)
    {
        recs.push_back(Rec{when, prio, EventId{}});
        pending.insert(recs.size() - 1);
        return recs.size() - 1;
    }

    void
    fire(size_t r)
    {
        fired.push_back(r);
        pending.erase(r);
    }

    /** A logged callback @p delay from now that runs @p body. */
    template <typename F>
    size_t
    at(SimTime delay, int8_t prio, F body)
    {
        const size_t r = log(sim.now() + delay, prio);
        recs[r].id = sim.schedule(delay, [this, r, body] {
            fire(r);
            body();
        }, prio);
        return r;
    }

    void
    cancel(size_t r)
    {
        sim.cancel(recs[r].id);
        recs[r].cancelled = true;
        pending.erase(r);
    }

    void
    armTimer(size_t k, SimTime delay)
    {
        armed[k] = at(delay, event_prio::kTimer, [this, k] {
            armed[k] = kNone;
            if (sim.now() < kStop) {
                armTimer(k, SimTime::us(150 + draw(100)));
            }
        });
    }

    /** The pacer: one RTO-style re-arm and assorted cancels per us. */
    void
    step()
    {
        ASSERT_EQ(sim.nextEventTime(), recs[*pending.begin()].when);
        const size_t k = draw(kTimers);
        if (armed[k] != kNone) {
            cancel(armed[k]);
        }
        armTimer(k, SimTime::us(200 + draw(5)));

        constexpr int8_t kPrios[] = {event_prio::kTimer,
                                     event_prio::kDefault,
                                     event_prio::kWakeup};
        one_shots.push_back(
            at(SimTime::us(1 + draw(300)), kPrios[draw(3)], [] {}));
        if (draw(4) == 0) {
            const size_t victim = one_shots[draw(
                static_cast<uint32_t>(one_shots.size()))];
            if (pending.count(victim) != 0) {
                cancel(victim);
                ++middle_cancels;
            }
        }
        if (draw(4) == 0) {
            // The earliest pending event is the heap's root.
            const size_t root = *pending.begin();
            if (recs[root].id.valid()) {
                cancel(root);
                ++root_cancels;
            }
        }
        if (draw(5) == 0) {
            // Later than anything pending: its push leaves it last.
            cancel(at(SimTime::ms(50), event_prio::kDefault, [] {}));
            ++last_cancels;
        }
        // A stale id is inert.
        const size_t old = draw(static_cast<uint32_t>(recs.size()));
        if (pending.count(old) == 0) {
            sim.cancel(recs[old].id);
        }
        if (sim.now() < kStop) {
            at(1_us, event_prio::kDefault, [this] { step(); });
        }
    }

    static Task<>
    sleeper(ReferenceOrder &h, size_t start)
    {
        h.fire(start);
        while (h.sim.now() < kStop) {
            const SimTime d = SimTime::us(1 + h.draw(20));
            const size_t r = h.log(h.sim.now() + d, event_prio::kWakeup);
            co_await h.sim.sleep(d);
            h.fire(r);
        }
    }

    std::vector<size_t>
    expected() const
    {
        std::vector<size_t> out;
        for (size_t r = 0; r < recs.size(); ++r) {
            if (!recs[r].cancelled) {
                out.push_back(r);
            }
        }
        std::sort(out.begin(), out.end(), KeyLess{&recs});
        return out;
    }
};

TEST(EventQueue, CancelAnywhereKeepsReferenceOrder)
{
    // Timers re-armed from inside callbacks (cancel, then a later
    // schedule: the RTO shape), coroutine sleeps (slotless wakeup
    // entries) and one-shot events at all three priorities, on a 1 us
    // grid so they share instants.  Cancels hit the heap's root, its
    // last entry and entries in between.
    ReferenceOrder h;
    for (size_t k = 0; k < ReferenceOrder::kTimers; ++k) {
        h.armTimer(k, SimTime::us(1 + h.draw(200)));
    }
    for (int i = 0; i < 6; ++i) {
        // Simulator::spawn schedules the task's start event.
        const size_t start = h.log(SimTime(), event_prio::kWakeup);
        h.sim.spawn(ReferenceOrder::sleeper(h, start));
    }
    h.at(1_us, event_prio::kDefault, [&h] { h.step(); });
    h.sim.run();

    EXPECT_TRUE(h.sim.idle());
    EXPECT_TRUE(h.pending.empty());
    EXPECT_GT(h.root_cancels, 100u);
    EXPECT_GT(h.last_cancels, 100u);
    EXPECT_GT(h.middle_cancels, 100u);
    const std::vector<size_t> want = h.expected();
    ASSERT_EQ(h.fired.size(), want.size());
    EXPECT_TRUE(h.fired == want);
}

TEST(Simulator, CallbackRunsInItsSlot)
{
    // One callback schedules 600 events, growing the slot pool past two
    // 256-slot chunks while it runs, cancels its own id and a pending
    // event, and only then reads its captured state.  A callable moved
    // out, destroyed early or overwritten by a new schedule reads freed
    // or foreign memory here.
    struct Ctx {
        Simulator sim;
        std::vector<int> fired;
        EventId self;
        EventId victim;
        bool checked = false;
    } ctx;
    ctx.victim = ctx.sim.schedule(5_ns, [&ctx] { ctx.fired.push_back(-1); });
    auto state = std::make_unique<std::array<uint64_t, 4>>();
    state->fill(0x5EED5EED5EED5EEDull);
    auto grow = [&ctx, state = std::move(state)] {
        for (int i = 0; i < 600; ++i) {
            ctx.sim.schedule(SimTime::ns(1 + (i * 7) % 13), [&ctx, i] {
                ctx.fired.push_back(i);
            });
        }
        ctx.sim.cancel(ctx.self);
        ctx.sim.cancel(ctx.victim);
        for (uint64_t v : *state) {
            EXPECT_EQ(v, 0x5EED5EED5EED5EEDull);
        }
        ctx.checked = true;
    };
    static_assert(EventFn::inlineable<decltype(grow)>(),
                  "the callable must live in its slot");
    ctx.self = ctx.sim.schedule(1_ns, std::move(grow));
    ctx.sim.run();

    EXPECT_TRUE(ctx.checked);
    EXPECT_TRUE(ctx.sim.idle());
    // Survivors fire once each, by (time, schedule order).
    std::vector<int> want(600);
    for (int i = 0; i < 600; ++i) {
        want[static_cast<size_t>(i)] = i;
    }
    std::stable_sort(want.begin(), want.end(), [](int a, int b) {
        return (a * 7) % 13 < (b * 7) % 13;
    });
    EXPECT_EQ(ctx.fired, want);
}

} // namespace
} // namespace diablo
