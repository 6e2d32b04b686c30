/**
 * @file
 * Watchdog tripwire tests.  Everything runs with hard_exit=false and
 * millisecond-scale windows; each test clears the process-wide
 * interrupt flag the trip sets, so tests stay order-independent.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <string>
#include <thread>

#include "core/interrupt.hh"
#include "fame/partition.hh"
#include "sim/watchdog.hh"

namespace diablo {
namespace sim {
namespace {

using namespace std::chrono_literals;

Watchdog::Params
fastParams()
{
    Watchdog::Params p;
    p.poll_s = 0.005;
    p.grace_s = 0.0;
    p.hard_exit = false;
    return p;
}

/** Spin until pred() or the (generous) timeout; return pred(). */
template <typename Pred>
bool
eventually(Pred pred, std::chrono::milliseconds limit = 2000ms)
{
    const auto end = std::chrono::steady_clock::now() + limit;
    while (!pred()) {
        if (std::chrono::steady_clock::now() >= end) {
            return false;
        }
        std::this_thread::sleep_for(1ms);
    }
    return true;
}

class WatchdogTest : public ::testing::Test {
  protected:
    void TearDown() override { core::clearInterrupt(); }
};

TEST_F(WatchdogTest, DisabledParamsNeverTrip)
{
    Watchdog::Params p = fastParams();
    EXPECT_FALSE(p.enabled());
    Watchdog wd(p);
    wd.arm();
    std::this_thread::sleep_for(30ms);
    wd.disarm();
    EXPECT_FALSE(wd.tripped());
    EXPECT_FALSE(core::interruptRequested());
}

TEST_F(WatchdogTest, DeadlineTripsAndRequestsInterrupt)
{
    Watchdog::Params p = fastParams();
    p.deadline_s = 0.02;
    Watchdog wd(p);
    wd.arm();
    ASSERT_TRUE(eventually([&] { return wd.tripped(); }));
    wd.disarm();
    EXPECT_STREQ(wd.reason(), "deadline");
    EXPECT_TRUE(core::interruptRequested());
    EXPECT_EQ(core::interruptCause(), core::kCauseWatchdogDeadline);
}

TEST_F(WatchdogTest, StallTripsWhenProgressFreezes)
{
    Watchdog::Params p = fastParams();
    p.stall_s = 0.03;
    Watchdog wd(p);
    wd.arm();
    // Feed progress for a while: no trip as long as the counter moves.
    const auto feed_until = std::chrono::steady_clock::now() + 100ms;
    uint64_t counter = 0;
    while (std::chrono::steady_clock::now() < feed_until) {
        wd.noteProgress(++counter);
        std::this_thread::sleep_for(2ms);
        ASSERT_FALSE(wd.tripped()) << "tripped while progressing";
    }
    // Freeze the counter: the stall tripwire must fire.
    ASSERT_TRUE(eventually([&] { return wd.tripped(); }));
    wd.disarm();
    EXPECT_STREQ(wd.reason(), "stall");
    EXPECT_EQ(core::interruptCause(), core::kCauseWatchdogStall);
}

TEST_F(WatchdogTest, DisarmBeforeTripSuppressesEverything)
{
    Watchdog::Params p = fastParams();
    p.deadline_s = 0.05;
    Watchdog wd(p);
    wd.arm();
    wd.disarm(); // well before the 50 ms deadline
    std::this_thread::sleep_for(80ms);
    EXPECT_FALSE(wd.tripped());
    EXPECT_FALSE(core::interruptRequested());
    wd.disarm(); // double disarm is safe
}

TEST_F(WatchdogTest, DestructorDisarms)
{
    Watchdog::Params p = fastParams();
    p.deadline_s = 0.05;
    {
        Watchdog wd(p);
        wd.arm();
    } // destructor joins the thread; must not trip afterwards
    std::this_thread::sleep_for(80ms);
    EXPECT_FALSE(core::interruptRequested());
}

TEST_F(WatchdogTest, TripPrintsStatePublishedBetweenWindows)
{
    // A run loop publishes its state between windows, where no worker
    // runs; the watchdog thread reads only that copy, so tripping it
    // while a parallel PartitionSet runs races with nothing.
    using namespace diablo::time_literals;
    fame::PartitionSet ps(2);
    ps.setParallelism(2);
    std::function<void(size_t)> tick = [&](size_t i) {
        ps.partition(i).schedule(1_us, [&tick, i] { tick(i); });
    };
    tick(0);
    tick(1);
    Watchdog::Params p = fastParams();
    p.deadline_s = 0.02;
    Watchdog wd(p);
    testing::internal::CaptureStderr();
    wd.arm();
    const auto give_up = std::chrono::steady_clock::now() + 2000ms;
    SimTime t;
    for (uint64_t w = 0; !core::interruptRequested() &&
                         std::chrono::steady_clock::now() < give_up;
         ++w) {
        wd.noteProgress(ps.totalExecutedEvents(),
                        "  window=" + std::to_string(w) + "\n");
        t = t + 100_us;
        ps.runParallel(t);
    }
    wd.disarm();
    const std::string err = testing::internal::GetCapturedStderr();
    ASSERT_TRUE(wd.tripped());
    EXPECT_NE(err.find("engine state at deadline trip (last window "
                       "end):\n  window="),
              std::string::npos)
        << err;
}

} // namespace
} // namespace sim
} // namespace diablo
