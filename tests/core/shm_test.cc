/**
 * @file
 * parkUntil/wakeParked, the one way the engine blocks: a waiter that
 * spins past the store never parks, a parked waiter wakes at once on a
 * store and wakeParked from another thread or another process, and a
 * timeout returns false with the word untouched.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <new>
#include <string>
#include <thread>

#include "core/shm.hh"

namespace diablo {
namespace {

using namespace std::chrono_literals;
using Clock = std::chrono::steady_clock;

constexpr int64_t kFiveSecondsNs = 5LL * 1000 * 1000 * 1000;

/** A park word and its parked count, as the engine lays them out. */
struct ParkCell {
    std::atomic<uint32_t> word{0};
    std::atomic<uint32_t> parked{0};
};

/** Spin until @p cell counts a parked waiter. */
void
awaitParked(ParkCell &cell)
{
    while (cell.parked.load(std::memory_order_seq_cst) == 0) {
        std::this_thread::sleep_for(1ms);
    }
}

/** The waker's half: the store the waiter waits for, then the wake. */
void
storeAndWake(ParkCell &cell)
{
    cell.word.store(1, std::memory_order_seq_cst);
    wakeParked(cell.word, cell.parked);
}

TEST(ParkUntil, SpinPathReturnsWithoutParking)
{
    ParkCell cell;
    bool saw_parked = false;
    auto done = [&](uint32_t v) {
        saw_parked |= cell.parked.load(std::memory_order_relaxed) != 0;
        return v == 1;
    };
    std::thread waker([&] {
        std::this_thread::sleep_for(5ms);
        cell.word.store(1, std::memory_order_seq_cst);
    });
    // A budget far beyond the 5 ms the store takes to land.
    EXPECT_TRUE(parkUntil(cell.word, done, cell.parked, 1u << 30,
                          kFiveSecondsNs));
    waker.join();
    EXPECT_FALSE(saw_parked);
    EXPECT_EQ(cell.parked.load(), 0u);
}

TEST(ParkUntil, ParkedWaiterWakesOnStoreAndWake)
{
    ParkCell cell;
    // The waiter parks only once the waker runs, so a waker that read
    // the parked count before its store would read it as zero.
    std::atomic<bool> running{false};
    std::thread waker([&] {
        running.store(true);
        awaitParked(cell);
        storeAndWake(cell);
    });
    while (!running.load()) {
        std::this_thread::yield();
    }
    const auto start = Clock::now();
    const bool ok = parkUntil(
        cell.word, [](uint32_t v) { return v == 1; }, cell.parked, 0,
        kFiveSecondsNs);
    const auto waited = Clock::now() - start;
    waker.join();
    EXPECT_TRUE(ok);
    EXPECT_LT(waited, 1s) << "the wakeup was lost; the waiter slept its "
                             "timeout";
    EXPECT_EQ(cell.parked.load(), 0u);
}

TEST(ParkUntil, ParkedWaiterWakesAcrossFork)
{
    ShmSegment seg = ShmSegment::create(
        testing::TempDir() + "diablo_park_" + std::to_string(getpid()) +
            ".shm",
        sizeof(ParkCell));
    seg.unlinkFile();
    auto *cell = new (seg.data()) ParkCell();
    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        awaitParked(*cell);
        storeAndWake(*cell);
        _exit(0);
    }
    const auto start = Clock::now();
    const bool ok = parkUntil(
        cell->word, [](uint32_t v) { return v == 1; }, cell->parked, 0,
        kFiveSecondsNs);
    const auto waited = Clock::now() - start;
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
    EXPECT_TRUE(ok);
    EXPECT_LT(waited, 1s) << "the wakeup was lost; the waiter slept its "
                             "timeout";
}

TEST(ParkUntil, TimeoutReturnsFalseWithTheWordUnchanged)
{
    ParkCell cell;
    const auto start = Clock::now();
    EXPECT_FALSE(parkUntil(
        cell.word, [](uint32_t v) { return v == 1; }, cell.parked, 16,
        20LL * 1000 * 1000));
    EXPECT_GE(Clock::now() - start, 10ms);
    EXPECT_EQ(cell.word.load(), 0u);
    EXPECT_EQ(cell.parked.load(), 0u);
}

} // namespace
} // namespace diablo
