#include "sim/watchdog.hh"

#include <cstdio>
#include <cstdlib>

#include <chrono>

#include "core/interrupt.hh"

namespace diablo {
namespace sim {

namespace {

double
monotonicSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace

Watchdog::Watchdog(Params p) : params_(p) {}

Watchdog::~Watchdog()
{
    disarm();
}

void
Watchdog::arm()
{
    if (!params_.enabled() || thread_.joinable()) {
        return;
    }
    stop_.store(false, std::memory_order_relaxed);
    thread_ = std::thread([this] { threadMain(); });
}

void
Watchdog::disarm()
{
    if (!thread_.joinable()) {
        return;
    }
    stop_.store(true, std::memory_order_relaxed);
    thread_.join();
}

void
Watchdog::noteProgress(uint64_t counter, std::string state)
{
    progress_.store(counter, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(state_mu_);
    state_ = std::move(state);
}

void
Watchdog::threadMain()
{
    const double start = monotonicSeconds();
    uint64_t last_progress = progress_.load(std::memory_order_relaxed);
    double last_change = start;

    const auto poll =
        std::chrono::duration<double>(params_.poll_s > 0 ? params_.poll_s
                                                         : 0.25);
    const char *trip = nullptr;
    while (trip == nullptr) {
        std::this_thread::sleep_for(poll);
        if (stop_.load(std::memory_order_relaxed)) {
            return; // normal completion won the race
        }
        const double now = monotonicSeconds();
        const uint64_t p = progress_.load(std::memory_order_relaxed);
        if (p != last_progress) {
            last_progress = p;
            last_change = now;
        }
        if (params_.deadline_s > 0 &&
            now - start >= params_.deadline_s) {
            trip = "deadline";
        } else if (params_.stall_s > 0 &&
                   now - last_change >= params_.stall_s) {
            trip = "stall";
        }
    }

    tripped_.store(true, std::memory_order_relaxed);
    reason_.store(trip, std::memory_order_relaxed);
    std::fprintf(stderr,
                 "watchdog: %s tripped after %.1f s wall clock "
                 "(deadline=%.1fs stall=%.1fs progress=%llu)\n",
                 trip, monotonicSeconds() - start, params_.deadline_s,
                 params_.stall_s,
                 static_cast<unsigned long long>(last_progress));
    {
        std::lock_guard<std::mutex> lock(state_mu_);
        std::fprintf(stderr,
                     "watchdog: engine state at %s trip (last window "
                     "end):\n%s",
                     trip, state_.c_str());
    }
    std::fflush(stderr);
    core::requestInterrupt(trip[0] == 'd'
                               ? core::kCauseWatchdogDeadline
                               : core::kCauseWatchdogStall);

    // Give the cooperative path one grace period to finalize the
    // partial artifact; a run wedged inside a quantum will never reach
    // its interrupt poll, so after that the watchdog is the exit path.
    const double grace_end = monotonicSeconds() + params_.grace_s;
    while (monotonicSeconds() < grace_end) {
        std::this_thread::sleep_for(poll);
        if (stop_.load(std::memory_order_relaxed)) {
            return; // the run finalized and disarmed us
        }
    }
    if (params_.hard_exit) {
        std::fprintf(stderr,
                     "watchdog: run did not finalize within %.1f s "
                     "grace, aborting\n", params_.grace_s);
        std::fflush(stderr);
        std::_Exit(core::kExitWatchdog);
    }
}

} // namespace sim
} // namespace diablo
