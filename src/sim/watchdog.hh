#ifndef DIABLO_SIM_WATCHDOG_HH_
#define DIABLO_SIM_WATCHDOG_HH_

/**
 * @file
 * Wall-clock run watchdog for unattended operation.
 *
 * A multi-hour campaign can wedge in ways the simulated world never
 * sees: a livelocked engine quantum, a model bug that stops scheduling
 * events, an NFS stall under an artifact write.  The Watchdog is a
 * detached observer thread with two tripwires:
 *
 *  - **deadline** (`run.deadline=<s>`): hard wall-clock budget for the
 *    whole run;
 *  - **stall** (`run.stall=<s>`): no *simulation progress* for that
 *    long.  Progress is whatever monotone counter the run loop
 *    publishes via noteProgress() before every engine window — the
 *    watchdog never reads engine state itself, so arming it cannot
 *    perturb the run or race with workers.  A run wedged *inside* a
 *    window stops publishing, which is exactly the stall signature;
 *    so a stall budget must exceed one window's wall time.
 *
 * On trip the watchdog invokes the diagnostic callback (which may dump
 * best-effort engine state: sim time, per-partition next-event minima,
 * pool ledgers), requests a cooperative interrupt (so the driver
 * finalizes a partial artifact, same path as SIGTERM), and then — if
 * the process is still alive after a grace period — hard-exits with
 * core::kExitWatchdog, because a watchdog that can itself be wedged by
 * the hang it detects is no watchdog at all.
 */

#include <atomic>
#include <cstdint>
#include <functional>
#include <thread>

namespace diablo {
namespace sim {

/** Wall-clock deadline + progress-stall monitor (one per run). */
class Watchdog {
  public:
    struct Params {
        double deadline_s = 0.0; ///< whole-run budget; 0 disables
        double stall_s = 0.0;    ///< no-progress window; 0 disables
        double poll_s = 0.25;    ///< tripwire check period
        double grace_s = 5.0;    ///< trip -> hard-exit budget
        /** Skip the hard _Exit after grace (unit tests only). */
        bool hard_exit = true;

        bool enabled() const { return deadline_s > 0 || stall_s > 0; }
    };

    /** Best-effort state dump, invoked once on the watchdog thread at
     *  trip time.  Keep it signal-handler-grade defensive: the engine
     *  may be mid-quantum. */
    using Diagnostic = std::function<void(const char *reason)>;

    Watchdog(Params p, Diagnostic diag);
    ~Watchdog();

    Watchdog(const Watchdog &) = delete;
    Watchdog &operator=(const Watchdog &) = delete;

    /** Start monitoring (no-op when neither tripwire is configured). */
    void arm();

    /**
     * Stop monitoring (normal completion).  Joins the thread; after
     * disarm() returns no diagnostic can fire.  Safe to call twice and
     * from the destructor.
     */
    void disarm();

    /**
     * Publish the run's progress counter (any monotone value: quanta,
     * executed events, their sum).  Called from the run loop's safe
     * points; a frozen value for longer than stall_s trips the
     * watchdog.
     */
    void
    noteProgress(uint64_t counter)
    {
        progress_.store(counter, std::memory_order_relaxed);
    }

    bool tripped() const
    {
        return tripped_.load(std::memory_order_relaxed);
    }

    /** "deadline" | "stall" | "" (not tripped). */
    const char *reason() const
    {
        return reason_.load(std::memory_order_relaxed);
    }

  private:
    void threadMain();

    Params params_;
    Diagnostic diag_;
    std::thread thread_;
    std::atomic<uint64_t> progress_{0};
    std::atomic<bool> stop_{false};
    std::atomic<bool> tripped_{false};
    std::atomic<const char *> reason_{""};
};

} // namespace sim
} // namespace diablo

#endif // DIABLO_SIM_WATCHDOG_HH_
