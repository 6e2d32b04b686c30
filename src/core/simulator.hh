#ifndef DIABLO_CORE_SIMULATOR_HH_
#define DIABLO_CORE_SIMULATOR_HH_

/**
 * @file
 * The discrete-event simulation engine.
 *
 * A Simulator owns the event queue and the root coroutine tasks of one
 * simulation *partition*.  In the default configuration one Simulator
 * models the entire target system (the software analog of running all of
 * DIABLO on one FPGA); the FAME layer (src/fame) runs several partitions
 * under a conservative barrier scheduler, mirroring the multi-FPGA
 * deployment, with identical results.
 */

#include <cstdint>
#include <memory>
#include <vector>

#include "core/event.hh"
#include "core/task.hh"
#include "core/time.hh"

namespace diablo {

/** Discrete-event engine for one simulation partition. */
class Simulator {
  public:
    Simulator() = default;
    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;
    ~Simulator();

    /** Current simulated time. */
    SimTime now() const { return now_; }

    /** Schedule a callback @p delay after now. */
    EventId
    schedule(SimTime delay, EventFn fn, int8_t prio = event_prio::kDefault)
    {
        return queue_.schedule(now_ + delay, std::move(fn), prio);
    }

    /**
     * Emplace overload: a lambda (or any non-EventFn callable) is
     * constructed directly in its queue slot, skipping the intermediate
     * EventFn moves.  Overload resolution picks this for raw callables
     * and the EventFn overload for pre-built callbacks, so call sites
     * get the fast path with no change.
     */
    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::remove_cvref_t<F>, EventFn> &&
                  std::is_invocable_r_v<void, std::remove_cvref_t<F> &>>>
    EventId
    schedule(SimTime delay, F &&fn, int8_t prio = event_prio::kDefault)
    {
        return queue_.scheduleEmplace(now_ + delay, prio,
                                      std::forward<F>(fn));
    }

    /** Schedule a callback at absolute time @p when (must be >= now). */
    EventId scheduleAt(SimTime when, EventFn fn,
                       int8_t prio = event_prio::kDefault);

    /**
     * Emplace overload of scheduleAt: same slot-direct construction as
     * the relative-time schedule() template.  The absolute-time path is
     * just as hot — per-frame tx-done callbacks and switch egress kicks
     * land here — so it gets the same fast path.
     */
    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::remove_cvref_t<F>, EventFn> &&
                  std::is_invocable_r_v<void, std::remove_cvref_t<F> &>>>
    EventId
    scheduleAt(SimTime when, F &&fn, int8_t prio = event_prio::kDefault)
    {
        if (when < now_) {
            schedulePastPanic(when);
        }
        return queue_.scheduleEmplace(when, prio, std::forward<F>(fn));
    }

    void cancel(EventId id) { queue_.cancel(id); }

    /**
     * Coroutine-wakeup fast path: resume @p h after @p delay, at wakeup
     * priority.  The raw handle is scheduled through the queue's
     * dedicated path — no callback object, no slot, no allocation.
     * Wakeups are not cancellable; the returned id is always invalid.
     */
    EventId
    scheduleWakeup(SimTime delay, std::coroutine_handle<> h)
    {
        return queue_.scheduleWakeup(now_ + delay, h);
    }

    /**
     * Adopt a root coroutine task and start it at the current time (via
     * the event queue, so spawn order at equal times is deterministic).
     */
    void spawn(Task<> task);

    /** Awaitable that suspends the calling coroutine for @p delay. */
    struct SleepAwaiter {
        Simulator &sim;
        SimTime delay;

        bool await_ready() const noexcept { return false; }

        void
        await_suspend(std::coroutine_handle<> h)
        {
            sim.scheduleWakeup(delay, h);
        }

        void await_resume() const noexcept {}
    };

    SleepAwaiter sleep(SimTime delay) { return SleepAwaiter{*this, delay}; }

    /** Run until the queue drains. */
    void run();

    /**
     * Run all events with timestamp <= @p t, then set now to @p t.
     * Used both by tests and by the FAME quantum scheduler.
     */
    void runUntil(SimTime t);

    /**
     * Run all events with timestamp strictly < @p t; the clock is left
     * at the last executed event.  This is the partition-quantum step:
     * events exactly at the quantum boundary belong to the next window,
     * after cross-partition messages for that instant have arrived.
     */
    void runBefore(SimTime t);

    // --- stepping interface for the FAME partition runner ---

    /** Timestamp of the next pending event; SimTime::max() when idle. */
    SimTime nextEventTime() { return queue_.nextTime(); }

    /** Execute exactly one event (caller checked one is pending). */
    void
    executeNext()
    {
        EventFn fn;
        std::coroutine_handle<> coro{};
        const SimTime when = queue_.popNextInto(fn, coro);
        if (when < now_) {
            timeWentBackwards(when);
        }
        now_ = when;
        ++executed_;
        if (coro) {
            coro.resume();
        } else {
            fn();
        }
    }

    bool idle() { return queue_.empty(); }

    uint64_t executedEvents() const { return executed_; }

    /**
     * Partition-local attachment slot: one opaque object owned by this
     * Simulator (net::packetPoolOf hangs the partition's packet pool
     * here).  Declared as the *first* data member, so it is destroyed
     * after the event queue and root tasks — anything they still hold
     * (pending deliveries, suspended frames owning packets) can safely
     * release back into the attachment during teardown.
     */
    void *attachment() { return attachment_.get(); }

    /** Replace the attachment; @p deleter frees it with the Simulator. */
    void
    setAttachment(void *obj, void (*deleter)(void *))
    {
        attachment_ = AttachmentPtr(obj, deleter);
    }

    /**
     * Drop every pending event (callbacks are destroyed, never run) and
     * all cancellation state.  Teardown-only — fame::PartitionSet uses
     * it to drain every partition's queue before any Simulator is
     * destroyed, since a queued cross-partition delivery may own a
     * packet whose recycling pool lives on another partition.
     */
    void discardPendingEvents() { queue_.clear(); }

  private:
    void sweepTasks();
    [[noreturn]] void timeWentBackwards(SimTime when) const;
    [[noreturn]] void schedulePastPanic(SimTime when) const;

    using AttachmentPtr = std::unique_ptr<void, void (*)(void *)>;
    static void noopDeleter(void *) {}

    /** Must stay the first member (destroyed last); see attachment(). */
    AttachmentPtr attachment_{nullptr, &noopDeleter};

    EventQueue queue_;
    SimTime now_;
    uint64_t executed_ = 0;
    std::vector<Task<>> tasks_;
};

/**
 * One-shot, single-waiter synchronization cell.
 *
 * Kernel and device models complete a simulated-blocking operation by
 * calling fulfill(); the waiting coroutine resumes through the event
 * queue at the current time (never inline), preserving deterministic
 * event ordering.  fulfill() is idempotent: the first call wins, which
 * makes completion-vs-timeout races trivial to express.
 */
template <typename T>
class OneShot {
  public:
    explicit OneShot(Simulator &sim) : sim_(sim) {}

    OneShot(const OneShot &) = delete;
    OneShot &operator=(const OneShot &) = delete;

    bool fulfilled() const { return value_.has_value(); }

    /** Complete the operation with @p v; only the first call has effect. */
    void
    fulfill(T v)
    {
        if (value_.has_value()) {
            return;
        }
        value_.emplace(std::move(v));
        if (waiter_) {
            auto h = waiter_;
            waiter_ = nullptr;
            sim_.scheduleWakeup(SimTime(), h);
        }
    }

    bool await_ready() const noexcept { return value_.has_value(); }

    void
    await_suspend(std::coroutine_handle<> h)
    {
        if (waiter_) {
            panic("OneShot: second waiter");
        }
        waiter_ = h;
    }

    T
    await_resume()
    {
        return std::move(*value_);
    }

  private:
    Simulator &sim_;
    std::coroutine_handle<> waiter_;
    std::optional<T> value_;
};

} // namespace diablo

#endif // DIABLO_CORE_SIMULATOR_HH_
