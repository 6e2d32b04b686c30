#include "core/simulator.hh"

#include <algorithm>

#include "core/log.hh"

namespace diablo {

Simulator::~Simulator() = default;

EventId
Simulator::scheduleAt(SimTime when, EventFn fn, int8_t prio)
{
    if (when < now_) {
        schedulePastPanic(when);
    }
    return queue_.schedule(when, std::move(fn), prio);
}

void
Simulator::schedulePastPanic(SimTime when) const
{
    panic("Simulator::scheduleAt: time %s is in the past (now %s)",
          when.str().c_str(), now_.str().c_str());
}

void
Simulator::spawn(Task<> task)
{
    sweepTasks();
    tasks_.push_back(std::move(task));
    // The vector may reallocate as more tasks are spawned, so capture
    // the index, not a pointer; sweepTasks only trims completed tasks
    // from the back, so indices of live entries never shift.
    const size_t idx = tasks_.size() - 1;
    schedule(SimTime(), [this, idx] {
        tasks_[idx].resume();
        tasks_[idx].checkRootException();
    }, event_prio::kWakeup);
}

void
Simulator::sweepTasks()
{
    // Completed root frames can be reclaimed, but entries whose start
    // event has not fired yet must keep their index; only trim done tasks
    // from the back where indices stay stable.
    while (!tasks_.empty() && tasks_.back().done()) {
        tasks_.pop_back();
    }
}

void
Simulator::run()
{
    while (!queue_.empty()) {
        executeNext();
    }
}

void
Simulator::runUntil(SimTime t)
{
    while (queue_.nextTime() <= t) {
        executeNext();
    }
    if (now_ < t) {
        now_ = t;
    }
}

void
Simulator::runBefore(SimTime t)
{
    while (queue_.nextTime() < t) {
        executeNext();
    }
}

void
Simulator::timeWentBackwards(SimTime when) const
{
    panic("event time went backwards: %s < %s",
          when.str().c_str(), now_.str().c_str());
}

} // namespace diablo
