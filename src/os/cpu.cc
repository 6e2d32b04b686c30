#include "os/cpu.hh"

#include <algorithm>

#include "core/log.hh"

namespace diablo {
namespace os {

CpuParams
CpuParams::fromConfig(const Config &cfg, const std::string &prefix,
                     const CpuParams &defaults)
{
    CpuParams p = defaults;
    p.freq_ghz = cfg.getDouble(prefix + "freq_ghz", p.freq_ghz);
    p.cpi = cfg.getDouble(prefix + "cpi", p.cpi);
    p.cores = static_cast<uint32_t>(cfg.getUint(prefix + "cores",
                                                p.cores));
    return p;
}

Cpu::Cpu(Simulator &sim, const CpuParams &params, uint64_t timeslice_cycles,
         uint64_t context_switch_cycles)
    : sim_(sim), params_(params),
      timeslice_cycles_(timeslice_cycles),
      context_switch_cycles_(context_switch_cycles)
{
    if (params.freq_ghz <= 0 || params.cpi <= 0) {
        fatal("Cpu: frequency and CPI must be positive");
    }
    if (params.cores == 0) {
        fatal("Cpu: need at least one core");
    }
    ps_per_cycle_ = static_cast<int64_t>(
        1000.0 / params.freq_ghz * params.cpi + 0.5);
    if (ps_per_cycle_ <= 0) {
        fatal("Cpu: frequency too high for picosecond resolution");
    }
    slots_.resize(params.cores);
}

bool
Cpu::busy() const
{
    for (const auto &s : slots_) {
        if (!s.current) {
            return false;
        }
    }
    return true;
}

SimTime
Cpu::totalBusyTime() const
{
    SimTime t;
    for (const auto &b : busy_) {
        t += b;
    }
    return t;
}

double
Cpu::utilization(SimTime span) const
{
    if (span.isZero()) {
        return 0.0;
    }
    return totalBusyTime().asSeconds() /
           (span.asSeconds() * static_cast<double>(slots_.size()));
}

int
Cpu::victimFor(SchedClass cls) const
{
    // Preempt the running work with the numerically largest class
    // (lowest priority), ties broken by the highest core index, but
    // only if it is strictly lower priority than @p cls.
    int victim = -1;
    SchedClass worst = cls;
    for (size_t i = 0; i < slots_.size(); ++i) {
        if (!slots_[i].current) {
            continue;
        }
        const SchedClass running = slots_[i].current->cls;
        if (running > worst) {
            worst = running;
            victim = static_cast<int>(i);
        } else if (victim >= 0 && running == worst &&
                   worst > cls) {
            victim = static_cast<int>(i); // tie: later core
        }
    }
    return victim;
}

void
Cpu::submit(SchedClass cls, uint64_t cycles, uint64_t thread_tag,
            CompletionFn done)
{
    if (cycles == 0) {
        cycles = 1; // every crossing costs at least a cycle
    }
    Work w;
    w.cls = cls;
    w.remaining = cycles;
    w.tag = thread_tag;
    w.done = std::move(done);
    q_[static_cast<size_t>(cls)].push_back(std::move(w));

    if (busy()) {
        const int victim = victimFor(cls);
        if (victim >= 0) {
            preemptSlot(static_cast<size_t>(victim));
        }
    }
    dispatch();
}

void
Cpu::preemptSlot(size_t core)
{
    Slot &slot = slots_[core];
    const SimTime elapsed = sim_.now() - slot.run_started;
    const uint64_t consumed = timeToCycles(elapsed);
    Work w = std::move(*slot.current);
    slot.current.reset();
    sim_.cancel(slot.run_event);

    busy_[static_cast<size_t>(w.cls)] += elapsed;
    w.remaining -= std::min(consumed, w.remaining);
    if (w.remaining == 0) {
        w.remaining = 1; // completion event was cancelled; finish later
    }
    w.slice_used += consumed;
    // Preempted work resumes ahead of its queue peers.
    q_[static_cast<size_t>(w.cls)].push_front(std::move(w));
}

void
Cpu::dispatch()
{
    for (size_t core = 0; core < slots_.size(); ++core) {
        Slot &slot = slots_[core];
        if (slot.current) {
            continue;
        }
        // Highest-priority pending work, if any.
        size_t cls = 0;
        while (cls < kNumSchedClasses && q_[cls].empty()) {
            ++cls;
        }
        if (cls == kNumSchedClasses) {
            return; // nothing left to place
        }
        slot.current = std::move(q_[cls].front());
        q_[cls].pop_front();
        Work &w = *slot.current;

        if (w.cls == SchedClass::User && w.tag != slot.last_user_tag) {
            if (slot.last_user_tag != 0) {
                ++ctx_switches_;
                w.remaining += context_switch_cycles_;
            }
            slot.last_user_tag = w.tag;
        }

        uint64_t run_cycles = w.remaining;
        if (w.cls == SchedClass::User) {
            if (timeslice_cycles_ > w.slice_used) {
                run_cycles = std::min(run_cycles,
                                      timeslice_cycles_ - w.slice_used);
            } else {
                w.slice_used = 0; // fresh slice after rotation
                run_cycles = std::min(run_cycles, timeslice_cycles_);
            }
        }

        slot.run_started = sim_.now();
        slot.run_event = sim_.schedule(
            cyclesToTime(run_cycles), [this, core, run_cycles] {
            onRunEnd(core, run_cycles);
        });
    }
}

void
Cpu::onRunEnd(size_t core, uint64_t run_cycles)
{
    Slot &slot = slots_[core];
    Work w = std::move(*slot.current);
    slot.current.reset();

    busy_[static_cast<size_t>(w.cls)] += cyclesToTime(run_cycles);
    w.remaining -= std::min(run_cycles, w.remaining);
    w.slice_used += run_cycles;

    if (w.remaining > 0) {
        // Timeslice expired: rotate behind peers (or continue if alone).
        w.slice_used = 0;
        q_[static_cast<size_t>(w.cls)].push_back(std::move(w));
        dispatch();
        return;
    }

    CompletionFn done = std::move(w.done);
    dispatch();
    if (done) {
        done();
    }
}

} // namespace os
} // namespace diablo
