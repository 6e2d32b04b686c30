#ifndef DIABLO_OS_CPU_HH_
#define DIABLO_OS_CPU_HH_

/**
 * @file
 * Fixed-CPI server CPU with a preemptive priority scheduler.
 *
 * The paper's server timing model is deliberately simple: "a simplified
 * runtime-configurable fixed-CPI timing model, where all instructions
 * take a fixed number of cycles" — the goal is to run the full software
 * stack with an approximate performance bound, not to model
 * microarchitecture (§3.3).  This class is that model: work is expressed
 * in cycles; wall-clock time is cycles * CPI / frequency.
 *
 * Scheduling mirrors the structure of a Linux server: hardware IRQs
 * preempt softirqs preempt kernel threads preempt user threads; user
 * threads round-robin with a kernel-profile timeslice and pay a
 * context-switch penalty when the thread running on a core changes.
 *
 * The paper's prototype "only simulated fixed-CPI single-CPU servers";
 * a multi-core timing model was "planned for DIABLO-2" (§5).  This
 * implementation provides it: CpuParams::cores > 1 schedules the same
 * work queues across multiple identical cores (an SMP run queue).
 */

#include <cstdint>
#include <optional>
#include <vector>

#include "core/config.hh"
#include "core/ring_buffer.hh"
#include "core/simulator.hh"

namespace diablo {
namespace os {

/** Scheduling class; lower value = higher priority, preempts higher. */
enum class SchedClass : uint8_t {
    Irq = 0,
    SoftIrq = 1,
    Kernel = 2,
    User = 3,
};

inline constexpr size_t kNumSchedClasses = 4;

/** Physical CPU parameters. */
struct CpuParams {
    double freq_ghz = 4.0;
    double cpi = 1.0;
    /** Cores sharing one run queue (DIABLO-2 extension; default 1). */
    uint32_t cores = 1;

    /** Read the @p prefix keys over @p defaults. */
    static CpuParams fromConfig(const Config &cfg, const std::string &prefix,
                                const CpuParams &defaults);
    static CpuParams
    fromConfig(const Config &cfg, const std::string &prefix)
    {
        return fromConfig(cfg, prefix, CpuParams());
    }
};

/** Fixed-CPI CPU resource with one or more cores. */
class Cpu {
  public:
    /**
     * Completion callback.  An InlineFunction, not std::function: the
     * kernel's per-packet softirq submissions capture `this` plus a raw
     * packet pointer and a budget — past std::function's 16-byte SBO,
     * which would heap-allocate once per received packet.  The 40-byte
     * inline budget absorbs every capture in the tree.
     */
    using CompletionFn = InlineFunction;

    /**
     * @param timeslice_cycles  user-class round-robin quantum
     * @param context_switch_cycles  charged when the user thread running
     *                               on a core changes
     */
    Cpu(Simulator &sim, const CpuParams &params, uint64_t timeslice_cycles,
        uint64_t context_switch_cycles);

    /**
     * Submit @p cycles of work in class @p cls.  @p thread_tag
     * identifies the user thread for context-switch accounting (use 0
     * for kernel work).  @p done fires when the work has fully executed.
     */
    void submit(SchedClass cls, uint64_t cycles, uint64_t thread_tag,
                CompletionFn done);

    SimTime
    cyclesToTime(uint64_t cycles) const
    {
        return SimTime::fromPs(static_cast<int64_t>(cycles) *
                               ps_per_cycle_);
    }

    /** Cycles elapsed in a duration (floor). */
    uint64_t
    timeToCycles(SimTime t) const
    {
        return static_cast<uint64_t>(t.toPs() / ps_per_cycle_);
    }

    /** True when every core is occupied. */
    bool busy() const;

    uint64_t contextSwitches() const { return ctx_switches_; }
    SimTime busyTime(SchedClass cls) const
    {
        return busy_[static_cast<size_t>(cls)];
    }
    SimTime totalBusyTime() const;

    /**
     * Busy fraction across all cores over @p span of simulated time:
     * the run's measured span (e.g. McExperimentResult::elapsed), not
     * the clock, which each engine leaves at a different point.
     */
    double utilization(SimTime span) const;

    const CpuParams &params() const { return params_; }
    uint32_t cores() const { return static_cast<uint32_t>(slots_.size()); }

  private:
    struct Work {
        SchedClass cls = SchedClass::User;
        uint64_t remaining = 0;
        uint64_t tag = 0;
        CompletionFn done;
        uint64_t slice_used = 0;
    };

    /** One core's execution slot. */
    struct Slot {
        std::optional<Work> current;
        SimTime run_started;
        EventId run_event;
        uint64_t last_user_tag = 0;
    };

    void dispatch();
    void preemptSlot(size_t core);
    void onRunEnd(size_t core, uint64_t run_cycles);
    /** Core to preempt for @p cls, or -1 if none is lower priority. */
    int victimFor(SchedClass cls) const;

    Simulator &sim_;
    CpuParams params_;
    int64_t ps_per_cycle_;
    uint64_t timeslice_cycles_;
    uint64_t context_switch_cycles_;

    RingBuffer<Work> q_[kNumSchedClasses];
    std::vector<Slot> slots_;

    uint64_t ctx_switches_ = 0;
    SimTime busy_[kNumSchedClasses];
};

} // namespace os
} // namespace diablo

#endif // DIABLO_OS_CPU_HH_
