#ifndef DIABLO_ANALYSIS_AVAILABILITY_HH_
#define DIABLO_ANALYSIS_AVAILABILITY_HH_

/**
 * @file
 * Availability / graceful-degradation report for fault-injection runs.
 *
 * Fault experiments ask a time-phased question — what did the workload
 * deliver while healthy, during the outage, and after repair? — so the
 * report buckets application-level deliveries into named phases of the
 * simulated timeline and pairs the per-phase goodput with the fault
 * counters the run recorded (reroutes, link drops, TCP retransmits,
 * aborted vs. recovered flows).
 *
 * Everything in the report is derived from simulated time and integer
 * counters, so a report's fingerprint() is a deterministic function of
 * the run: sequential and sharded-parallel executions of the same
 * seeded scenario must produce equal fingerprints, which is exactly how
 * the fault tests assert bit-identity.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "core/time.hh"

namespace diablo {
namespace analysis {

/** Phased goodput + fault-counter summary of one faulted run. */
class AvailabilityReport {
  public:
    /**
     * Add a phase covering simulated [begin, end).  Phases may not
     * overlap if per-phase goodput is to partition deliveries, but the
     * report does not enforce that — tests sometimes want nested
     * windows.
     */
    void definePhase(const std::string &name, SimTime begin, SimTime end);

    /** Record @p bytes of application-level delivery at time @p at. */
    void recordDelivery(SimTime at, uint64_t bytes);

    /** Attach a named scalar counter (reroutes, retransmits, ...). */
    void setCounter(const std::string &name, uint64_t value);

    /** Bytes delivered inside phase @p i's window. */
    uint64_t phaseBytes(size_t i) const { return phases_[i].bytes; }

    /** Application goodput over phase @p i's window, in Mbit/s. */
    double phaseGoodputMbps(size_t i) const;

    /** Value of counter @p name (0 when never set). */
    uint64_t counter(const std::string &name) const;

    /**
     * Deterministic digest of the whole report — phase definitions,
     * per-phase byte totals, delivery count, and every counter — for
     * asserting bit-identical sequential vs. parallel runs.
     */
    uint64_t fingerprint() const;

    /** Render the phase table and counters. */
    std::string str() const;

  private:
    struct Phase {
        std::string name;
        SimTime begin;
        SimTime end;
        uint64_t bytes = 0;
        uint64_t deliveries = 0;
    };

    struct NamedCounter {
        std::string name;
        uint64_t value = 0;
    };

    std::vector<Phase> phases_;
    std::vector<NamedCounter> counters_; ///< insertion-ordered
    uint64_t total_bytes_ = 0;
    uint64_t total_deliveries_ = 0;
};

} // namespace analysis
} // namespace diablo

#endif // DIABLO_ANALYSIS_AVAILABILITY_HH_
