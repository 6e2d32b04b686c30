#ifndef DIABLO_SIM_TELEMETRY_HH_
#define DIABLO_SIM_TELEMETRY_HH_

/**
 * @file
 * In-run streaming telemetry: watch a warehouse-scale run live instead
 * of waiting for the end-of-run report.
 *
 * A TelemetryProbe snapshots a running Cluster on the *simulated*
 * clock — every `period` of sim-time it appends one JSON line to a
 * JSONL stream: goodput over the interval, requests completed
 * (cumulative + delta), p99-so-far, the packet-pool ledger,
 * materialized-node delta, and engine progress.  Because sampling is
 * driven by simulated time and the probe only *reads* model state,
 * enabling it never perturbs simulated results: runs with telemetry on
 * and off are bit-identical (asserted by tests for every engine).
 *
 * The probe has one mode on every engine: the shared run loop
 * (Cluster::drive) hands each window to driveTo(), which ends sub-windows
 * at the sample instants and samples between them, where no engine
 * worker is running, so cross-partition reads are race-free.
 */

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>

#include "core/time.hh"

namespace diablo {
namespace sim {

class Cluster;

/** Streams periodic cluster snapshots to a JSONL file. */
class TelemetryProbe {
  public:
    /** App-level progress the driving harness knows and models don't. */
    struct AppStats {
        uint64_t requests_completed = 0;
        uint64_t bytes = 0;    ///< app payload bytes moved so far
        double p99_us = 0.0;   ///< p99-so-far of the app's latency stat
    };
    using Sampler = std::function<void(AppStats &)>;

    /**
     * Opens @p path for writing (fatal on failure).  @p period must be
     * positive.  The probe takes its first sample at the first
     * period boundary, not at time 0.
     */
    TelemetryProbe(Cluster &cluster, SimTime period, std::string path);
    ~TelemetryProbe();

    TelemetryProbe(const TelemetryProbe &) = delete;
    TelemetryProbe &operator=(const TelemetryProbe &) = delete;

    /** Provide app-level numbers; called once per sample. */
    void setSampler(Sampler s) { sampler_ = std::move(s); }

    /**
     * Drive the engine to exactly @p until while sampling on the
     * period grid: repeatedly advances to the next sample instant (via
     * @p run, which must advance the engine to its argument), samples,
     * and finishes at @p until.  The caller's window sequence is
     * unchanged — the same outer windows run with telemetry on or off,
     * which is what keeps window-quantized measurements bit-identical
     * either way.  Returns false, without sampling further, as soon as
     * @p run does.
     */
    bool driveTo(SimTime until, const std::function<bool(SimTime)> &run);

    SimTime period() const { return period_; }
    uint64_t samplesWritten() const { return samples_; }
    const std::string &path() const { return path_; }

    /** Flush the stream (rows are also flushed per sample). */
    void flush();

  private:
    void sample(SimTime t);

    Cluster &cluster_;
    SimTime period_;
    SimTime next_due_;
    std::string path_;
    FILE *out_ = nullptr;
    Sampler sampler_;
    uint64_t samples_ = 0;

    // previous-sample state for the delta columns
    uint64_t last_requests_ = 0;
    uint64_t last_bytes_ = 0;
    uint64_t last_events_ = 0;
    uint64_t last_materialized_ = 0;
};

} // namespace sim
} // namespace diablo

#endif // DIABLO_SIM_TELEMETRY_HH_
