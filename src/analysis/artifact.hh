#ifndef DIABLO_ANALYSIS_ARTIFACT_HH_
#define DIABLO_ANALYSIS_ARTIFACT_HH_

/**
 * @file
 * Machine-readable run artifacts.
 *
 * A RunArtifact is the structured twin of everything the experiment
 * drivers print: workload identity, engine selection, app-level results
 * (goodput, request counts, latency digests incl. per hop class),
 * network/TCP/fault pathology counters, per-partition engine and
 * packet-pool ledgers, the memory-diet report, and the full resolved
 * configuration.  `diablo_run --json <path>` writes one per run;
 * `diablo_sweep` collects them into a run directory and merges them
 * into a comparison report.  The schema is versioned (`schema`) so
 * downstream readers (bench_guard.py, notebooks) can evolve safely.
 *
 * Determinism: fingerprint() chains the latency-digest fingerprints
 * with every event-driven counter, in a fixed field order, using the
 * same order-sensitive mix the seq≡par engine tests use.  Two runs of
 * the same scenario on the sequential and parallel engines — or with
 * the telemetry probe on and off — must produce equal fingerprints;
 * wall-clock-dependent counters (pool recycle/heap split, high water)
 * and engine-internal event counts are deliberately excluded, and are
 * reported but never folded.
 */

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/config.hh"
#include "core/stats.hh"

namespace diablo {
namespace analysis {

/** Fixed percentile summary of a LatencyStat, safe for both modes. */
struct LatencyDigest {
    uint64_t count = 0;
    double mean = 0.0;
    double min = 0.0;
    double max = 0.0;
    double p50 = 0.0;
    double p90 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
    bool sketched = false;
    double relative_error = 0.0; ///< sketch quantization bound; 0 raw
    uint64_t fingerprint = 0;

    static LatencyDigest of(const LatencyStat &s);
    /** Raw-sample digest (insertion-order fingerprint over the bits). */
    static LatencyDigest of(const SampleSet &s);
};

/** Everything one experiment run reports, JSON-serializable. */
struct RunArtifact {
    /** Bump when a field is renamed/removed; additions are free. */
    static constexpr int kSchemaVersion = 1;

    std::string workload; ///< "memcached" | "incast"
    /**
     * "ok" for a run that completed, "interrupted" for a partial
     * artifact finalized from a SIGINT/SIGTERM handler or a watchdog
     * trip.  Interrupted artifacts carry results-so-far and a
     * fingerprint-so-far; they are real JSON (the writer path is the
     * same) but validate() rejects them, so resumable sweeps re-run
     * those grid points.  Never folded into the fingerprint: a clean
     * run's digest is unchanged by the existence of this field.
     */
    std::string status = "ok";
    /** Why an interrupted run stopped ("SIGTERM", "watchdog-stall"). */
    std::string interrupt_cause;
    std::string engine; ///< "single" | "seq" | "par"
    uint64_t threads_requested = 0;
    uint64_t partitions = 1;
    uint64_t workers = 1;
    /** CPUs the process may use, per its affinity mask (0 = not recorded). */
    uint64_t cores = 0;
    /** True when the run fused more workers than it had CPUs. */
    bool oversubscribed = false;
    /**
     * Worker -> cpu pinning map of the last parallel run (-1 =
     * unpinned); empty single-engine.  Reported, never fingerprinted:
     * placement must not affect results.
     */
    std::vector<int> worker_cpus;

    uint32_t nodes = 0;
    double elapsed_us = 0.0; ///< measured phase, simulated time
    double goodput_mbps = 0.0;
    uint64_t requests_completed = 0;

    /** Named latency digests ("latency_us", "latency_us.local", ...). */
    std::vector<std::pair<std::string, LatencyDigest>> latencies;

    /**
     * Named counter groups ("network", "tcp", "faults", ...).  Groups
     * carrying only event-driven counters fold into the fingerprint;
     * set `deterministic = false` on groups whose values depend on
     * wall-clock scheduling (they are reported but never folded).
     */
    struct CounterGroup {
        std::string name;
        bool deterministic = true;
        std::vector<std::pair<std::string, uint64_t>> counters;
    };
    std::vector<CounterGroup> groups;

    /** Engine + pool ledger per partition (one row single-engine). */
    struct PartitionRow {
        uint64_t events = 0; ///< executed events (engine-internal)
        uint64_t pool_makes = 0;
        uint64_t pool_recycles = 0;
        uint64_t pool_heap_allocs = 0;
        uint64_t pool_returns = 0;
        uint64_t pool_high_water = 0;
    };
    std::vector<PartitionRow> partition_rows;
    uint64_t executed_events = 0; ///< total, engine-internal
    uint64_t quanta = 0;          ///< 0 single-engine

    /** --mem-report ledger; emitted when has_mem is set. */
    bool has_mem = false;
    double peak_rss_mb = 0.0;
    uint64_t materialized_nodes = 0;
    bool lazy_servers = false;
    uint64_t arena_bytes_used = 0;
    uint64_t arena_bytes_reserved = 0;

    /** Telemetry stream metadata (when telemetry.period was set). */
    std::string telemetry_path;
    double telemetry_period_us = 0.0;
    uint64_t telemetry_samples = 0;

    /** Full resolved key=value configuration of the run. */
    Config config;

    /** Add a counter group in one call (keeps call sites compact). */
    CounterGroup &
    addGroup(std::string name, bool deterministic = true)
    {
        groups.push_back(CounterGroup{std::move(name), deterministic, {}});
        return groups.back();
    }

    /**
     * Order-sensitive chained digest over the deterministic fields;
     * see the file comment for what is included.
     */
    uint64_t fingerprint() const;

    /**
     * The measured fields one engine process contributes to a
     * multiprocess run, flattened: a shape word (hash of the group
     * names, counter names and partition-row count), then executed
     * events, every partition row, and every group counter in order.
     * Everything else — results, latencies, engine identity, quanta,
     * config — is one value per run and is never part of a ledger, and
     * so is mem: every rank builds the full model, so mem describes
     * the leader's own process, as peak_rss_mb does.
     */
    std::vector<uint64_t> ledger() const;

    /**
     * Add another process's ledger() into this artifact field by field.
     * Returns false, changing nothing, when @p l does not have this
     * artifact's shape.
     */
    bool addLedger(const std::vector<uint64_t> &l);

    /** Full JSON document (pretty-printed). */
    std::string toJson() const;

    /**
     * Write toJson() to @p path crash-consistently (temp file in the
     * target directory, fsync, rename; fatal on I/O error).  A file at
     * @p path is therefore always a whole document — truncated debris
     * can only exist under a .tmp name a crash left behind.
     */
    void writeJson(const std::string &path) const;

    /**
     * Is the file at @p path a complete artifact of a *finished* run?
     * Distinguishes the three things a run directory can contain at a
     * given artifact name: a complete "ok" artifact (valid — a resumed
     * sweep skips this grid point), an "interrupted" partial artifact
     * (invalid for resume, but status tells the caller why), and
     * debris (unparseable, wrong schema, truncated, or a malformed
     * result — which atomic writes make impossible for *our* writers,
     * but a sweep directory outlives any one process).  A valid
     * artifact also yields the headline results a sweep tabulates.
     */
    struct Validation {
        bool ok = false;      ///< complete artifact of a finished run
        std::string status;   ///< "ok"/"interrupted"/"" (unreadable)
        std::string fingerprint; ///< "0x..." hex string when present
        std::string error;    ///< human-readable reason when !ok
        double elapsed_us = 0.0;
        double goodput_mbps = 0.0;
        uint64_t requests_completed = 0;
        double p99_us = 0.0; ///< first latency digest's; 0 when none
    };
    static Validation validate(const std::string &path);
};

} // namespace analysis
} // namespace diablo

#endif // DIABLO_ANALYSIS_ARTIFACT_HH_
