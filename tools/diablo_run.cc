/**
 * @file
 * diablo_run: command-line front end for ad-hoc experiments.
 *
 * Runs one of the built-in workloads on a cluster described entirely by
 * key=value overrides (every model parameter is runtime-configurable,
 * like DIABLO's FAME models):
 *
 *   diablo_run memcached topo.num_arrays=2 kernel.version=3.5.7 \
 *              mc.requests=500 mc.udp=false
 *   diablo_run incast incast.servers=16 topo.rack.buffer_per_port_bytes=4096
 *
 * Unknown keys are ignored by the models that do not read them, so the
 * full key set is discoverable from the *Params::fromConfig readers.
 *
 * --fault-plan <file> injects a deterministic fault timeline (see
 * sim::FaultPlan::fromFile for the key=value schema) into the run;
 * fault.<i>.* keys given directly on the command line work too, and
 * when both are present the file's timeline comes first with the
 * command-line events appended (and a command-line fault.seed winning).
 * Unlike model keys, a fault.* key the plan does not read is fatal.
 *
 * Every --flag that takes a value is spelled "--flag value" or
 * "--flag=value" (FlagReader); a malformed value exits 2.
 *
 * --engine <single|seq|par> selects the execution engine: `single`
 * (default) runs the whole array on one Simulator; `seq` and `par`
 * build the rack/switch-sharded cluster and drive it with the
 * sequential reference or the fused parallel engine — all three
 * produce the same simulated results, and seq and par bit-identical
 * artifact fingerprints (DESIGN.md §10).  --threads <N> caps the
 * parallel engine's worker count (0 = one per CPU the process may use,
 * so taskset and numactl confine the engine).
 *
 * --json <path> writes the machine-readable run artifact (see
 * analysis::RunArtifact for the schema): everything the text report
 * prints — goodput, latency digests incl. per hop class, datapath /
 * pool / fault / memory counters, engine + quanta stats, the run's
 * determinism fingerprint, and the full key=value configuration.
 * diablo_sweep consumes these artifacts.
 *
 * telemetry.period=<sim-time µs> streams in-run snapshots (goodput,
 * requests completed, p99-so-far, pool ledger, materialized-node
 * deltas) to a JSONL file every period of *simulated* time
 * (telemetry.path overrides the destination, default <json>.telemetry
 * .jsonl).  Sampling only reads model state on the simulated clock, so
 * enabling it never changes simulated results or fingerprints.
 *
 * Unattended operation: SIGINT/SIGTERM finalize a *partial* --json
 * artifact (`"status": "interrupted"`, results-so-far, fingerprint-so-
 * far), flush telemetry, and exit with core::kExitInterrupted (75).
 * run.deadline=<s> caps the run's wall clock and run.stall=<s> trips
 * when the engine makes no progress for that long; either dumps a
 * best-effort engine diagnostic (sim time, per-partition next-event
 * minima, pool ledgers), requests the same cooperative finalize, and
 * hard-exits with core::kExitWatchdog (76) if the run stays wedged past
 * run.grace=<s> (default 5).
 *
 * --mem-report prints the memory-diet ledger after the run: peak RSS,
 * bytes per simulated node, how many nodes were actually materialized
 * (sim.lazy_servers=true defers node construction to first use), and
 * the per-arena slab ledgers.  Paper-scale knobs: mc.clients caps the
 * active client count (0 = every non-server node), stats.sketch=true
 * records latencies into fixed-memory quantile sketches.
 */

#include <fcntl.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "apps/incast.hh"
#include "apps/mc_experiment.hh"
#include "analysis/artifact.hh"
#include "analysis/report.hh"
#include "core/cpu_topology.hh"
#include "core/interrupt.hh"
#include "core/shm.hh"
#include "fame/transport.hh"
#include "sim/fault.hh"
#include "sim/telemetry.hh"
#include "sim/watchdog.hh"

using namespace diablo;

namespace {

/** Which engine drives the run (see the file comment). */
enum class Engine { Single, Seq, Par };

struct EngineOpts {
    Engine engine = Engine::Single;
    size_t threads = 0; ///< parallel worker cap; 0 = one per allowed CPU
    bool pin = true;    ///< pin workers to the allowed CPUs
    bool mem_report = false;
    /**
     * Engine processes (--processes).  >1 selects the coupled
     * multiprocess engine: the launcher re-execs N-1 child copies of
     * this binary, partitions are assigned to ranks by the same LPT
     * balance the parallel engine uses, and the group runs in lockstep
     * windows over shared-memory ring transports.  Results are
     * bit-identical to seq/par.  Child ranks carry the group size.
     */
    size_t processes = 1;

    bool
    parseEngine(const char *val)
    {
        if (std::strcmp(val, "single") == 0) {
            engine = Engine::Single;
        } else if (std::strcmp(val, "seq") == 0) {
            engine = Engine::Seq;
        } else if (std::strcmp(val, "par") == 0) {
            engine = Engine::Par;
        } else {
            return false;
        }
        return true;
    }

    const char *
    name() const
    {
        if (processes > 1) {
            return "mp";
        }
        switch (engine) {
        case Engine::Single:
            return "single";
        case Engine::Seq:
            return "seq";
        case Engine::Par:
            return "par";
        }
        return "?";
    }
};

/** Everything main() parses besides key=value model overrides. */
struct RunOpts {
    EngineOpts eng;
    const char *plan_file = nullptr;
    const char *json_path = nullptr;

    /** Original command line, for re-execing child engine ranks. */
    int argc = 0;
    char **argv = nullptr;

    // --- child-rank identity (internal --proc-* flags) ---------------
    uint32_t proc_rank = 0;        ///< this process's coupled rank
    uint32_t proc_nprocs = 0;      ///< group size
    const char *proc_shm = nullptr; ///< group segment path
    int proc_result_fd = -1;       ///< pipe back to the launcher

    bool isChildRank() const { return proc_shm != nullptr; }
};

/**
 * Build the run's fault plan: the --fault-plan file (when given) comes
 * first, then any fault.<i>.* command-line events are appended, with a
 * command-line fault.seed overriding the file's.  Returns an empty
 * plan when the run is fault-free.
 */
sim::FaultPlan
makeFaultPlan(const Config &cfg, const char *plan_file)
{
    sim::FaultPlan cli = sim::FaultPlan::fromConfig(cfg);
    if (plan_file == nullptr) {
        return cli;
    }
    sim::FaultPlan plan = sim::FaultPlan::fromFile(plan_file);
    plan.merge(cli, /*take_seed=*/cfg.has("fault.seed"));
    return plan;
}

/** One PartitionRow per engine partition (one for the single engine). */
std::vector<analysis::RunArtifact::PartitionRow>
partitionRows(sim::Cluster &cluster)
{
    const auto pools = cluster.poolStats();
    std::vector<analysis::RunArtifact::PartitionRow> rows(pools.size());
    for (size_t i = 0; i < pools.size(); ++i) {
        rows[i].events = cluster.partitions()[i]->executedEvents();
        rows[i].pool_makes = pools[i].makes;
        rows[i].pool_recycles = pools[i].recycles;
        rows[i].pool_heap_allocs = pools[i].heap_allocs;
        rows[i].pool_returns = pools[i].returns;
        rows[i].pool_high_water = pools[i].high_water;
    }
    return rows;
}

/** One executed-event + packet-pool ledger line per partition. */
void
printPartitionRows(
    std::FILE *out,
    const std::vector<analysis::RunArtifact::PartitionRow> &rows)
{
    for (size_t i = 0; i < rows.size(); ++i) {
        const auto &p = rows[i];
        std::fprintf(out, "  part %zu: events=%llu pool makes=%llu "
                     "recycles=%llu heap=%llu returns=%llu "
                     "high_water=%llu\n",
                     i, static_cast<unsigned long long>(p.events),
                     static_cast<unsigned long long>(p.pool_makes),
                     static_cast<unsigned long long>(p.pool_recycles),
                     static_cast<unsigned long long>(p.pool_heap_allocs),
                     static_cast<unsigned long long>(p.pool_returns),
                     static_cast<unsigned long long>(p.pool_high_water));
    }
}

/**
 * The report's engine line, every counter group as a "name: key=value
 * ..." line and the partition rows, all read from the artifact, so a
 * multiprocess leader prints the group's merged totals.
 */
void
printCounters(const analysis::RunArtifact &a)
{
    std::printf("engine=%s partitions=%llu workers=%llu quanta=%llu\n",
                a.engine.c_str(),
                static_cast<unsigned long long>(a.partitions),
                static_cast<unsigned long long>(a.workers),
                static_cast<unsigned long long>(a.quanta));
    for (const auto &g : a.groups) {
        std::printf("%s:", g.name.c_str());
        for (const auto &[key, v] : g.counters) {
            std::printf(" %s=%llu", key.c_str(),
                        static_cast<unsigned long long>(v));
        }
        std::printf("\n");
    }
    printPartitionRows(stdout, a.partition_rows);
}

uint64_t
peakRssBytes()
{
    struct rusage ru;
    std::memset(&ru, 0, sizeof(ru));
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<uint64_t>(ru.ru_maxrss) * 1024;
}

/**
 * The memory-diet ledger: process peak RSS, bytes per simulated node,
 * materialization ratio, and the per-arena slab accounting (one arena
 * per rack partition on a sharded build; empty arenas are summarized).
 */
void
printMemReport(sim::Cluster &cluster)
{
    const uint64_t rss = peakRssBytes();
    const uint32_t nodes = cluster.size();

    std::printf("mem: peak_rss=%.1f MB bytes/node=%.0f nodes/GB=%.0f\n",
                static_cast<double>(rss) / (1024.0 * 1024.0),
                static_cast<double>(rss) / nodes,
                static_cast<double>(nodes) /
                    (static_cast<double>(rss) /
                     (1024.0 * 1024.0 * 1024.0)));
    std::printf("mem: materialized=%zu/%u nodes (%s)\n",
                cluster.materializedServers(), nodes,
                cluster.params().lazy_servers ? "lazy" : "eager");

    const auto arenas = cluster.arenaStats();
    uint64_t used = 0, reserved = 0;
    size_t nonempty = 0;
    for (size_t i = 0; i < arenas.size(); ++i) {
        used += arenas[i].bytes_used;
        reserved += arenas[i].bytes_reserved;
        if (arenas[i].nodes != 0) {
            ++nonempty;
            std::printf("  arena %zu: nodes=%llu used=%llu reserved=%llu\n",
                        i,
                        static_cast<unsigned long long>(arenas[i].nodes),
                        static_cast<unsigned long long>(
                            arenas[i].bytes_used),
                        static_cast<unsigned long long>(
                            arenas[i].bytes_reserved));
        }
    }
    std::printf("mem: arenas=%zu (%zu populated) used=%llu "
                "reserved=%llu bytes\n",
                arenas.size(), nonempty,
                static_cast<unsigned long long>(used),
                static_cast<unsigned long long>(reserved));
}

/** "256KB"-style rendering of a byte count for the incast summary. */
std::string
fmtBytes(uint64_t b)
{
    char buf[32];
    if (b >= 1024 * 1024 && b % (1024 * 1024) == 0) {
        std::snprintf(buf, sizeof(buf), "%lluMB",
                      static_cast<unsigned long long>(b >> 20));
    } else if (b >= 1024 && b % 1024 == 0) {
        std::snprintf(buf, sizeof(buf), "%lluKB",
                      static_cast<unsigned long long>(b >> 10));
    } else {
        std::snprintf(buf, sizeof(buf), "%lluB",
                      static_cast<unsigned long long>(b));
    }
    return buf;
}

/**
 * Construct the telemetry probe when telemetry.period (sim-time µs) is
 * set.  The stream goes to telemetry.path, defaulting to the --json
 * path with a .telemetry.jsonl suffix (or ./telemetry.jsonl when the
 * run has no artifact).
 */
std::unique_ptr<sim::TelemetryProbe>
makeProbe(const Config &cfg, sim::Cluster &cluster, const RunOpts &opts)
{
    const double period_us = cfg.getDouble("telemetry.period", 0.0);
    if (period_us <= 0.0) {
        return nullptr;
    }
    std::string def = opts.json_path != nullptr
                          ? std::string(opts.json_path) +
                                ".telemetry.jsonl"
                          : std::string("telemetry.jsonl");
    return std::make_unique<sim::TelemetryProbe>(
        cluster, SimTime::microseconds(period_us),
        cfg.getString("telemetry.path", def));
}

/**
 * Build the run watchdog when run.deadline / run.stall (wall-clock
 * seconds) are configured.  The diagnostic dump reads engine state
 * best-effort — the run may be wedged mid-quantum, so the values are
 * for post-mortems, not for consumption by tools.
 */
std::unique_ptr<sim::Watchdog>
makeWatchdog(const Config &cfg, sim::Cluster &cluster)
{
    sim::Watchdog::Params wp;
    wp.deadline_s = cfg.getDouble("run.deadline", 0.0);
    wp.stall_s = cfg.getDouble("run.stall", 0.0);
    wp.grace_s = cfg.getDouble("run.grace", 5.0);
    if (!wp.enabled()) {
        return nullptr;
    }
    auto diag = [&cluster](const char *reason) {
        std::fprintf(stderr, "watchdog: engine state at %s trip "
                     "(best effort):\n", reason);
        if (fame::PartitionSet *ps = cluster.partitionSet()) {
            std::fprintf(stderr,
                         "  quanta=%llu total_events=%llu\n",
                         static_cast<unsigned long long>(
                             ps->quantaExecuted()),
                         static_cast<unsigned long long>(
                             ps->totalExecutedEvents()));
        }
        const std::vector<Simulator *> &parts = cluster.partitions();
        for (size_t i = 0; i < parts.size(); ++i) {
            std::fprintf(stderr, "  part %zu: now=%s next_event=%s\n", i,
                         parts[i]->now().str().c_str(),
                         parts[i]->nextEventTime().str().c_str());
        }
        printPartitionRows(stderr, partitionRows(cluster));
    };
    auto wd = std::make_unique<sim::Watchdog>(wp, std::move(diag));
    wd->arm();
    return wd;
}

/**
 * The engine a workload runs on, plus the observers every driver
 * installs on it.
 */
struct RunEngine {
    std::unique_ptr<Simulator> sim;         ///< --engine single
    std::unique_ptr<fame::PartitionSet> ps; ///< seq, par and mp ranks
    std::unique_ptr<sim::FaultController> fc;
    std::unique_ptr<sim::TelemetryProbe> probe;
    std::unique_ptr<sim::Watchdog> wd;

    /**
     * The run loop's pulse, before every window: publish the
     * watchdog's progress counter and report a requested stop.
     */
    bool
    pulse() const
    {
        if (wd != nullptr) {
            wd->noteProgress(ps != nullptr ? ps->totalExecutedEvents()
                                           : sim->executedEvents());
        }
        return core::interruptRequested();
    }
};

/**
 * One Simulator for the single engine; otherwise a PartitionSet sized
 * for the rack/switch-sharded cluster @p cp describes.
 */
RunEngine
makeEngine(const sim::ClusterParams &cp, const EngineOpts &eng)
{
    RunEngine e;
    if (eng.engine == Engine::Single && eng.processes == 1) {
        e.sim = std::make_unique<Simulator>();
    } else {
        e.ps = std::make_unique<fame::PartitionSet>(
            sim::Cluster::partitionsRequired(cp));
        e.ps->setParallelism(eng.threads);
        e.ps->setWorkerPinning(eng.pin);
    }
    return e;
}

/**
 * Install the fault plan, the telemetry probe and the watchdog on a
 * freshly built @p cluster.  Child engine ranks install the plan
 * without printing it and run no watchdog: they follow the leader's.
 */
void
installObservers(RunEngine &e, sim::Cluster &cluster, const Config &cfg,
                 const sim::FaultPlan &plan, const RunOpts &opts)
{
    if (!plan.empty()) {
        if (!opts.isChildRank()) {
            std::printf("%s", plan.str().c_str());
        }
        e.fc = std::make_unique<sim::FaultController>(cluster, plan);
        e.fc->install();
    }
    e.probe = makeProbe(cfg, cluster, opts);
    if (!opts.isChildRank()) {
        e.wd = makeWatchdog(cfg, cluster);
    }
}

void writeArtifact(const analysis::RunArtifact &a, const RunOpts &opts);

/**
 * The run was cut short (signal or watchdog): finalize the partial
 * artifact with status "interrupted" + the cause, flush the telemetry
 * stream, and map the cause to the exit code contract (75 signal, 76
 * watchdog).
 */
int
finalizeInterrupted(analysis::RunArtifact &a, const RunOpts &opts,
                    sim::TelemetryProbe *probe)
{
    a.status = "interrupted";
    a.interrupt_cause = core::interruptCauseName();
    if (probe != nullptr) {
        probe->flush();
    }
    writeArtifact(a, opts);
    std::fprintf(stderr, "run interrupted (%s); partial artifact "
                 "finalized\n", a.interrupt_cause.c_str());
    const int cause = core::interruptCause();
    return cause == core::kCauseWatchdogDeadline ||
                   cause == core::kCauseWatchdogStall
               ? core::kExitWatchdog
               : core::kExitInterrupted;
}

/**
 * The measured sections: what one engine process counts of the model
 * it advances — executed events, per-partition event/pool ledgers, the
 * network, datapath and fault counter groups, the memory ledger and,
 * coupled, the transport counters.  Every run builds them here; a
 * multiprocess leader then adds each child rank's ledger() of the same
 * sections, which sums the ranks' shares into the one-process totals.
 */
void
fillMeasured(analysis::RunArtifact &a, sim::Cluster &cluster,
             const sim::FaultPlan &plan)
{
    a.partition_rows = partitionRows(cluster);
    a.executed_events = 0;
    for (const analysis::RunArtifact::PartitionRow &row : a.partition_rows) {
        a.executed_events += row.events;
    }

    auto &net = a.addGroup("network");
    net.counters = {
        {"switch_drops", cluster.network().totalSwitchDrops()},
        {"forwarded", cluster.network().totalForwarded()},
        {"tcp_retransmits", cluster.totalTcpRetransmits()},
        {"tcp_rtos", cluster.totalTcpRtos()},
        {"udp_socket_drops", cluster.totalUdpSocketDrops()},
        {"nic_rx_drops", cluster.totalNicRxDrops()},
    };
    auto &dp = a.addGroup("datapath");
    dp.counters = {
        {"delivery_trains", cluster.totalDeliveryTrains()},
        {"deliveries_coalesced", cluster.totalDeliveriesCoalesced()},
        {"nic_tx_ring_drops", cluster.totalNicTxRingDrops()},
    };
    if (!plan.empty()) {
        auto &f = a.addGroup("faults");
        f.counters = {
            {"reroutes", cluster.network().rerouteCount()},
            {"link_down_drops", cluster.network().totalLinkDownDrops()},
            {"link_degrade_drops",
             cluster.network().totalLinkDegradeDrops()},
            {"tcp_aborts", cluster.totalTcpAborts()},
            {"tcp_recovered", cluster.totalTcpRecovered()},
            {"crash_rx_discards", cluster.totalCrashRxDiscards()},
        };
    }

    a.materialized_nodes = cluster.materializedServers();
    for (const auto &ar : cluster.arenaStats()) {
        a.arena_bytes_used += ar.bytes_used;
        a.arena_bytes_reserved += ar.bytes_reserved;
    }

    fame::PartitionSet *ps = cluster.partitionSet();
    if (ps != nullptr && ps->coupled()) {
        // Wall-clock-dependent transport counters: reported for the
        // bench tooling, deliberately excluded from the fingerprint
        // (single-process runs have no such group).
        const fame::PartitionSet::CoupledStats &cs = ps->coupledStats();
        auto &mp = a.addGroup("mp", /*deterministic=*/false);
        mp.counters = {
            {"sync_sent", cs.sync_sent},
            {"sync_recv", cs.sync_recv},
            {"msgs_sent", cs.msgs_sent},
            {"msgs_recv", cs.msgs_recv},
            {"bytes_sent", cs.bytes_sent},
            {"bytes_recv", cs.bytes_recv},
            {"waits_elided", cs.waits_elided},
            {"waits_blocked", cs.waits_blocked},
        };
    }
}

/**
 * The per-run sections, filled once after any ledger merge: engine
 * identity, the per-run constants, peak RSS, telemetry metadata and the
 * resolved configuration.  The constants must never be summed across
 * ranks, so they go in only now, at the positions the fingerprint
 * folds them in: the workload's @p app group first, the plan size at
 * the head of "faults", the process count at the head of "mp".
 */
void
fillCommonArtifact(analysis::RunArtifact &a,
                   analysis::RunArtifact::CounterGroup app,
                   sim::Cluster &cluster, const Config &cfg,
                   const RunOpts &opts, const sim::FaultPlan &plan,
                   const sim::TelemetryProbe *probe)
{
    a.engine = opts.eng.name();
    a.threads_requested = opts.eng.threads;
    a.nodes = cluster.size();

    fame::PartitionSet *ps = cluster.partitionSet();
    a.partitions = cluster.partitions().size();
    a.workers = (ps != nullptr && opts.eng.engine == Engine::Par)
                    ? ps->lastRunWorkers()
                    : 1;
    a.cores = allowedCpus().size();
    if (ps != nullptr && opts.eng.engine == Engine::Par) {
        a.oversubscribed = ps->lastRunOversubscribed();
        a.worker_cpus = ps->lastRunWorkerCpus();
    }
    a.quanta = ps != nullptr ? ps->quantaExecuted() : 0;

    a.groups.insert(a.groups.begin(), std::move(app));
    for (auto &g : a.groups) {
        if (g.name == "faults") {
            g.counters.emplace(g.counters.begin(), "plan_events",
                               plan.size());
        } else if (g.name == "mp") {
            g.counters.emplace(g.counters.begin(), "processes",
                               opts.eng.processes);
        }
    }

    a.has_mem = true;
    a.peak_rss_mb =
        static_cast<double>(peakRssBytes()) / (1024.0 * 1024.0);
    a.lazy_servers = cluster.params().lazy_servers;

    if (probe != nullptr) {
        a.telemetry_path = probe->path();
        a.telemetry_period_us = probe->period().asMicros();
        a.telemetry_samples = probe->samplesWritten();
    }

    a.config = cfg;
    a.config.set("resolved.kernel",
                 cluster.params().kernel_profile.name);
}

void
writeArtifact(const analysis::RunArtifact &a, const RunOpts &opts)
{
    if (opts.json_path == nullptr) {
        return;
    }
    a.writeJson(opts.json_path);
    std::printf("artifact: %s\n", opts.json_path);
}

int
runMemcached(const Config &cfg, const sim::FaultPlan &plan,
             const RunOpts &opts)
{
    const EngineOpts &eng = opts.eng;
    apps::McExperimentParams p;
    p.cluster = cfg.getDouble("topo.rack.port_gbps", 1.0) > 5
                    ? sim::ClusterParams::tengig100ns()
                    : sim::ClusterParams::gige1us();
    p.cluster.applyConfig(cfg);
    p.num_servers = static_cast<uint32_t>(
        cfg.getUint("mc.servers",
                    2 * p.cluster.topo.racks_per_array *
                        p.cluster.topo.num_arrays));
    p.num_clients = static_cast<uint32_t>(cfg.getUint("mc.clients", 0));
    p.sketch_stats = cfg.getBool("stats.sketch", false);
    p.server.udp = cfg.getBool("mc.udp", true);
    p.server.version = static_cast<int>(cfg.getUint("mc.version", 1417));
    p.server.worker_threads = static_cast<uint32_t>(
        cfg.getUint("mc.workers", 4));
    p.client.udp = p.server.udp;
    p.client.requests = static_cast<uint32_t>(
        cfg.getUint("mc.requests", 200));
    p.client.think_mean = SimTime::microseconds(
        cfg.getDouble("mc.think_us", 1500.0));

    RunEngine e = makeEngine(p.cluster, eng);
    std::unique_ptr<apps::McExperiment> exp =
        e.sim != nullptr ? std::make_unique<apps::McExperiment>(*e.sim, p)
                         : std::make_unique<apps::McExperiment>(*e.ps, p);
    installObservers(e, exp->cluster(), cfg, plan, opts);
    if (e.probe != nullptr) {
        e.probe->setSampler([&exp](sim::TelemetryProbe::AppStats &s) {
            const auto ls = exp->liveStats();
            s.requests_completed = ls.requests_completed;
            s.p99_us = ls.p99_us;
        });
        exp->attachTelemetry(e.probe.get());
    }
    exp->setPulse([&e] { return e.pulse(); });
    exp->run(eng.engine == Engine::Par);
    if (e.wd != nullptr) {
        e.wd->disarm();
    }
    const auto &r = exp->result();
    analysis::RunArtifact a;
    fillMeasured(a, exp->cluster(), plan);
    a.workload = "memcached";
    a.elapsed_us = r.elapsed.asMicros();
    a.requests_completed = r.requests_completed;
    a.latencies.emplace_back("latency_us",
                             analysis::LatencyDigest::of(r.latency_us));
    const char *names[3] = {"local", "1-hop", "2-hop"};
    for (int h = 0; h < 3; ++h) {
        a.latencies.emplace_back(
            std::string("latency_us.") + names[h],
            analysis::LatencyDigest::of(r.latency_us_by_hop[h]));
    }
    a.latencies.emplace_back(
        "first_request_us", analysis::LatencyDigest::of(r.first_request_us));
    fillCommonArtifact(a,
                       {"app",
                        true,
                        {
                            {"servers", r.servers},
                            {"clients", r.clients},
                            {"udp_retries", r.udp_retries},
                            {"udp_lost", r.udp_timeouts},
                        }},
                       exp->cluster(), cfg, opts, plan, e.probe.get());
    a.config.set("resolved.proto", p.server.udp ? "UDP" : "TCP");

    std::printf("nodes=%u servers=%u clients=%u proto=%s kernel=%s\n",
                a.nodes, r.servers, r.clients, p.server.udp ? "UDP" : "TCP",
                p.cluster.kernel_profile.name.c_str());
    std::printf("completed=%llu in %s (sim), %llu events\n",
                static_cast<unsigned long long>(r.requests_completed),
                r.elapsed.str().c_str(),
                static_cast<unsigned long long>(a.executed_events));
    std::printf("latency %s\n",
                analysis::latencySummary(r.latency_us).c_str());
    for (int h = 0; h < 3; ++h) {
        if (r.latency_us_by_hop[h].count()) {
            std::printf("  %-5s %s\n", names[h],
                        analysis::latencySummary(
                            r.latency_us_by_hop[h]).c_str());
        }
    }
    printCounters(a);
    if (eng.mem_report) {
        printMemReport(exp->cluster());
    }
    if (exp->aborted()) {
        return finalizeInterrupted(a, opts, e.probe.get());
    }
    writeArtifact(a, opts);
    return 0;
}

/** The incast scenario every engine and every rank builds alike. */
struct IncastSetup {
    uint32_t n = 0;     ///< fan-in servers
    uint32_t racks = 0;
    sim::ClusterParams cp;
    apps::IncastParams ip;
    std::vector<net::NodeId> servers;
};

IncastSetup
makeIncastSetup(const Config &cfg)
{
    IncastSetup s;
    s.n = static_cast<uint32_t>(cfg.getUint("incast.servers", 8));
    // incast.racks spreads the fan-in across racks so the trunk and
    // the sharded engines have cross-partition traffic to chew on;
    // the default keeps the classic single-ToR shape.
    s.racks = static_cast<uint32_t>(cfg.getUint("incast.racks", 1));
    s.cp = cfg.getDouble("topo.rack.port_gbps", 1.0) > 5
               ? sim::ClusterParams::tengig100ns()
               : sim::ClusterParams::gige1us();
    s.cp.applyConfig(cfg);
    s.cp.topo.servers_per_rack = (s.n + 1 + s.racks - 1) / s.racks;
    s.cp.topo.racks_per_array = s.racks;
    s.cp.topo.num_arrays = 1;
    s.ip.block_bytes = cfg.getUint("incast.block_bytes", 256 * 1024);
    s.ip.iterations = static_cast<uint32_t>(
        cfg.getUint("incast.iterations", 20));
    s.ip.use_epoll = cfg.getBool("incast.epoll", false);
    for (uint32_t i = 1; i <= s.n; ++i) {
        s.servers.push_back(i);
    }
    return s;
}

// ====================================================================
// Coupled multiprocess engine (--processes N)
//
// The leader (rank 0) spawns N-1 re-exec'd copies of this binary, then
// builds the full model like any run and drives the group through
// outer windows via the shared control block; every rank runs only the
// partitions the deterministic LPT assignment gives it, exchanging
// trunk packets and sync records over shared-memory rings (one
// fame::Transport per peer, from fame::groupTransport).  Results are bit-identical to the seq/par
// engines: every child fills the same measured artifact sections as
// any run and writes their ledger() down a pipe, and the leader adds
// each ledger into its own before the per-run constants go in, so the
// fingerprint folds the values a single-process run would have
// produced.
// ====================================================================

bool
writeAll(int fd, const void *p, size_t n)
{
    const char *b = static_cast<const char *>(p);
    while (n > 0) {
        const ssize_t w = write(fd, b, n);
        if (w < 0) {
            if (errno == EINTR) {
                continue;
            }
            return false;
        }
        b += w;
        n -= static_cast<size_t>(w);
    }
    return true;
}

bool
readAll(int fd, void *p, size_t n)
{
    char *b = static_cast<char *>(p);
    while (n > 0) {
        const ssize_t r = read(fd, b, n);
        if (r < 0) {
            if (errno == EINTR) {
                continue;
            }
            return false;
        }
        if (r == 0) {
            return false; // EOF: the child died before reporting
        }
        b += r;
        n -= static_cast<size_t>(r);
    }
    return true;
}

/**
 * One process's side of a --processes group: the shared segment, the
 * ring transports to the other ranks and, on the leader, the child
 * ranks it spawned.  Inactive for single-process runs.
 */
class ProcessGroup {
  public:
    bool active() const { return ctl_ != nullptr; }

    /** Some rank saw a local interrupt. */
    bool
    anyInterrupted() const
    {
        return ctl_ != nullptr && ctl_->anyInterrupted();
    }

    /**
     * Leader: clamp the process count to the partitions there are to
     * split (recording it in @p opts), create the segment and spawn
     * the child ranks.  Returns a non-zero exit code when the request
     * cannot be honored.
     */
    int
    launch(RunOpts &opts, size_t nparts)
    {
        const size_t n = std::min<size_t>(
            {opts.eng.processes, nparts, fame::ShmGroupLayout::kMaxProcs});
        if (n < 2) {
            std::fprintf(stderr,
                         "--processes needs at least 2 partitions to "
                         "split (got %zu); use incast.racks>=2\n",
                         nparts);
            return 2;
        }
        if (n != opts.eng.processes) {
            std::printf("processes clamped to %zu (%zu partitions, max "
                        "%u)\n",
                        n, nparts, fame::ShmGroupLayout::kMaxProcs);
            opts.eng.processes = n;
        }
        nprocs_ = static_cast<uint32_t>(n);
        layout_.nprocs = nprocs_;
        const std::string shm_path =
            "/tmp/diablo_mp_" + std::to_string(getpid()) + ".shm";
        ::unlink(shm_path.c_str()); // clear debris a crashed run left
        seg_ = ShmSegment::create(shm_path, layout_.totalBytes());
        fame::initGroupSegment(seg_.data(), layout_);
        ctl_ = fame::groupControl(seg_.data(), layout_);
        for (uint32_t r = 1; r < nprocs_; ++r) {
            spawn(opts, r, shm_path);
        }
        return 0;
    }

    /** Child rank: map the leader's segment. */
    void
    attach(const RunOpts &opts)
    {
        rank_ = opts.proc_rank;
        nprocs_ = opts.proc_nprocs;
        result_fd_ = opts.proc_result_fd;
        layout_.nprocs = nprocs_;
        seg_ = ShmSegment::attach(opts.proc_shm);
        if (seg_.size() < layout_.totalBytes()) {
            fatal("rank %u: group segment %s is %zu bytes, need %zu",
                  rank_, opts.proc_shm, seg_.size(), layout_.totalBytes());
        }
        ctl_ = fame::groupControl(seg_.data(), layout_);
    }

    /** Couple @p cluster's engine to every other rank. */
    void
    couple(sim::Cluster &cluster, fame::PartitionSet &ps)
    {
        fame::PartitionSet::CoupledOptions copts;
        copts.self_rank = rank_;
        // The identical deterministic rank map every process computes.
        copts.owner_of =
            fame::PartitionSet::lptAssign(ps.partitionWeights(), nprocs_);
        for (uint32_t r = 0; r < nprocs_; ++r) {
            if (r != rank_) {
                transports_.push_back(
                    fame::groupTransport(seg_.data(), layout_, rank_, r));
                copts.peers.emplace_back(r, transports_.back().get());
            }
        }
        cluster.enableProcessCoupling(copts);
    }

    /** Leader window step: publish @p until and run the group to it. */
    bool
    step(fame::PartitionSet &ps, SimTime until)
    {
        ctl_->publish(fame::ShmGroupControl::kRun, until.toPs());
        if (!ps.runCoupled(until)) {
            return false;
        }
        // Every rank answered the first barrier, so the segment is
        // mapped everywhere; nothing leaks on a crash from here on.
        unlinkOnce();
        return true;
    }

    /**
     * Child: run the leader's windows until it stops the group.  A
     * rank that sees a local interrupt raises its mask bit and keeps
     * following, so the leader stops every rank at one window boundary
     * and partial results stay bit-consistent.  Returns true when the
     * run ended interrupted or abandoned.
     */
    bool follow(fame::PartitionSet &ps);

    /** Child: write @p ledger down the result pipe. */
    bool
    report(const std::vector<uint64_t> &ledger)
    {
        const uint64_t n = ledger.size();
        if (!writeAll(result_fd_, &n, sizeof(n)) ||
            !writeAll(result_fd_, ledger.data(), n * sizeof(uint64_t))) {
            std::fprintf(stderr, "rank %u: result pipe write failed\n",
                         rank_);
            return false;
        }
        close(result_fd_);
        return true;
    }

    /**
     * Leader: stop the group at @p t, reap every child and add its
     * ledger into @p a.  Returns true when any child failed.
     */
    bool finish(bool interrupted, SimTime t, analysis::RunArtifact &a);

  private:
    struct Child {
        pid_t pid;
        int fd;
        uint32_t rank;
    };

    void spawn(const RunOpts &opts, uint32_t rank,
               const std::string &shm_path);

    void
    unlinkOnce()
    {
        if (!unlinked_) {
            seg_.unlinkFile();
            unlinked_ = true;
        }
    }

    uint32_t rank_ = 0;
    uint32_t nprocs_ = 1;
    int result_fd_ = -1;
    fame::ShmGroupLayout layout_;
    ShmSegment seg_;
    fame::ShmGroupControl *ctl_ = nullptr;
    std::vector<std::unique_ptr<fame::Transport>> transports_;
    std::vector<Child> kids_;
    bool unlinked_ = false;
};

void
ProcessGroup::spawn(const RunOpts &opts, uint32_t rank,
                    const std::string &shm_path)
{
    int pfd[2];
    if (pipe(pfd) != 0) {
        fatal("pipe: %s", std::strerror(errno));
    }
    // Only the write end crosses the exec; read ends of earlier
    // children must not leak into later ones.
    fcntl(pfd[0], F_SETFD, FD_CLOEXEC);
    const pid_t pid = fork();
    if (pid < 0) {
        fatal("fork: %s", std::strerror(errno));
    }
    if (pid == 0) {
        close(pfd[0]);
        // Re-exec this binary as the child rank: same scenario
        // arguments, minus the leader-only --json/--processes, plus
        // the child-rank identity.
        std::vector<std::string> args;
        args.push_back(opts.argv[0]);
        args.push_back("incast");
        FlagReader f(opts.argc, opts.argv, 2);
        while (f.more()) {
            if (f.value("--json") == nullptr &&
                f.value("--processes") == nullptr) {
                args.push_back(f.next());
            }
        }
        args.push_back("--proc-rank");
        args.push_back(std::to_string(rank));
        args.push_back("--proc-nprocs");
        args.push_back(std::to_string(nprocs_));
        args.push_back("--proc-shm");
        args.push_back(shm_path);
        args.push_back("--proc-result-fd");
        args.push_back(std::to_string(pfd[1]));
        std::vector<char *> cargv;
        cargv.reserve(args.size() + 1);
        for (std::string &s : args) {
            cargv.push_back(const_cast<char *>(s.c_str()));
        }
        cargv.push_back(nullptr);
        execv("/proc/self/exe", cargv.data());
        std::fprintf(stderr, "execv: %s\n", std::strerror(errno));
        _exit(127);
    }
    close(pfd[1]);
    kids_.push_back(Child{pid, pfd[0], rank});
}

bool
ProcessGroup::follow(fame::PartitionSet &ps)
{
    bool abandoned = false;
    uint32_t last_epoch = 0;
    auto cmd = fame::ShmGroupControl::kRun;
    // The leader publishes every outer window, and windows are
    // wall-clock fast; silence this long means it is gone.
    constexpr int64_t kSliceNs = 200LL * 1000 * 1000;
    constexpr int64_t kLeaderBudgetNs = 120LL * 1000 * 1000 * 1000;
    int64_t idle_ns = 0;
    for (;;) {
        const uint32_t e = ctl_->waitEpoch(last_epoch, kSliceNs);
        if (e == last_epoch) {
            idle_ns += kSliceNs;
            if (idle_ns >= kLeaderBudgetNs) {
                std::fprintf(stderr,
                             "rank %u: leader silent for %llds; "
                             "abandoning\n",
                             rank_,
                             static_cast<long long>(kLeaderBudgetNs /
                                                    1000000000));
                abandoned = true;
                break;
            }
            continue;
        }
        idle_ns = 0;
        last_epoch = e;
        cmd = static_cast<fame::ShmGroupControl::Command>(
            ctl_->command.load(std::memory_order_seq_cst));
        if (cmd != fame::ShmGroupControl::kRun) {
            break;
        }
        const SimTime until =
            SimTime::ps(ctl_->until_ps.load(std::memory_order_seq_cst));
        if (!ps.runCoupled(until)) {
            abandoned = true;
            break;
        }
        if (core::interruptRequested()) {
            ctl_->markInterrupted(rank_);
        }
    }
    return abandoned || core::interruptRequested() ||
           cmd == fame::ShmGroupControl::kStopInterrupted;
}

bool
ProcessGroup::finish(bool interrupted, SimTime t, analysis::RunArtifact &a)
{
    if (core::interruptRequested()) {
        // Forward the stop signal to every child rank so each finalizes
        // and reports instead of being orphaned mid-window.
        for (const Child &k : kids_) {
            kill(k.pid, SIGTERM);
        }
    }
    ctl_->publish(interrupted ? fame::ShmGroupControl::kStopInterrupted
                              : fame::ShmGroupControl::kStop,
                  t.toPs());
    unlinkOnce();

    const size_t words = a.ledger().size();
    bool failed = false;
    for (const Child &k : kids_) {
        uint64_t n = 0;
        std::vector<uint64_t> ledger;
        bool have = readAll(k.fd, &n, sizeof(n)) && n == words;
        if (have) {
            ledger.resize(n);
            have = readAll(k.fd, ledger.data(), n * sizeof(uint64_t));
        }
        close(k.fd);
        // The stop handlers are installed without SA_RESTART, so a
        // signal can interrupt this wait; a failed rank must never
        // read as a clean exit.
        int status = 0;
        pid_t got;
        do {
            got = waitpid(k.pid, &status, 0);
        } while (got < 0 && errno == EINTR);
        const int code =
            got == k.pid && WIFEXITED(status) ? WEXITSTATUS(status) : -1;
        if (!have) {
            std::fprintf(stderr, "rank %u: no result report (exit %d)\n",
                         k.rank, code);
            failed = true;
            continue;
        }
        if (code != 0 && code != core::kExitInterrupted) {
            std::fprintf(stderr, "rank %u: exit code %d\n", k.rank, code);
            failed = true;
        }
        // The per-field sums across ranks equal the single-process
        // totals exactly.
        if (!a.addLedger(ledger)) {
            std::fprintf(stderr,
                         "rank %u: result report has a different "
                         "artifact shape\n",
                         k.rank);
            failed = true;
        }
    }
    return failed;
}

/**
 * The incast workload on every engine: one Simulator, the sharded
 * cluster on runSequential or runParallel, or one rank of a
 * --processes group.  All but a child rank run the shared loop
 * (sim::Cluster::drive) and differ only in its window step; a child
 * rank follows the leader's windows instead and reports its ledger.
 */
int
runIncast(const Config &cfg, const sim::FaultPlan &plan, RunOpts opts)
{
    const IncastSetup s = makeIncastSetup(cfg);
    ProcessGroup group;
    if (opts.isChildRank()) {
        group.attach(opts);
    } else if (opts.eng.processes > 1) {
        const int rc =
            group.launch(opts, sim::Cluster::partitionsRequired(s.cp));
        if (rc != 0) {
            return rc;
        }
    }

    RunEngine e = makeEngine(s.cp, opts.eng);
    std::unique_ptr<sim::Cluster> cluster =
        e.sim != nullptr ? std::make_unique<sim::Cluster>(*e.sim, s.cp)
                         : std::make_unique<sim::Cluster>(*e.ps, s.cp);
    apps::IncastApp app(*cluster, s.ip, 0, s.servers);
    app.install();
    installObservers(e, *cluster, cfg, plan, opts);
    if (e.probe != nullptr) {
        e.probe->setSampler([&app, &s](sim::TelemetryProbe::AppStats &st) {
            const apps::IncastResult &r = app.result();
            const uint64_t iters = r.iteration_us.count();
            st.requests_completed = iters;
            st.bytes = iters * s.ip.block_bytes * s.n;
            if (iters != 0) {
                st.p99_us = r.iteration_us.percentile(99);
            }
        });
    }
    if (group.active()) {
        group.couple(*cluster, *e.ps);
    }

    if (opts.isChildRank()) {
        // A child prints nothing; the leader owns the report.
        const bool interrupted = group.follow(*e.ps);
        analysis::RunArtifact a;
        fillMeasured(a, *cluster, plan);
        if (!group.report(a.ledger())) {
            return 1;
        }
        return interrupted ? core::kExitInterrupted : 0;
    }
    // Run until the client reports completion, or to a generous cap in
    // case a fault plan leaves the transfer unable to finish.
    auto done = [&app] { return app.result().done; };
    const sim::Cluster::Step step =
        group.active()
            ? [&](SimTime w) { return group.step(*e.ps, w); }
            : cluster->engineStep(opts.eng.engine == Engine::Par);
    const sim::Cluster::DriveEnd end = cluster->drive(
        SimTime::ms(250), SimTime::sec(60), step, done,
        [&] { return e.pulse() || group.anyInterrupted(); },
        e.probe.get());
    if (e.wd != nullptr) {
        e.wd->disarm();
    }

    analysis::RunArtifact a;
    fillMeasured(a, *cluster, plan);
    const bool completed = done();
    bool partial = !completed && core::interruptRequested();
    if (group.active()) {
        const bool interrupted =
            end.reason == sim::Cluster::DriveEnd::Abandoned ||
            core::interruptRequested() || group.anyInterrupted();
        partial = group.finish(interrupted, end.reached, a) || interrupted;
    }
    if (!completed && !partial) {
        std::fprintf(stderr, "incast did not complete\n");
        return 1;
    }

    const auto &r = app.result();
    a.workload = "incast";
    a.elapsed_us = r.elapsed.asMicros();
    a.goodput_mbps = r.goodputMbps();
    a.requests_completed = r.iteration_us.count();
    a.latencies.emplace_back("iteration_us",
                             analysis::LatencyDigest::of(r.iteration_us));
    fillCommonArtifact(a,
                       {"app",
                        true,
                        {
                            {"servers", s.n},
                            {"racks", s.racks},
                            {"total_bytes", r.total_bytes},
                            {"block_bytes", s.ip.block_bytes},
                            {"iterations", s.ip.iterations},
                        }},
                       *cluster, cfg, opts, plan, e.probe.get());

    std::printf("incast: %u servers in %u rack%s, %s blocks x %u "
                "iterations (%s client)\n", s.n, s.racks,
                s.racks == 1 ? "" : "s", fmtBytes(s.ip.block_bytes).c_str(),
                s.ip.iterations, s.ip.use_epoll ? "epoll" : "pthread");
    std::printf("goodput=%.1f Mbps\n", r.goodputMbps());
    std::printf("iteration times (us): %s\n",
                analysis::latencySummary(r.iteration_us).c_str());
    printCounters(a);
    if (opts.eng.mem_report) {
        printMemReport(*cluster);
    }
    if (partial) {
        // A failed or interrupted rank leaves the whole run partial.
        if (!core::interruptRequested()) {
            core::requestInterrupt(core::kCausePeer);
        }
        return finalizeInterrupted(a, opts, e.probe.get());
    }
    writeArtifact(a, opts);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::fprintf(stderr,
                     "usage: %s <memcached|incast> [--fault-plan <file>] "
                     "[--engine <single|seq|par>] [--threads <N>] "
                     "[--processes <N>] [--no-pin] [--json <path>] "
                     "[--mem-report] [key=value ...]\n",
                     argv[0]);
        return 2;
    }
    Config cfg;
    RunOpts opts;
    opts.argc = argc;
    opts.argv = argv;
    EngineOpts &eng = opts.eng;
    uint64_t n = 0;
    FlagReader f(argc, argv, 2);
    while (f.more()) {
        if (const char *v = f.value("--fault-plan")) {
            opts.plan_file = v;
            continue;
        }
        if (const char *v = f.value("--json")) {
            opts.json_path = v;
            continue;
        }
        if (const char *v = f.value("--engine")) {
            if (!eng.parseEngine(v)) {
                std::fprintf(stderr,
                             "--engine must be single, seq, or par "
                             "(got '%s')\n", v);
                return 2;
            }
            continue;
        }
        if (f.value("--threads", &n)) {
            eng.threads = static_cast<size_t>(n);
            continue;
        }
        if (f.value("--processes", &n, 1)) {
            eng.processes = static_cast<size_t>(n);
            continue;
        }
        // Internal child-rank identity flags, set by the launcher's
        // re-exec; never given by hand.
        if (f.value("--proc-rank", &n)) {
            opts.proc_rank = static_cast<uint32_t>(n);
            continue;
        }
        if (f.value("--proc-nprocs", &n)) {
            opts.proc_nprocs = static_cast<uint32_t>(n);
            continue;
        }
        if (const char *v = f.value("--proc-shm")) {
            opts.proc_shm = v;
            continue;
        }
        if (f.value("--proc-result-fd", &n)) {
            opts.proc_result_fd = static_cast<int>(n);
            continue;
        }
        if (f.take("--no-pin")) {
            eng.pin = false;
            continue;
        }
        if (f.take("--mem-report")) {
            eng.mem_report = true;
            continue;
        }
        const char *arg = f.next();
        if (!cfg.parseAssignment(arg)) {
            std::fprintf(stderr, "not a key=value assignment: '%s'\n",
                         arg);
            return 2;
        }
    }
    const bool mp = eng.processes > 1 || opts.isChildRank();
    if (mp && std::strcmp(argv[1], "incast") != 0) {
        // memcached attaches request descriptors (AppData) to packets,
        // which cannot cross a process boundary.
        std::fprintf(stderr,
                     "--processes supports only the incast workload\n");
        return 2;
    }
    if (mp && cfg.getDouble("telemetry.period", 0.0) > 0.0) {
        std::fprintf(stderr, "--processes does not support telemetry "
                             "streaming (samplers read only the "
                             "leader's partitions)\n");
        return 2;
    }
    if (opts.isChildRank()) {
        if (opts.proc_rank == 0 || opts.proc_nprocs < 2 ||
            opts.proc_rank >= opts.proc_nprocs ||
            opts.proc_result_fd < 0) {
            std::fprintf(stderr, "malformed --proc-* child identity\n");
            return 2;
        }
        eng.processes = opts.proc_nprocs;
    }
    const sim::FaultPlan plan = makeFaultPlan(cfg, opts.plan_file);
    // Install before any simulation work so even an immediate SIGTERM
    // takes the finalize-partial-artifact path rather than killing the
    // process artifact-less.
    core::installInterruptHandlers();
    if (std::strcmp(argv[1], "memcached") == 0) {
        return runMemcached(cfg, plan, opts);
    }
    if (std::strcmp(argv[1], "incast") == 0) {
        return runIncast(cfg, plan, opts);
    }
    std::fprintf(stderr, "unknown experiment '%s'\n", argv[1]);
    return 2;
}
