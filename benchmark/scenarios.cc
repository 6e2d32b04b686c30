#include "scenarios.hh"

#include <unistd.h>

#include <algorithm>
#include <memory>
#include <thread>

#include "analysis/artifact.hh"
#include "analysis/json_writer.hh"
#include "apps/incast.hh"
#include "apps/mc_experiment.hh"
#include "bench_trace.hh"
#include "core/cpu_topology.hh"
#include "core/shm.hh"
#include "fame/partition.hh"
#include "fame/transport.hh"
#include "sim/cluster.hh"

namespace diablo {
namespace bench {

const char *
engineName(Engine e)
{
    switch (e) {
      case Engine::Single:
        return "single";
      case Engine::Seq:
        return "seq";
      case Engine::Par:
        return "par";
      case Engine::Coupled:
        return "mp";
    }
    return "?";
}

namespace {

Scenario
incast(const char *family, uint32_t racks, uint32_t senders)
{
    Scenario s;
    s.family = family;
    s.app = AppKind::Incast;
    s.racks = racks;
    s.senders = senders;
    s.iterations = 20;
    s.block_bytes = 256 * 1024;
    return s;
}

Scenario
memcached(const char *family, uint32_t arrays, uint32_t racks_per_array,
          uint32_t servers_per_rack, uint32_t servers, uint32_t clients,
          uint32_t requests, bool sketch)
{
    Scenario s;
    s.family = family;
    s.app = AppKind::Memcached;
    s.arrays = arrays;
    s.racks_per_array = racks_per_array;
    s.servers_per_rack = servers_per_rack;
    s.mc_servers = servers;
    s.mc_clients = clients;
    s.requests = requests;
    s.sketch_stats = sketch;
    return s;
}

} // namespace

/**
 * Why each workload is here, and what it should and should not move, is
 * recorded in BENCHMARK.json and README.md.
 */
const std::vector<Workload> &
workloads()
{
    static const std::vector<Workload> w = {
        {"incast8_single", incast("incast8", 8, 32), Engine::Single},
        {"incast8_par2", incast("incast8", 8, 32), Engine::Par},
        {"incast4_mp2", incast("incast4", 4, 16), Engine::Coupled},
        {"mc2k_par2", memcached("mc2k", 1, 64, 31, 128, 0, 50, false),
         Engine::Par},
        {"mc32k_seq", memcached("mc32k", 32, 32, 32, 64, 256, 30, true),
         Engine::Seq},
    };
    return w;
}

Scenario
checkScale(const Scenario &s)
{
    Scenario c = s;
    if (s.app == AppKind::Incast) {
        c.racks = 4;
        c.senders = 8;
        c.iterations = 4;
        c.block_bytes = 32 * 1024;
    } else {
        c.arrays = std::min(s.arrays, 2u);
        c.racks_per_array = 4;
        c.servers_per_rack = 8;
        c.mc_servers = 8;
        c.mc_clients = s.mc_clients == 0 ? 0 : 24;
        c.requests = 10;
    }
    return c;
}

namespace {

/** Outer window of the incast run loop; results never depend on it. */
constexpr SimTime kIncastWindow = SimTime::ms(250);
constexpr SimTime kIncastCap = SimTime::sec(60);

using Metrics = std::map<std::string, double>;

uint64_t
chain(uint64_t fp, uint64_t v)
{
    return QuantileSketch::chainFingerprint(fp, v);
}

/** One model copy: its engine, cluster and app. */
struct Model {
    std::unique_ptr<Simulator> sim;
    std::unique_ptr<fame::PartitionSet> ps;
    std::unique_ptr<sim::Cluster> cluster;
    std::unique_ptr<apps::IncastApp> incast;
    std::unique_ptr<apps::McExperiment> mc;

    uint64_t
    events() const
    {
        return ps != nullptr ? ps->totalExecutedEvents()
                             : sim->executedEvents();
    }
};

/** Build the engine of one copy; parallel workers go on the rep's CPUs. */
void
buildEngine(Model &m, Engine e, size_t partitions, const RepOptions &o)
{
    if (e == Engine::Single) {
        m.sim = std::make_unique<Simulator>();
        return;
    }
    m.ps = std::make_unique<fame::PartitionSet>(partitions);
    if (e == Engine::Par) {
        m.ps->setParallelism(2);
        if (o.cpu0 != o.cpu1) {
            m.ps->setWorkerCpus({o.cpu0, o.cpu1});
        } else {
            m.ps->setWorkerPinning(false);
        }
    }
}

sim::ClusterParams
incastParams(const Scenario &s, uint64_t seed)
{
    sim::ClusterParams p = sim::ClusterParams::gige1us();
    p.seed = seed;
    p.topo.servers_per_rack = (s.senders + 1 + s.racks - 1) / s.racks;
    p.topo.racks_per_array = s.racks;
    p.topo.num_arrays = 1;
    return p;
}

/**
 * The seed's senders.  The client is node 0: rank 0 of a coupled group
 * always owns partition 0, so the leader is the rank that sees the
 * transfer finish.  Every rack sends from the same number of nodes
 * whatever the seed (the last racks take any remainder), so the seed
 * changes which ports send and in which order the client serves them,
 * not how the load spreads over racks.
 */
std::vector<net::NodeId>
incastSenders(const Scenario &s, uint32_t per_rack, uint64_t seed)
{
    Rng rng = Rng(seed).fork("bench-incast-senders");
    auto shuffle = [&rng](std::vector<net::NodeId> &v) {
        for (size_t i = v.size(); i > 1; --i) {
            std::swap(v[i - 1], v[rng.uniformInt(0, i - 1)]);
        }
    };
    std::vector<net::NodeId> senders;
    for (uint32_t r = 0; r < s.racks; ++r) {
        std::vector<net::NodeId> rack;
        for (uint32_t i = r == 0 ? 1 : 0; i < per_rack; ++i) {
            rack.push_back(r * per_rack + i);
        }
        shuffle(rack);
        const uint32_t extra = s.senders % s.racks;
        rack.resize(s.senders / s.racks + (r >= s.racks - extra ? 1 : 0));
        senders.insert(senders.end(), rack.begin(), rack.end());
    }
    shuffle(senders);
    return senders;
}

/** Model counters summed over copies (ghost partitions count zero). */
void
addModelCounters(sim::Cluster &c, Metrics &m)
{
    for (const auto &p : c.poolStats()) {
        m["net.pool_makes"] += static_cast<double>(p.makes);
        m["net.pool_recycles"] += static_cast<double>(p.recycles);
        m["net.pool_heap_allocs"] += static_cast<double>(p.heap_allocs);
        m["net.pool_high_water"] += static_cast<double>(p.high_water);
    }
    m["net.link_trains"] += static_cast<double>(c.totalDeliveryTrains());
    m["net.link_coalesced"] +=
        static_cast<double>(c.totalDeliveriesCoalesced());
    m["switchm.drops"] +=
        static_cast<double>(c.network().totalSwitchDrops());
    m["nic.rx_drops"] += static_cast<double>(c.totalNicRxDrops());
    m["nic.tx_ring_drops"] += static_cast<double>(c.totalNicTxRingDrops());
    m["os.tcp_retx"] += static_cast<double>(c.totalTcpRetransmits());
    m["os.tcp_rtos"] += static_cast<double>(c.totalTcpRtos());
    m["os.udp_sock_drops"] += static_cast<double>(c.totalUdpSocketDrops());
    m["sim.materialized_nodes"] +=
        static_cast<double>(c.materializedServers());
    uint64_t arena = 0;
    for (const auto &a : c.arenaStats()) {
        arena += a.bytes_reserved;
    }
    m["sim.arena_mb"] += static_cast<double>(arena) / (1024.0 * 1024.0);
}

/** Engine-side counters of one copy; call once per copy. */
void
addEngineCounters(Model &m, Engine e, Metrics &out,
                  std::vector<double> &worker_events)
{
    out["core.events"] += static_cast<double>(m.events());
    // Quanta are counted identically by every rank of a coupled group.
    out["fame.quanta"] =
        m.ps != nullptr ? static_cast<double>(m.ps->quantaExecuted()) : 0.0;
    if (e == Engine::Par) {
        const fame::PartitionSet &ps = *m.ps;
        std::vector<double> w(std::max<size_t>(ps.lastRunWorkers(), 1));
        for (size_t i = 0; i < ps.size(); ++i) {
            w[ps.workerOfPartition(i) % w.size()] += static_cast<double>(
                m.ps->partition(i).executedEvents());
        }
        worker_events.insert(worker_events.end(), w.begin(), w.end());
    } else {
        worker_events.push_back(static_cast<double>(m.events()));
    }
    const fame::PartitionSet::CoupledStats cs =
        e == Engine::Coupled ? m.ps->coupledStats()
                             : fame::PartitionSet::CoupledStats();
    out["fame.mp.syncs"] += static_cast<double>(cs.sync_sent);
    out["fame.mp.msgs"] += static_cast<double>(cs.msgs_sent);
    out["fame.mp.bytes"] += static_cast<double>(cs.bytes_sent);
    out["fame.mp.waits_blocked"] += static_cast<double>(cs.waits_blocked);
    out["fame.mp.waits_elided"] += static_cast<double>(cs.waits_elided);
}

/** Derived per-layer metrics from spans and raw counters. */
void
finishLayerMetrics(const SpanLog &log, Metrics &m,
                   const std::vector<double> &worker_events)
{
    std::vector<double> windows_ms;
    for (const Span &s : log.spans()) {
        const double sec = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
        const std::string name = s.name;
        if (name == "window" && s.tid == 0) {
            windows_ms.push_back(sec * 1e3);
        }
        for (const char *layer :
             {"fame.build", "sim.build", "apps.install", "apps.tail",
              "sim.teardown", "analysis.fold"}) {
            if (name == layer) {
                m[name + "_s"] += sec;
            }
        }
    }
    double run_s = 0.0;
    for (double w : windows_ms) {
        run_s += w * 1e-3;
    }
    m["fame.run_s"] = run_s;
    m["fame.windows"] = static_cast<double>(windows_ms.size());
    std::sort(windows_ms.begin(), windows_ms.end());
    auto pct = [&windows_ms](double p) {
        if (windows_ms.empty()) {
            return 0.0;
        }
        const size_t i = static_cast<size_t>(
            p / 100.0 * static_cast<double>(windows_ms.size() - 1) + 0.5);
        return windows_ms[i];
    };
    m["fame.window_ms.p50"] = pct(50);
    m["fame.window_ms.p90"] = pct(90);

    const double quanta = m["fame.quanta"];
    const double events = m["core.events"];
    m["fame.events_per_quantum"] = quanta > 0 ? events / quanta : 0.0;
    m["fame.ns_per_quantum"] = quanta > 0 ? run_s * 1e9 / quanta : 0.0;
    m["core.ns_per_event"] = events > 0 ? run_s * 1e9 / events : 0.0;

    double sum = 0.0;
    double mx = 0.0;
    for (double w : worker_events) {
        sum += w;
        mx = std::max(mx, w);
    }
    m["fame.imbalance"] =
        sum > 0 ? mx / (sum / static_cast<double>(worker_events.size()))
                : 0.0;

    const double makes = m["net.pool_makes"];
    m["net.pool_recycle_ratio"] =
        makes > 0 ? m["net.pool_recycles"] / makes : 0.0;
    const double waits =
        m["fame.mp.waits_blocked"] + m["fame.mp.waits_elided"];
    m["fame.mp.blocked_ratio"] =
        waits > 0 ? m["fame.mp.waits_blocked"] / waits : 0.0;
}

/**
 * The coupled pair: both copies' engines over one two-rank shared ring
 * matrix, copy a as rank 0 (leader) and copy b as rank 1.  Both ranks
 * live in this process, so the segment file is unlinked as soon as it
 * is mapped and nothing can leak if the rep is killed.
 */
struct CoupledGroup {
    fame::ShmGroupLayout layout;
    ShmSegment seg;
    fame::ShmGroupControl *ctl = nullptr;
    std::unique_ptr<fame::Transport> ta;
    std::unique_ptr<fame::Transport> tb;

    CoupledGroup(Model &a, Model &b, const std::string &dir)
    {
        layout.nprocs = 2;
        const std::string path = dir + "/diablo_bench_" +
                                 std::to_string(getpid()) + ".shm";
        seg = ShmSegment::create(path, layout.totalBytes());
        seg.unlinkFile();
        fame::initGroupSegment(seg.data(), layout);
        ctl = fame::groupControl(seg.data(), layout);
        ta = fame::groupTransport(seg.data(), layout, 0, 1);
        tb = fame::groupTransport(seg.data(), layout, 1, 0);
        const std::vector<uint32_t> owner =
            fame::PartitionSet::lptAssign(a.ps->partitionWeights(), 2);
        fame::PartitionSet::CoupledOptions oa;
        oa.self_rank = 0;
        oa.owner_of = owner;
        oa.peers = {{1u, ta.get()}};
        a.cluster->enableProcessCoupling(oa);
        fame::PartitionSet::CoupledOptions ob;
        ob.self_rank = 1;
        ob.owner_of = owner;
        ob.peers = {{0u, tb.get()}};
        b.cluster->enableProcessCoupling(ob);
    }
};

/**
 * Rank 1 of the coupled pair: follow the leader's published windows on
 * the second CPU until it publishes a stop.
 */
bool
followLeader(Model &b, fame::ShmGroupControl *ctl, int cpu, SpanLog &log,
             bool traced)
{
    pinCurrentThreadToCpu(cpu);
    uint32_t last = 0;
    for (;;) {
        const uint32_t e = ctl->waitEpoch(last, 200LL * 1000 * 1000);
        if (e == last) {
            continue;
        }
        last = e;
        if (ctl->command.load() != fame::ShmGroupControl::kRun) {
            return true;
        }
        const int32_t w = traced ? log.open("window") : -1;
        const bool ok = b.ps->runCoupled(
            SimTime::ps(ctl->until_ps.load(std::memory_order_seq_cst)));
        if (w >= 0) {
            log.close(w);
        }
        if (!ok) {
            return false;
        }
    }
}

/** Root and phase spans of one rep. */
struct Phases {
    int32_t rep = -1;
    int32_t setup = -1;
    int32_t run = -1;
};

void
runIncast(const Scenario &s, Engine e, const RepOptions &o, SpanLog &log,
          Phases &ph, RepResult &r, Metrics &layer,
          std::vector<double> &worker_events)
{
    const bool traced = o.traced;
    const sim::ClusterParams cp = incastParams(s, o.seed);
    const std::vector<net::NodeId> senders =
        incastSenders(s, cp.topo.servers_per_rack, o.seed);
    apps::IncastParams ip;
    ip.block_bytes = s.block_bytes;
    ip.iterations = s.iterations;

    std::vector<Model> models(e == Engine::Coupled ? 2 : 1);
    for (Model &m : models) {
        int32_t sp = traced ? log.open("fame.build", ph.setup) : -1;
        buildEngine(m, e, sim::Cluster::partitionsRequired(cp), o);
        if (sp >= 0) {
            log.close(sp);
            sp = log.open("sim.build", ph.setup);
        }
        m.cluster = m.ps != nullptr
                        ? std::make_unique<sim::Cluster>(*m.ps, cp)
                        : std::make_unique<sim::Cluster>(*m.sim, cp);
        if (sp >= 0) {
            log.close(sp);
            sp = log.open("apps.install", ph.setup);
        }
        m.incast = std::make_unique<apps::IncastApp>(*m.cluster, ip, 0,
                                                     senders);
        m.incast->install();
        if (sp >= 0) {
            log.close(sp);
        }
    }
    Model &lead = models[0];
    std::unique_ptr<CoupledGroup> group;
    if (e == Engine::Coupled) {
        const int32_t sp = traced ? log.open("fame.couple", ph.setup) : -1;
        group = std::make_unique<CoupledGroup>(models[0], models[1],
                                               o.shm_dir);
        if (sp >= 0) {
            log.close(sp);
        }
    }
    log.close(ph.setup);

    // The engines hold raw pointers into the group's transports, so they
    // go first.
    auto teardown = [&] {
        const int32_t td = log.open("sim.teardown", ph.rep);
        models.clear();
        group.reset();
        log.close(td);
    };
    if (o.setup_only) {
        r.completed = true;
        teardown();
        return;
    }

    ph.run = log.open("run", ph.rep);
    SpanLog follower_log(log.origin(), 1);
    bool follower_ok = true;
    std::thread follower;
    if (e == Engine::Coupled) {
        follower = std::thread([&] {
            follower_ok = followLeader(models[1], group->ctl, o.cpu1,
                                       follower_log, traced);
        });
    }
    bool ok = true;
    int32_t last_window = -1;
    SimTime t;
    while (ok && !lead.incast->result().done && t < kIncastCap) {
        t = t + kIncastWindow;
        last_window = traced ? log.open("window", ph.run) : -1;
        switch (e) {
          case Engine::Single:
            lead.sim->runUntil(t);
            break;
          case Engine::Seq:
            lead.ps->runSequential(t);
            break;
          case Engine::Par:
            lead.ps->runParallel(t);
            break;
          case Engine::Coupled:
            group->ctl->publish(fame::ShmGroupControl::kRun, t.toPs());
            ok = lead.ps->runCoupled(t);
            break;
        }
        if (last_window >= 0) {
            log.close(last_window);
        }
    }
    if (e == Engine::Coupled) {
        group->ctl->publish(fame::ShmGroupControl::kStop, t.toPs());
        follower.join();
    }
    log.close(ph.run);
    if (traced) {
        // The window in which the transfer finished is the tail.
        if (last_window >= 0) {
            layer["apps.tail_s"] = log.seconds(last_window);
        }
        log.adopt(follower_log, ph.run);
    }

    const apps::IncastResult &res = lead.incast->result();
    r.completed = ok && follower_ok && res.done;

    const int32_t fold = log.open("analysis.fold", ph.rep);
    const analysis::LatencyDigest d =
        analysis::LatencyDigest::of(res.iteration_us);
    uint64_t drops = 0;
    for (Model &m : models) {
        drops += m.cluster->network().totalSwitchDrops();
    }
    uint64_t fp = chain(0, d.fingerprint);
    fp = chain(fp, d.count);
    fp = chain(fp, static_cast<uint64_t>(res.elapsed.toPs()));
    fp = chain(fp, drops);
    r.fingerprint = fp;
    r.metrics["model.goodput_mbps"] = res.goodputMbps();
    r.metrics["model.p50_us"] = d.p50;
    r.metrics["model.p99_us"] = d.p99;
    r.metrics["model.sim_s"] = res.elapsed.asSeconds();
    if (traced) {
        layer["apps.requests"] = static_cast<double>(d.count);
        layer["apps.udp_retries"] = 0.0;
        for (Model &m : models) {
            addModelCounters(*m.cluster, layer);
            addEngineCounters(m, e, layer, worker_events);
        }
    }
    log.close(fold);
    teardown();
}

void
runMemcached(const Scenario &s, Engine e, const RepOptions &o, SpanLog &log,
             Phases &ph, RepResult &r, Metrics &layer,
             std::vector<double> &worker_events)
{
    const bool traced = o.traced;
    apps::McExperimentParams p;
    p.cluster.seed = o.seed;
    p.cluster.topo.num_arrays = s.arrays;
    p.cluster.topo.racks_per_array = s.racks_per_array;
    p.cluster.topo.servers_per_rack = s.servers_per_rack;
    p.num_servers = s.mc_servers;
    p.num_clients = s.mc_clients;
    p.sketch_stats = s.sketch_stats;
    p.server.udp = true;
    p.client.udp = true;
    p.client.requests = s.requests;
    // Shorter than McExperiment's 100 ms sharded window: a client waiting
    // out the default 250 ms retry can leave a whole window without
    // events, which McExperiment::run takes for a deadlock and panics.
    p.client.udp_retry_timeout = SimTime::ms(50);

    Model m;
    int32_t sp = traced ? log.open("fame.build", ph.setup) : -1;
    buildEngine(m, e, sim::Cluster::partitionsRequired(p.cluster), o);
    if (sp >= 0) {
        log.close(sp);
        sp = log.open("sim.build", ph.setup);
    }
    m.mc = m.ps != nullptr ? std::make_unique<apps::McExperiment>(*m.ps, p)
                           : std::make_unique<apps::McExperiment>(*m.sim, p);
    if (sp >= 0) {
        log.close(sp);
    }

    // run() installs the apps and then calls the pulse hook before every
    // window (every 4k events on one Simulator): the first pulse ends the
    // set-up, consecutive pulses delimit windows, and the last pulse to
    // run()'s return is the tail (final window plus the result merge).
    std::vector<int64_t> pulses;
    pulses.reserve(traced ? 4096 : 2);
    m.mc->setPulse([&] {
        const int64_t now = log.now();
        if (traced || pulses.size() < 2) {
            pulses.push_back(now);
        } else {
            pulses[1] = now;
        }
        return o.setup_only;
    });
    const int64_t install_start = log.now();
    m.mc->run(e == Engine::Par);
    const int64_t run_end = log.now();
    if (pulses.empty()) {
        pulses.push_back(run_end);
    }
    log.at(ph.setup).end_ns = pulses.front();
    auto teardown = [&] {
        const int32_t td = log.open("sim.teardown", ph.rep);
        m.mc.reset();
        m.ps.reset();
        m.sim.reset();
        log.close(td);
    };
    if (o.setup_only) {
        r.completed = true;
        teardown();
        return;
    }
    ph.run = log.add("run", pulses.front(), run_end, ph.rep);
    if (traced) {
        log.add("apps.install", install_start, pulses.front(), ph.setup);
        for (size_t i = 1; i < pulses.size(); ++i) {
            log.add("window", pulses[i - 1], pulses[i], ph.run);
        }
        log.add("apps.tail", pulses.back(), run_end, ph.run);
    }

    const apps::McExperimentResult &res = m.mc->result();
    r.completed = !m.mc->aborted() &&
                  res.requests_completed ==
                      static_cast<uint64_t>(res.clients) * s.requests;

    const int32_t fold = log.open("analysis.fold", ph.rep);
    const analysis::LatencyDigest d =
        analysis::LatencyDigest::of(res.latency_us);
    // McExperiment's elapsed time is not folded: a sharded run reads it
    // off partition 0's clock, which stops at that partition's last
    // event, so it differs from the single Simulator's completion time.
    uint64_t fp = chain(0, d.fingerprint);
    fp = chain(fp, res.requests_completed);
    fp = chain(fp, m.mc->cluster().network().totalSwitchDrops());
    fp = chain(fp, res.udp_retries);
    r.fingerprint = fp;
    r.metrics["model.p50_us"] = d.p50;
    r.metrics["model.p99_us"] = d.p99;
    r.metrics["model.sim_s"] = res.elapsed.asSeconds();
    if (traced) {
        layer["apps.requests"] = static_cast<double>(res.requests_completed);
        layer["apps.udp_retries"] = static_cast<double>(res.udp_retries);
        addModelCounters(m.mc->cluster(), layer);
        addEngineCounters(m, e, layer, worker_events);
    }
    log.close(fold);
    teardown();
}

} // namespace

RepResult
runRep(const Scenario &s, Engine e, const RepOptions &o)
{
    SpanLog log(Clock::now());
    Phases ph;
    ph.rep = log.open("rep");
    ph.setup = log.open("setup", ph.rep);

    RepResult r;
    Metrics layer;
    std::vector<double> worker_events;
    if (s.app == AppKind::Incast) {
        runIncast(s, e, o, log, ph, r, layer, worker_events);
    } else {
        runMemcached(s, e, o, log, ph, r, layer, worker_events);
    }
    log.close(ph.rep);

    const double wall = log.seconds(ph.rep);
    r.metrics["wall_s"] = wall;
    r.metrics["setup_s"] = log.seconds(ph.setup);
    if (ph.run >= 0) {
        r.metrics["run_s"] = log.seconds(ph.run);
    }
    if (!o.traced) {
        return r;
    }
    finishLayerMetrics(log, layer, worker_events);
    double covered = 0.0;
    for (const Span &sp : log.spans()) {
        if (sp.parent == ph.rep) {
            covered += static_cast<double>(sp.end_ns - sp.start_ns) * 1e-9;
        }
    }
    layer["trace.coverage"] = wall > 0 ? covered / wall : 0.0;
    r.metrics.insert(layer.begin(), layer.end());
    if (!o.trace_path.empty()) {
        analysis::atomicWriteFile(
            o.trace_path,
            chromeTraceJson(log, s.family + "/" + engineName(e)));
    }
    return r;
}

} // namespace bench
} // namespace diablo
