#include "apps/mc_experiment.hh"

#include <algorithm>

#include "core/log.hh"

namespace diablo {
namespace apps {

McExperimentParams
McExperimentParams::fromConfig(const Config &cfg)
{
    McExperimentParams p;
    p.cluster = sim::ClusterParams::fromConfig(cfg);
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
    return p;
}

McExperiment::McExperiment(Simulator &sim,
                           const McExperimentParams &params)
    : params_(params)
{
    cluster_ = std::make_unique<sim::Cluster>(sim, params_.cluster);
    placeServers();
}

McExperiment::McExperiment(fame::PartitionSet &ps,
                           const McExperimentParams &params)
    : params_(params)
{
    cluster_ = std::make_unique<sim::Cluster>(ps, params_.cluster);
    placeServers();
}

void
McExperiment::placeServers()
{
    const uint32_t total = cluster_->size();
    if (params_.num_servers >= total) {
        fatal("McExperiment: %u servers need at least %u nodes",
              params_.num_servers, params_.num_servers + 1);
    }

    // Spread server instances evenly across racks (paper: "distributed
    // 128 memcached servers evenly across all 64 racks").
    const uint32_t spr = params_.cluster.topo.servers_per_rack;
    const uint32_t racks = total / spr;
    server_nodes_.reserve(params_.num_servers);
    for (uint32_t i = 0; i < params_.num_servers; ++i) {
        const uint32_t rack = i % racks;
        const uint32_t idx = i / racks;
        if (idx >= spr) {
            fatal("McExperiment: too many servers per rack");
        }
        server_nodes_.push_back(rack * spr + idx);
    }
    std::sort(server_nodes_.begin(), server_nodes_.end());
}

McExperiment::~McExperiment() = default;

McExperiment::LiveStats
McExperiment::liveStats() const
{
    LiveStats ls;
    LatencyStat acc;
    if (params_.sketch_stats) {
        acc.enableSketch();
    }
    for (const auto &s : client_stats_) {
        ls.requests_completed += s->requests_completed;
        acc.merge(s->latency_us);
    }
    if (acc.count() != 0) {
        ls.p99_us = acc.percentile(99);
    }
    return ls;
}

void
McExperiment::run(bool parallel)
{
    if (parallel && !cluster_->sharded()) {
        fatal("McExperiment: run(parallel) needs the sharded "
              "(PartitionSet) build");
    }
    run(cluster_->engineStep(parallel));
}

void
McExperiment::run(const sim::Cluster::Step &step)
{
    for (net::NodeId s : server_nodes_) {
        installMemcachedServer(*cluster_, s, params_.server);
    }

    const uint32_t total = cluster_->size();
    std::vector<bool> is_server(total, false);
    for (net::NodeId s : server_nodes_) {
        is_server[s] = true;
    }

    // Pick client nodes: every non-server node (the paper's harness),
    // or — when num_clients caps the set — the same round-robin rack
    // spread the servers use, skipping server slots.  Node order is
    // preserved either way so the result fold below is deterministic.
    std::vector<net::NodeId> client_nodes;
    if (params_.num_clients == 0) {
        client_nodes.reserve(total - server_nodes_.size());
        for (uint32_t n = 0; n < total; ++n) {
            if (!is_server[n]) {
                client_nodes.push_back(n);
            }
        }
    } else {
        if (params_.num_clients > total - server_nodes_.size()) {
            fatal("McExperiment: %u clients need %zu non-server nodes, "
                  "cluster has %zu",
                  params_.num_clients,
                  static_cast<size_t>(params_.num_clients),
                  total - server_nodes_.size());
        }
        const uint32_t spr = params_.cluster.topo.servers_per_rack;
        const uint32_t racks = total / spr;
        client_nodes.reserve(params_.num_clients);
        for (uint32_t i = 0; client_nodes.size() < params_.num_clients;
             ++i) {
            const uint32_t rack = i % racks;
            const uint32_t idx = i / racks;
            if (idx >= spr) {
                fatal("McExperiment: too many clients per rack");
            }
            const net::NodeId n = rack * spr + idx;
            if (!is_server[n]) {
                client_nodes.push_back(n);
            }
        }
        std::sort(client_nodes.begin(), client_nodes.end());
    }

    if (params_.sketch_stats) {
        for (LatencyStat *ls :
             {&result_.latency_us, &result_.first_request_us,
              &result_.latency_us_by_hop[0],
              &result_.latency_us_by_hop[1],
              &result_.latency_us_by_hop[2]}) {
            ls->enableSketch();
        }
    }
    for (net::NodeId n : client_nodes) {
        auto stats = std::make_shared<McClientStats>();
        if (params_.sketch_stats) {
            stats->latency_us.enableSketch();
            stats->first_request_us.enableSketch();
            for (int h = 0; h < 3; ++h) {
                stats->latency_us_by_hop[h].enableSketch();
            }
        }
        client_stats_.push_back(stats);
        installMemcachedClient(*cluster_, n, server_nodes_,
                               params_.client, stats);
    }

    auto all_done = [this] {
        for (const auto &s : client_stats_) {
            if (!s->done) {
                return false;
            }
        }
        return true;
    };
    // Servers and daemons run forever; stop once every client finished.
    // The window only sets how often the pulse and the completion check
    // run: elapsed comes from the clients' own finish times.
    constexpr SimTime kWindow = SimTime::ms(100);
    constexpr SimTime kCap = SimTime::sec(600);
    const sim::Cluster::DriveEnd end =
        cluster_->drive(kWindow, kCap, step, all_done, pulse_, probe_);
    if (end.reason == sim::Cluster::DriveEnd::Capped) {
        panic("McExperiment: clients not done after %s of simulated "
              "time", kCap.str().c_str());
    }
    if (end.reason == sim::Cluster::DriveEnd::Idle) {
        panic("McExperiment: deadlock — clients not done, no events");
    }
    aborted_ = end.reason == sim::Cluster::DriveEnd::Stopped;
    SimTime last_finish;
    for (const auto &s : client_stats_) {
        last_finish = std::max(last_finish, s->finished);
    }
    result_.elapsed = aborted_ ? end.reached : last_finish;
    result_.clients = static_cast<uint32_t>(client_stats_.size());
    result_.servers = static_cast<uint32_t>(server_nodes_.size());
    for (const auto &s : client_stats_) {
        result_.latency_us.merge(s->latency_us);
        result_.first_request_us.merge(s->first_request_us);
        for (int h = 0; h < 3; ++h) {
            result_.latency_us_by_hop[h].merge(s->latency_us_by_hop[h]);
        }
        result_.udp_timeouts += s->udp_timeouts;
        result_.udp_retries += s->udp_retries;
        result_.requests_completed += s->requests_completed;
    }
}

} // namespace apps
} // namespace diablo
