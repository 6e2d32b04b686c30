#ifndef DIABLO_BENCH_BENCH_UTIL_HH_
#define DIABLO_BENCH_BENCH_UTIL_HH_

/**
 * @file
 * Shared plumbing for the figure/table reproduction harnesses.
 *
 * Scale control: every memcached-style bench honours the DIABLO_SCALE
 * environment variable:
 *   quick (default) - reduced requests per client; minutes for the suite
 *   full            - more requests; tighter tails
 *   paper           - the paper's 30,000 requests per client
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "apps/incast.hh"
#include "apps/mc_experiment.hh"
#include "analysis/report.hh"

namespace diablo {
namespace bench {

/** Requests per client for the current DIABLO_SCALE. */
inline uint32_t
requestsPerClient()
{
    const char *s = std::getenv("DIABLO_SCALE");
    std::string scale = s ? s : "quick";
    if (scale == "paper") {
        return 30000;
    }
    if (scale == "full") {
        return 1500;
    }
    return 200;
}

/** Incast iterations for the current DIABLO_SCALE. */
inline uint32_t
incastIterations()
{
    const char *s = std::getenv("DIABLO_SCALE");
    std::string scale = s ? s : "quick";
    if (scale == "paper" || scale == "full") {
        return 40;
    }
    return 15;
}

/** The paper's array topologies at the three evaluated scales. */
inline void
setScaleTopology(sim::ClusterParams &p, uint32_t nodes)
{
    p.topo.servers_per_rack = 31;
    if (nodes <= 496) {
        p.topo.racks_per_array = 16;
        p.topo.num_arrays = 1;
    } else if (nodes <= 992) {
        p.topo.racks_per_array = 16;
        p.topo.num_arrays = 2;
    } else {
        p.topo.racks_per_array = 16;
        p.topo.num_arrays = 4;
    }
}

/** Standard memcached experiment config at a paper scale point. */
inline apps::McExperimentParams
mcConfig(uint32_t nodes, bool udp, bool tengig)
{
    apps::McExperimentParams p;
    p.cluster = tengig ? sim::ClusterParams::tengig100ns()
                       : sim::ClusterParams::gige1us();
    setScaleTopology(p.cluster, nodes);
    p.num_servers = 2 * p.cluster.topo.racks_per_array *
                    p.cluster.topo.num_arrays; // 2 per rack (Fig 7)
    p.server.udp = udp;
    p.client.udp = udp;
    p.client.requests = requestsPerClient();
    return p;
}

/** One TCP Incast run: n servers + 1 client on a single ToR. */
inline apps::IncastResult
runIncast(uint32_t num_servers, switchm::BufferPolicy policy,
          uint64_t buffer_bytes, bool use_epoll, double cpu_ghz,
          bool tengig, uint32_t iterations,
          switchm::SwitchModelKind model = switchm::SwitchModelKind::Voq)
{
    Simulator sim;
    sim::ClusterParams cp = tengig ? sim::ClusterParams::tengig100ns()
                                   : sim::ClusterParams::gige1us();
    cp.topo.servers_per_rack = num_servers + 1;
    cp.topo.racks_per_array = 1;
    cp.topo.num_arrays = 1;
    cp.topo.switch_model = model;
    cp.cpu.freq_ghz = cpu_ghz;
    cp.topo.rack_sw.buffer_policy = policy;
    cp.topo.rack_sw.buffer_per_port_bytes = buffer_bytes;
    // Shared pools are sized for the full switch (16-port class), not
    // for the subset of occupied ports.
    cp.topo.rack_sw.buffer_total_bytes = buffer_bytes * 16;
    sim::Cluster cluster(sim, cp);

    apps::IncastParams ip;
    ip.block_bytes = 256 * 1024;
    ip.iterations = iterations;
    ip.use_epoll = use_epoll;
    std::vector<net::NodeId> servers;
    for (uint32_t i = 1; i <= num_servers; ++i) {
        servers.push_back(i);
    }
    apps::IncastApp app(cluster, ip, 0, servers);
    app.install();
    sim.run();
    return app.result();
}

inline void
banner(const char *title, const char *paper_ref)
{
    std::printf("==========================================================\n");
    std::printf("%s\n", title);
    std::printf("Reproduces: %s\n", paper_ref);
    std::printf("Scale: DIABLO_SCALE=%s (requests/client=%u)\n",
                std::getenv("DIABLO_SCALE") ? std::getenv("DIABLO_SCALE")
                                            : "quick",
                requestsPerClient());
    std::printf("==========================================================\n");
}

} // namespace bench
} // namespace diablo

#endif // DIABLO_BENCH_BENCH_UTIL_HH_
