#ifndef DIABLO_APPS_MEMCACHED_HH_
#define DIABLO_APPS_MEMCACHED_HH_

/**
 * @file
 * Behavioural model of memcached 1.4.15 / 1.4.17 and a Facebook-ETC
 * closed-loop client (paper §4.2).
 *
 * Server: a listener/dispatcher thread plus N worker threads, each
 * running an epoll event loop over its share of connections (memcached's
 * libevent threads), or — in UDP mode — all workers receiving from the
 * shared UDP socket, as memcached 1.4.x does.  The modeled difference
 * between 1.4.15 and 1.4.17 is the accept path: 1.4.17 uses accept4(),
 * eliminating one fcntl syscall round trip per new TCP connection ([22],
 * paper §4.2 "Impact of application implementation").
 *
 * Client: closed loop; each request picks a uniformly random server,
 * draws ETC-shaped key/value sizes, and measures the full user-level
 * round trip.  UDP requests are retried on a timeout, like real
 * memcached clients; latencies of retried requests include the stall,
 * which is exactly how production long tails look.
 */

#include <memory>
#include <vector>

#include "apps/workload.hh"
#include "core/stats.hh"
#include "sim/cluster.hh"

namespace diablo {
namespace apps {

/** memcached request riding on packets. */
struct McRequest : net::AppData {
    bool is_get = true;
    uint64_t req_id = 0;
    uint64_t key_id = 0;
    uint32_t key_bytes = 0;
    uint32_t value_bytes = 0; ///< size to store (SET) / expected (GET)
    net::NodeId client = net::kInvalidNode;
    uint16_t reply_port = 0;
};

/** memcached response. */
struct McResponse : net::AppData {
    uint64_t req_id = 0;
    bool hit = true;
};

/** Server-side parameters. */
struct McServerParams {
    /** 1415 or 1417; selects the accept path (accept4 from 1.4.17). */
    int version = 1417;
    uint32_t worker_threads = 4;
    bool udp = false;
    uint16_t port = 11211;

    // Fixed-CPI service cost model.
    uint64_t request_base_cycles = 9000;  ///< parse + hash + dispatch
    double value_cycles_per_byte = 0.25;  ///< item assembly/copy

    bool usesAccept4() const { return version >= 1417; }
};

/** Client-side parameters. */
struct McClientParams {
    uint32_t requests = 300;       ///< paper: 30,000
    bool udp = false;
    uint16_t port = 11211;
    /** Mean exponential think time between requests.  The default puts
     *  the oversubscribed inter-array trunks at roughly 60% load in the
     *  paper's 2,000-node topology: servers stay under 50% CPU and no
     *  buffer-overrun retransmissions occur, but aggregation-layer
     *  queueing bursts produce the long tail. */
    SimTime think_mean = SimTime::microseconds(1500);
    /** Clients come up uniformly over this window. */
    SimTime start_window = SimTime::ms(100);
    /** UDP retry timeout and cap (client-level reliability).  250 ms is
     *  a typical memcached client poll timeout — note it exceeds TCP's
     *  200 ms minimum RTO, which is what lets TCP edge out UDP once
     *  drops appear at scale (Figure 13's reversal). */
    SimTime udp_retry_timeout = SimTime::ms(250);
    uint32_t udp_max_retries = 3;
    /** Request wire overhead beyond the key (protocol framing). */
    uint32_t request_overhead_bytes = 30;
    /** Response overhead beyond the value. */
    uint32_t response_overhead_bytes = 24;
    /** Client-side bookkeeping cost per request. */
    uint64_t client_cycles = 4000;
    /** TCP: build the whole connection pool before the measured phase
     *  (production behaviour).  When false, connections are opened
     *  lazily on first use so connection setup — including the
     *  accept/accept4 server path — lands inside measured request
     *  latencies (used by the Figure 15 version study). */
    bool preconnect = true;

    EtcWorkloadParams workload;
};

/** Per-client measurements (aggregate across clients in the harness).
 *  The latency fields are LatencyStats: raw SampleSets by default, or
 *  fixed-memory quantile sketches after enableSketch() — the harness
 *  switches every client at paper scale so folding 32k clients stays
 *  O(clients * bins) instead of O(total samples * log). */
struct McClientStats {
    bool done = false;
    SimTime finished;                    ///< when done was set
    LatencyStat latency_us;              ///< all requests
    LatencyStat latency_us_by_hop[3];    ///< Local / OneHop / TwoHop
    /** First request on each lazily-opened TCP connection: the requests
     *  whose latency contains the server's accept/accept4 path. */
    LatencyStat first_request_us;
    uint64_t udp_timeouts = 0;           ///< requests lost after retries
    uint64_t udp_retries = 0;
    uint64_t requests_completed = 0;
};

/** Install a memcached server instance on @p node. */
void installMemcachedServer(sim::Cluster &cluster, net::NodeId node,
                            const McServerParams &params);

/**
 * Install a closed-loop client on @p node targeting @p servers.
 * @p stats must outlive the run.
 */
void installMemcachedClient(sim::Cluster &cluster, net::NodeId node,
                            std::vector<net::NodeId> servers,
                            const McClientParams &params,
                            std::shared_ptr<McClientStats> stats);

} // namespace apps
} // namespace diablo

#endif // DIABLO_APPS_MEMCACHED_HH_
