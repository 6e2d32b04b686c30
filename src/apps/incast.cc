#include "apps/incast.hh"

#include "apps/app_util.hh"
#include "core/log.hh"

namespace diablo {
namespace apps {

namespace {

/** Client-side coordination between the main task and its workers. */
struct ClientShared {
    explicit ClientShared(Simulator &sim)
        : ready_wq(sim), start_wq(sim), done_wq(sim) {}

    os::WaitQueue ready_wq;
    os::WaitQueue start_wq;
    os::WaitQueue done_wq;
    uint32_t ready = 0;
    uint32_t pending = 0;
    bool stop = false;
};

/** One incast server: accept a single connection, then serve blocks. */
Task<>
incastServer(os::Kernel &k, IncastParams p)
{
    os::Thread &t = k.createThread("incast-srv");
    long lfd = co_await k.sysSocket(t, net::Proto::Tcp);
    co_await k.sysBind(t, static_cast<int>(lfd), p.port);
    co_await k.sysListen(t, static_cast<int>(lfd), 16);
    long fd = co_await k.sysAccept(t, static_cast<int>(lfd), true);
    if (fd < 0) {
        co_return;
    }
    while (true) {
        uint64_t got = 0;
        while (got < p.request_bytes) {
            long n = co_await k.sysRecv(t, static_cast<int>(fd),
                                        p.request_bytes - got, nullptr);
            if (n <= 0) {
                co_return; // client closed
            }
            got += static_cast<uint64_t>(n);
        }
        // Parse the request and prepare the block (SRU).
        co_await t.compute(3000);
        co_await k.sysSend(t, static_cast<int>(fd), p.block_bytes,
                           nullptr);
    }
}

/** pthread-style worker: one blocking thread per server connection. */
Task<>
incastWorker(os::Kernel &k, std::shared_ptr<ClientShared> sh,
             net::NodeId server, IncastParams p)
{
    os::Thread &t = k.createThread("incast-w");
    long fd = co_await connectWithRetry(k, t, server, p.port);
    if (fd < 0) {
        panic("incast worker: connect to node %u failed", server);
    }
    ++sh->ready;
    sh->ready_wq.wakeOne();

    while (true) {
        co_await sh->start_wq.wait();
        if (sh->stop) {
            co_return;
        }
        co_await k.sysSend(t, static_cast<int>(fd), p.request_bytes,
                           nullptr);
        uint64_t got = 0;
        while (got < p.block_bytes) {
            long n = co_await k.sysRecv(t, static_cast<int>(fd),
                                        p.block_bytes - got, nullptr);
            if (n <= 0) {
                co_return;
            }
            got += static_cast<uint64_t>(n);
        }
        if (--sh->pending == 0) {
            sh->done_wq.wakeOne();
        }
    }
}

/** Blocking-threads client main: barrier per iteration. */
Task<>
incastMainPthread(sim::Cluster *cluster, net::NodeId client,
                  std::vector<net::NodeId> servers, IncastParams p,
                  std::shared_ptr<IncastResult> res)
{
    os::Kernel &k = cluster->kernel(client);
    auto sh = std::make_shared<ClientShared>(k.sim());
    const uint32_t n = static_cast<uint32_t>(servers.size());

    for (net::NodeId s : servers) {
        k.spawnProcess(incastWorker(k, sh, s, p));
    }
    while (sh->ready < n) {
        co_await sh->ready_wq.wait();
    }

    for (uint32_t w = 0; w < p.warmup_iterations; ++w) {
        sh->pending = n;
        sh->start_wq.wakeAll();
        while (sh->pending > 0) {
            co_await sh->done_wq.wait();
        }
    }

    const SimTime start = k.sim().now();
    for (uint32_t iter = 0; iter < p.iterations; ++iter) {
        const SimTime it_start = k.sim().now();
        sh->pending = n;
        sh->start_wq.wakeAll();
        while (sh->pending > 0) {
            co_await sh->done_wq.wait();
        }
        res->iteration_us.record((k.sim().now() - it_start).asMicros());
    }
    res->elapsed = k.sim().now() - start;
    res->total_bytes =
        static_cast<uint64_t>(n) * p.block_bytes * p.iterations;
    res->done = true;
    sh->stop = true;
    sh->start_wq.wakeAll();
}

/** epoll client: one thread multiplexing every server connection. */
Task<>
incastMainEpoll(sim::Cluster *cluster, net::NodeId client,
                std::vector<net::NodeId> servers, IncastParams p,
                std::shared_ptr<IncastResult> res)
{
    os::Kernel &k = cluster->kernel(client);
    os::Thread &t = k.createThread("incast-ep");
    const uint32_t n = static_cast<uint32_t>(servers.size());

    std::vector<int> fds;
    for (net::NodeId s : servers) {
        long fd = co_await connectWithRetry(k, t, s, p.port);
        if (fd < 0) {
            panic("incast epoll client: connect to node %u failed", s);
        }
        fds.push_back(static_cast<int>(fd));
    }
    long ep = co_await k.sysEpollCreate(t);
    for (int fd : fds) {
        co_await k.sysEpollCtlAdd(t, static_cast<int>(ep), fd);
    }

    std::vector<os::EpollEvent> events;
    SimTime start;
    for (uint32_t iter = 0; iter < p.warmup_iterations + p.iterations;
         ++iter) {
        if (iter == p.warmup_iterations) {
            start = k.sim().now();
        }
        const SimTime it_start = k.sim().now();
        for (int fd : fds) {
            co_await k.sysSend(t, fd, p.request_bytes, nullptr);
        }
        uint64_t remaining = static_cast<uint64_t>(n) * p.block_bytes;
        while (remaining > 0) {
            long r = co_await k.sysEpollWait(t, static_cast<int>(ep),
                                             &events, 64);
            if (r < 0) {
                // A crashed kernel fails the wait without suspending:
                // retrying would spin at one instant forever.
                co_return;
            }
            for (const auto &e : events) {
                long got = co_await k.sysRecv(t, e.fd, remaining,
                                              nullptr);
                if (got > 0) {
                    remaining -= static_cast<uint64_t>(got);
                }
            }
        }
        if (iter >= p.warmup_iterations) {
            res->iteration_us.record(
                (k.sim().now() - it_start).asMicros());
        }
    }
    res->elapsed = k.sim().now() - start;
    res->total_bytes =
        static_cast<uint64_t>(n) * p.block_bytes * p.iterations;
    res->done = true;
}

/** Servers 1..n of an incast fan-in. */
std::vector<net::NodeId>
fanInServers(uint32_t n)
{
    std::vector<net::NodeId> servers;
    for (uint32_t i = 1; i <= n; ++i) {
        servers.push_back(i);
    }
    return servers;
}

} // namespace

IncastApp::IncastApp(sim::Cluster &cluster, const IncastParams &params,
                     net::NodeId client, std::vector<net::NodeId> servers)
    : cluster_(cluster), params_(params), client_(client),
      servers_(std::move(servers)),
      result_(std::make_shared<IncastResult>())
{
    if (servers_.empty()) {
        fatal("IncastApp: needs at least one server");
    }
}

void
IncastApp::install()
{
    for (net::NodeId s : servers_) {
        cluster_.kernel(s).spawnProcess(
            incastServer(cluster_.kernel(s), params_));
    }
    if (params_.use_epoll) {
        cluster_.kernel(client_).spawnProcess(incastMainEpoll(
            &cluster_, client_, servers_, params_, result_));
    } else {
        cluster_.kernel(client_).spawnProcess(incastMainPthread(
            &cluster_, client_, servers_, params_, result_));
    }
}

IncastExperimentParams
IncastExperimentParams::fromConfig(const Config &cfg)
{
    IncastExperimentParams p;
    p.num_servers =
        static_cast<uint32_t>(cfg.getUint("incast.servers", 8));
    // incast.racks spreads the fan-in across racks so the trunk and
    // the sharded engines have cross-partition traffic to chew on;
    // the default keeps the classic single-ToR shape.
    const auto racks =
        static_cast<uint32_t>(cfg.getUint("incast.racks", 1));
    p.cluster = sim::ClusterParams::fromConfig(cfg);
    p.cluster.topo.servers_per_rack =
        (p.num_servers + 1 + racks - 1) / racks;
    p.cluster.topo.racks_per_array = racks;
    p.cluster.topo.num_arrays = 1;
    p.incast.block_bytes = cfg.getUint("incast.block_bytes", 256 * 1024);
    p.incast.iterations =
        static_cast<uint32_t>(cfg.getUint("incast.iterations", 20));
    p.incast.use_epoll = cfg.getBool("incast.epoll", false);
    return p;
}

IncastExperiment::IncastExperiment(Simulator &sim,
                                   const IncastExperimentParams &params)
    : cluster_(std::make_unique<sim::Cluster>(sim, params.cluster)),
      app_(*cluster_, params.incast, 0, fanInServers(params.num_servers))
{
    app_.install();
}

IncastExperiment::IncastExperiment(fame::PartitionSet &ps,
                                   const IncastExperimentParams &params)
    : cluster_(std::make_unique<sim::Cluster>(ps, params.cluster)),
      app_(*cluster_, params.incast, 0, fanInServers(params.num_servers))
{
    app_.install();
}

void
IncastExperiment::run(bool parallel)
{
    run(cluster_->engineStep(parallel));
}

void
IncastExperiment::run(const sim::Cluster::Step &step)
{
    cluster_->drive(SimTime::ms(250), SimTime::sec(600), step,
                    [this] { return app_.result().done; }, pulse_, probe_);
}

} // namespace apps
} // namespace diablo
