#include "apps/memcached.hh"

#include "apps/app_util.hh"
#include "core/log.hh"

namespace diablo {
namespace apps {

namespace {

constexpr uint32_t kResponseOverheadBytes = 24;

uint64_t
serviceCycles(const McServerParams &p, const McRequest &req)
{
    return p.request_base_cycles +
           static_cast<uint64_t>(req.value_bytes *
                                 p.value_cycles_per_byte);
}

// ---------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------

struct ServerShared {
    explicit ServerShared(Simulator &sim) : ready_wq(sim) {}

    std::vector<long> worker_epfd;
    uint32_t ready = 0;
    os::WaitQueue ready_wq;
};

/** Handle every complete request in @p msgs on stream @p fd. */
Task<>
handleTcpRequests(os::Kernel &k, os::Thread &t, const McServerParams &p,
                  int fd, std::vector<os::RecvedMessage> msgs)
{
    for (const auto &m : msgs) {
        auto req = std::dynamic_pointer_cast<const McRequest>(m.msg);
        if (!req) {
            continue;
        }
        co_await t.compute(serviceCycles(p, *req));
        auto resp = std::make_shared<McResponse>();
        resp->req_id = req->req_id;
        const uint64_t resp_bytes =
            kResponseOverheadBytes + (req->is_get ? req->value_bytes : 0);
        co_await k.sysSend(t, fd, resp_bytes, resp);
    }
}

/** One libevent-style worker: epoll loop over its connections. */
Task<>
mcTcpWorker(os::Kernel &k, std::shared_ptr<ServerShared> sh, uint32_t idx,
            McServerParams p)
{
    os::Thread &t = k.createThread(strprintf("mc-w%u", idx));
    long ep = co_await k.sysEpollCreate(t);
    sh->worker_epfd[idx] = ep;
    ++sh->ready;
    sh->ready_wq.wakeOne();

    std::vector<os::EpollEvent> events;
    while (true) {
        long r = co_await k.sysEpollWait(t, static_cast<int>(ep), &events,
                                         64);
        if (r < 0) {
            // A crashed kernel fails the wait without suspending:
            // retrying would spin at one instant forever.
            co_return;
        }
        for (const auto &e : events) {
            std::vector<os::RecvedMessage> msgs;
            long n = co_await k.sysRecv(t, e.fd, 1 << 20, &msgs);
            if (n <= 0) {
                continue; // EOF handling: connection stays closed
            }
            co_await handleTcpRequests(k, t, p, e.fd, std::move(msgs));
        }
    }
}

/** Dispatcher: accepts and hands connections to workers round-robin. */
Task<>
mcTcpDispatcher(os::Kernel &k, std::shared_ptr<ServerShared> sh,
                McServerParams p)
{
    os::Thread &t = k.createThread("mc-main");
    long lfd = co_await k.sysSocket(t, net::Proto::Tcp);
    co_await k.sysBind(t, static_cast<int>(lfd), p.port);
    co_await k.sysListen(t, static_cast<int>(lfd), 1024);

    while (sh->ready < p.worker_threads) {
        co_await sh->ready_wq.wait();
    }

    uint32_t next = 0;
    while (true) {
        long fd = co_await k.sysAccept(t, static_cast<int>(lfd),
                                       p.usesAccept4());
        if (fd < 0) {
            co_return;
        }
        co_await k.sysEpollCtlAdd(
            t, static_cast<int>(sh->worker_epfd[next]),
            static_cast<int>(fd));
        next = (next + 1) % p.worker_threads;
    }
}

/** UDP worker: all workers share the server socket, as in 1.4.x. */
Task<>
mcUdpWorker(os::Kernel &k, int fd, uint32_t idx, McServerParams p)
{
    os::Thread &t = k.createThread(strprintf("mc-u%u", idx));
    while (true) {
        os::RecvedMessage m;
        long n = co_await k.sysRecvFrom(t, fd, &m);
        if (n < 0) {
            co_return;
        }
        auto req = std::dynamic_pointer_cast<const McRequest>(m.msg);
        if (!req) {
            continue;
        }
        co_await t.compute(serviceCycles(p, *req));
        auto resp = std::make_shared<McResponse>();
        resp->req_id = req->req_id;
        const uint64_t resp_bytes =
            kResponseOverheadBytes + (req->is_get ? req->value_bytes : 0);
        co_await k.sysSendTo(t, fd, m.from, m.from_port, resp_bytes, resp);
    }
}

Task<>
mcUdpMain(os::Kernel &k, McServerParams p)
{
    os::Thread &t = k.createThread("mc-umain");
    long fd = co_await k.sysSocket(t, net::Proto::Udp);
    co_await k.sysBind(t, static_cast<int>(fd), p.port);
    for (uint32_t i = 0; i < p.worker_threads; ++i) {
        k.spawnProcess(mcUdpWorker(k, static_cast<int>(fd), i, p));
    }
}

// ---------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------

struct ClientCtx {
    sim::Cluster *cluster;
    net::NodeId me;
    std::vector<net::NodeId> servers;
    McClientParams params;
    std::shared_ptr<McClientStats> stats;
    Rng rng;
    std::unique_ptr<EtcWorkload> workload;
};

std::shared_ptr<McRequest>
buildRequest(ClientCtx &ctx, net::NodeId server, uint64_t req_id,
             uint16_t reply_port)
{
    GeneratedRequest g = ctx.workload->next(server);
    auto req = std::make_shared<McRequest>();
    req->is_get = g.is_get;
    req->req_id = req_id;
    req->key_id = g.key_id;
    req->key_bytes = g.key_bytes;
    req->value_bytes = g.value_bytes;
    req->client = ctx.me;
    req->reply_port = reply_port;
    return req;
}

uint64_t
requestWireBytes(const McClientParams &p, const McRequest &req)
{
    // SETs carry the value; GETs only the key.
    return p.request_overhead_bytes + req.key_bytes +
           (req.is_get ? 0 : req.value_bytes);
}

void
recordLatency(ClientCtx &ctx, net::NodeId server, SimTime elapsed)
{
    const double us = elapsed.asMicros();
    ctx.stats->latency_us.record(us);
    const auto hop = static_cast<size_t>(
        ctx.cluster->network().hopClass(ctx.me, server));
    ctx.stats->latency_us_by_hop[hop].record(us);
    ++ctx.stats->requests_completed;
}

Task<>
mcTcpClient(std::shared_ptr<ClientCtx> ctx)
{
    os::Kernel &k = ctx->cluster->kernel(ctx->me);
    os::Thread &t = k.createThread("mc-cli");
    std::unordered_map<net::NodeId, int> fds;

    // Production memcached clients keep a persistent connection pool to
    // the whole server fleet; build it before the measured request
    // phase.  Starts are staggered across the start window and each
    // client walks the fleet in its own random order, so thousands of
    // clients do not synchronize a SYN storm into the trunk links.
    co_await k.sim().sleep(SimTime::microseconds(ctx->rng.uniform(
        0.0, ctx->params.start_window.asMicros())));
    if (ctx->params.preconnect) {
        std::vector<net::NodeId> order = ctx->servers;
        for (size_t i = order.size(); i > 1; --i) {
            std::swap(order[i - 1],
                      order[ctx->rng.uniformInt(0, i - 1)]);
        }
        for (net::NodeId server : order) {
            long fd = co_await connectWithRetry(k, t, server,
                                                ctx->params.port);
            if (fd < 0) {
                panic("mc client %u: connect to %u failed", ctx->me,
                      server);
            }
            fds.emplace(server, static_cast<int>(fd));
        }
    }

    for (uint32_t i = 0; i < ctx->params.requests; ++i) {
        const net::NodeId server = ctx->servers[ctx->rng.uniformInt(
            0, ctx->servers.size() - 1)];
        auto fit = fds.find(server);
        const bool fresh_connection = fit == fds.end();
        if (fresh_connection) {
            long nfd = co_await connectWithRetry(k, t, server,
                                                 ctx->params.port);
            if (nfd < 0) {
                panic("mc client %u: connect to %u failed", ctx->me,
                      server);
            }
            fit = fds.emplace(server, static_cast<int>(nfd)).first;
        }
        const int fd = fit->second;

        auto req = buildRequest(*ctx, server, i, 0);
        co_await t.compute(ctx->params.client_cycles);
        const SimTime start = k.sim().now();
        co_await k.sysSend(t, fd, requestWireBytes(ctx->params, *req),
                           req);

        // Closed loop on a dedicated connection: the next response
        // message is ours.
        bool got_resp = false;
        while (!got_resp) {
            std::vector<os::RecvedMessage> msgs;
            long n = co_await k.sysRecv(t, fd, 1 << 20, &msgs);
            if (n <= 0) {
                panic("mc client %u: connection to %u died", ctx->me,
                      server);
            }
            for (const auto &m : msgs) {
                auto resp =
                    std::dynamic_pointer_cast<const McResponse>(m.msg);
                if (resp && resp->req_id == req->req_id) {
                    got_resp = true;
                }
            }
        }
        recordLatency(*ctx, server, k.sim().now() - start);
        if (fresh_connection) {
            ctx->stats->first_request_us.record(
                (k.sim().now() - start).asMicros());
        }
        co_await k.sim().sleep(SimTime::seconds(ctx->rng.exponential(
            ctx->params.think_mean.asSeconds())));
    }
    ctx->stats->finished = k.sim().now();
    ctx->stats->done = true;
}

Task<>
mcUdpClient(std::shared_ptr<ClientCtx> ctx)
{
    os::Kernel &k = ctx->cluster->kernel(ctx->me);
    os::Thread &t = k.createThread("mc-cli");
    long fd = co_await k.sysSocket(t, net::Proto::Udp);

    // Clients come up over a window, not in lockstep.
    co_await k.sim().sleep(SimTime::microseconds(ctx->rng.uniform(
        0.0, ctx->params.start_window.asMicros())));

    for (uint32_t i = 0; i < ctx->params.requests; ++i) {
        const net::NodeId server = ctx->servers[ctx->rng.uniformInt(
            0, ctx->servers.size() - 1)];
        auto req = buildRequest(*ctx, server, i, 0);
        co_await t.compute(ctx->params.client_cycles);
        const SimTime start = k.sim().now();

        bool answered = false;
        for (uint32_t attempt = 0;
             attempt <= ctx->params.udp_max_retries && !answered;
             ++attempt) {
            if (attempt > 0) {
                ++ctx->stats->udp_retries;
            }
            co_await k.sysSendTo(t, static_cast<int>(fd), server,
                                 ctx->params.port,
                                 requestWireBytes(ctx->params, *req),
                                 req);
            // Wait for our response until the retry timer fires.
            const SimTime deadline =
                k.sim().now() + ctx->params.udp_retry_timeout;
            while (!answered) {
                const SimTime left = deadline - k.sim().now();
                if (left <= SimTime()) {
                    break;
                }
                os::RecvedMessage m;
                long n = co_await k.sysRecvFrom(t, static_cast<int>(fd),
                                                &m, left);
                if (n == os::err::kTimedOut) {
                    break;
                }
                auto resp =
                    std::dynamic_pointer_cast<const McResponse>(m.msg);
                if (resp && resp->req_id == req->req_id) {
                    answered = true; // stale duplicates are discarded
                }
            }
        }
        if (answered) {
            recordLatency(*ctx, server, k.sim().now() - start);
        } else {
            ++ctx->stats->udp_timeouts;
        }
        co_await k.sim().sleep(SimTime::seconds(ctx->rng.exponential(
            ctx->params.think_mean.asSeconds())));
    }
    ctx->stats->finished = k.sim().now();
    ctx->stats->done = true;
}

} // namespace

void
installMemcachedServer(sim::Cluster &cluster, net::NodeId node,
                       const McServerParams &params)
{
    os::Kernel &k = cluster.kernel(node);
    if (params.udp) {
        k.spawnProcess(mcUdpMain(k, params));
        return;
    }
    // The server's own rack simulator: a sharded build, which TCP
    // servers must support too, has no single one.
    auto sh = std::make_shared<ServerShared>(k.sim());
    sh->worker_epfd.resize(params.worker_threads, -1);
    for (uint32_t i = 0; i < params.worker_threads; ++i) {
        k.spawnProcess(mcTcpWorker(k, sh, i, params));
    }
    k.spawnProcess(mcTcpDispatcher(k, sh, params));
}

void
installMemcachedClient(sim::Cluster &cluster, net::NodeId node,
                       std::vector<net::NodeId> servers,
                       const McClientParams &params,
                       std::shared_ptr<McClientStats> stats)
{
    if (servers.empty()) {
        fatal("memcached client: no servers given");
    }
    auto ctx = std::make_shared<ClientCtx>(ClientCtx{
        &cluster,
        node,
        std::move(servers),
        params,
        std::move(stats),
        cluster.rng().fork(node).fork("mc-client"),
        std::make_unique<EtcWorkload>(
            params.workload, cluster.rng().fork(node).fork("mc-workload")),
    });

    if (params.udp) {
        cluster.kernel(node).spawnProcess(mcUdpClient(std::move(ctx)));
    } else {
        cluster.kernel(node).spawnProcess(mcTcpClient(std::move(ctx)));
    }
}

} // namespace apps
} // namespace diablo
