#include "os/kernel.hh"

#include <algorithm>

#include "core/log.hh"

namespace diablo {
namespace os {

// Per-node byte budgets for the paper-scale memory diet: a 32k-node
// warehouse instantiates one Kernel (and its Socket/connection tables)
// per *materialized* server, so struct growth multiplies by the active
// set.  These asserts catch a member addition that silently regresses
// bytes/node; raise them deliberately, with a BENCH_scale.json rerun.
static_assert(sizeof(Kernel) <= 1280,
              "os::Kernel grew past its per-node byte budget");
static_assert(sizeof(Socket) <= 512,
              "os::Socket grew past its per-connection byte budget");

namespace {

/** Largest UDP payload per fragment on a standard-MTU Ethernet. */
constexpr uint64_t kUdpFragPayload = 1472;

/** Kernel skb truesize overhead charged per buffered datagram. */
constexpr uint64_t kDatagramOverheadBytes = 512;

/** Loopback delivery delay (no NIC involved). */
const SimTime kLoopbackDelay = SimTime::us(10);

} // namespace

Kernel::Kernel(Simulator &sim, net::NodeId node,
               const CpuParams &cpu_params, const KernelProfile &profile,
               std::function<net::SourceRoute(net::NodeId)> route_lookup)
    : sim_(sim), node_(node), profile_(profile),
      route_lookup_(std::move(route_lookup))
{
    cpu_ = std::make_unique<Cpu>(sim, cpu_params,
                                 profile_.timeslice_cycles,
                                 profile_.context_switch_cycles);
}

Kernel::~Kernel()
{
    // Destroy suspended process frames before anything they reference.
    processes_.clear();
}

void
Kernel::spawnProcess(Task<> body)
{
    processes_.push_back(std::move(body));
    Task<> *t = &processes_.back(); // deque: stable address
    sim_.schedule(SimTime(), [t] {
        t->resume();
        t->checkRootException();
    }, event_prio::kWakeup);
}

Thread &
Kernel::createThread(const std::string &name)
{
    threads_.push_back(std::make_unique<Thread>(*this, *cpu_,
                                                next_thread_id_++, name));
    return *threads_.back();
}

Socket *
Kernel::socketFor(int fd)
{
    auto it = sockets_.find(fd);
    return it == sockets_.end() ? nullptr : it->second.get();
}

int
Kernel::allocFd()
{
    return next_fd_++;
}

uint16_t
Kernel::allocEphemeralPort()
{
    for (int tries = 0; tries < 65536; ++tries) {
        uint16_t p = next_ephemeral_;
        next_ephemeral_ = next_ephemeral_ >= 60999 ? 32768
                                                   : next_ephemeral_ + 1;
        if (udp_bound_.find(p) == udp_bound_.end()) {
            return p;
        }
    }
    panic("node %u: out of ephemeral ports", node_);
}

Task<long>
Kernel::chargeSyscall(Thread &t, uint64_t body_cycles)
{
    ++stats_.syscalls;
    co_await t.kcompute(profile_.syscall_entry_cycles + body_cycles +
                        profile_.syscall_exit_cycles);
    co_return 0;
}

// ---------------------------------------------------------------------
// Socket syscalls
// ---------------------------------------------------------------------

Task<long>
Kernel::sysSocket(Thread &t, net::Proto proto)
{
    if (crashed_) {
        co_return err::kIO;
    }
    co_await chargeSyscall(t, profile_.socket_create_cycles);
    int fd = allocFd();
    sockets_[fd] = std::make_unique<Socket>(sim_, fd, proto);
    co_return fd;
}

Task<long>
Kernel::sysBind(Thread &t, int fd, uint16_t port)
{
    if (crashed_) {
        co_return err::kIO;
    }
    co_await chargeSyscall(t, 800);
    Socket *s = socketFor(fd);
    if (s == nullptr) {
        co_return err::kBadF;
    }
    if (s->proto == net::Proto::Udp) {
        if (udp_bound_.count(port)) {
            co_return err::kInUse;
        }
        udp_bound_[port] = s;
    } else {
        if (tcp_listen_.count(port)) {
            co_return err::kInUse;
        }
    }
    s->local_port = port;
    s->bound = true;
    co_return 0;
}

Task<long>
Kernel::sysListen(Thread &t, int fd, uint32_t backlog)
{
    if (crashed_) {
        co_return err::kIO;
    }
    co_await chargeSyscall(t, 1200);
    Socket *s = socketFor(fd);
    if (s == nullptr || s->proto != net::Proto::Tcp || !s->bound) {
        co_return err::kInval;
    }
    if (tcp_listen_.count(s->local_port)) {
        co_return err::kInUse;
    }
    s->listening = true;
    s->backlog_max = backlog;
    tcp_listen_[s->local_port] = s;
    co_return 0;
}

Task<long>
Kernel::sysConnect(Thread &t, int fd, net::NodeId dst, uint16_t dport)
{
    if (crashed_) {
        co_return err::kIO;
    }
    co_await chargeSyscall(t, profile_.connect_cycles);
    Socket *s = socketFor(fd);
    if (s == nullptr || s->proto != net::Proto::Tcp || s->conn) {
        co_return err::kInval;
    }
    s->local_port = allocEphemeralPort();
    net::FlowKey flow{node_, dst, s->local_port, dport, net::Proto::Tcp};
    auto conn = std::make_unique<TcpConnection>(*this, *s, flow,
                                                tcp_params_);
    TcpConnection *c = conn.get();
    conns_[flow] = std::move(conn);
    c->startConnect();

    while (c->state() != TcpConnection::State::Established) {
        if (c->connectFailed() ||
            c->state() == TcpConnection::State::Closed) {
            // SYN-retry exhaustion (or a local crash) reports its
            // errno; a peer's RST stays ECONNREFUSED.
            co_return c->aborted() ? c->abortError() : err::kConnRefused;
        }
        co_await s->writers.wait();
    }
    uint64_t charge = drainTxCharge();
    if (charge) {
        co_await t.kcompute(charge);
    }
    co_return 0;
}

Task<long>
Kernel::sysAccept(Thread &t, int fd, bool use_accept4)
{
    if (crashed_) {
        co_return err::kIO;
    }
    co_await chargeSyscall(t, 300); // entry / fast path to the wait
    Socket *s = socketFor(fd);
    if (s == nullptr || !s->listening) {
        co_return err::kInval;
    }
    while (s->accept_queue.empty()) {
        co_await s->readers.wait();
        if (crashed_) {
            co_return err::kIO;
        }
        if (s->closed) {
            co_return err::kBadF;
        }
    }
    TcpConnection *c = s->accept_queue.front();
    s->accept_queue.pop_front();

    // The accept body runs once a connection is handed over, so it sits
    // on the request critical path.
    uint64_t cost = profile_.accept_cycles;
    if (!use_accept4) {
        // Pre-accept4 servers issue a separate fcntl(O_NONBLOCK) per
        // accepted connection (the memcached 1.4.15 vs 1.4.17 delta).
        cost += profile_.accept_extra_fcntl_cycles +
                profile_.syscall_entry_cycles + profile_.syscall_exit_cycles;
    }
    co_await t.kcompute(cost);

    // Promote the embryonic socket to a real fd.
    Socket *cs = &c->socket();
    cs->fd = allocFd();
    for (auto it = embryonic_sockets_.begin();
         it != embryonic_sockets_.end(); ++it) {
        if (it->get() == cs) {
            sockets_[cs->fd] = std::move(*it);
            embryonic_sockets_.erase(it);
            break;
        }
    }
    co_return cs->fd;
}

Task<long>
Kernel::sysSend(Thread &t, int fd, uint64_t bytes,
                std::shared_ptr<const net::AppData> msg)
{
    if (crashed_) {
        co_return err::kIO;
    }
    Socket *s = socketFor(fd);
    if (s == nullptr || s->conn == nullptr) {
        co_return err::kNotConn;
    }
    uint64_t copy_cycles;
    if (nic_ != nullptr && nic_->zeroCopy()) {
        // Scatter/gather DMA: pin pages instead of copying.
        copy_cycles = 200 + bytes / 256;
    } else {
        copy_cycles = static_cast<uint64_t>(
            static_cast<double>(bytes) * profile_.copy_cycles_per_byte);
    }
    co_await chargeSyscall(t, copy_cycles);

    uint64_t remaining = bytes;
    while (remaining > 0) {
        TcpConnection *c = s->conn;
        if (c == nullptr || c->state() == TcpConnection::State::Closed) {
            co_return (c != nullptr && c->aborted()) ? c->abortError()
                                                     : err::kConnReset;
        }
        uint64_t acc = c->enqueueSend(remaining, msg);
        remaining -= acc;
        uint64_t charge = drainTxCharge();
        if (charge) {
            co_await t.kcompute(charge);
        }
        if (remaining > 0 && acc == 0) {
            co_await s->writers.wait();
        }
    }
    co_return static_cast<long>(bytes);
}

Task<long>
Kernel::sysRecv(Thread &t, int fd, uint64_t max_bytes,
                std::vector<RecvedMessage> *msgs, SimTime timeout)
{
    if (crashed_) {
        co_return err::kIO;
    }
    co_await chargeSyscall(t, 400);
    Socket *s = socketFor(fd);
    if (s == nullptr || s->conn == nullptr) {
        co_return err::kNotConn;
    }
    TcpConnection *c = s->conn;
    while (c->available() == 0) {
        if (c->aborted()) {
            // Timeout-driven abort (dead peer) surfaces its errno; an
            // orderly FIN or RST still reads as EOF below.
            co_return c->abortError();
        }
        if (c->atEof() || c->state() == TcpConnection::State::Closed) {
            co_return 0; // EOF
        }
        long r = co_await s->readers.wait(timeout);
        if (r == kWaitTimedOut) {
            co_return err::kTimedOut;
        }
        if (crashed_) {
            co_return err::kIO;
        }
        if (s->conn == nullptr) {
            co_return err::kConnReset;
        }
    }
    uint64_t n = c->consume(max_bytes, msgs);
    uint64_t charge = static_cast<uint64_t>(
        static_cast<double>(n) * profile_.copy_cycles_per_byte);
    charge += drainTxCharge(); // window-update ACK
    co_await t.kcompute(charge);
    co_return static_cast<long>(n);
}

Task<long>
Kernel::sysSendTo(Thread &t, int fd, net::NodeId dst, uint16_t dport,
                  uint64_t bytes, std::shared_ptr<const net::AppData> msg)
{
    if (crashed_) {
        co_return err::kIO;
    }
    Socket *s = socketFor(fd);
    if (s == nullptr || s->proto != net::Proto::Udp) {
        co_return err::kInval;
    }
    if (!s->bound) {
        // Auto-bind so replies can be delivered.
        s->local_port = allocEphemeralPort();
        udp_bound_[s->local_port] = s;
        s->bound = true;
    }

    const uint64_t nfrags = std::max<uint64_t>(
        1, (bytes + kUdpFragPayload - 1) / kUdpFragPayload);
    uint64_t copy_cycles = static_cast<uint64_t>(
        static_cast<double>(bytes) * profile_.copy_cycles_per_byte);
    co_await chargeSyscall(t, copy_cycles);

    const uint64_t dgram_id = next_dgram_id_++;
    uint64_t off = 0;
    for (uint64_t i = 0; i < nfrags; ++i) {
        auto p = allocPacket();
        p->flow = net::FlowKey{node_, dst, s->local_port, dport,
                               net::Proto::Udp};
        const uint64_t chunk = std::min(kUdpFragPayload, bytes - off);
        p->payload_bytes = static_cast<uint32_t>(chunk);
        p->dgram_id = dgram_id;
        p->dgram_bytes = bytes;
        p->frag_idx = static_cast<uint16_t>(i);
        p->frag_count = static_cast<uint16_t>(nfrags);
        if (i == nfrags - 1) {
            p->app = msg;
        }
        off += chunk;
        stackTransmit(std::move(p));
    }
    uint64_t charge = drainTxCharge();
    if (charge) {
        co_await t.kcompute(charge);
    }
    co_return static_cast<long>(bytes);
}

Task<long>
Kernel::sysRecvFrom(Thread &t, int fd, RecvedMessage *out, SimTime timeout)
{
    if (crashed_) {
        co_return err::kIO;
    }
    co_await chargeSyscall(t, 400);
    Socket *s = socketFor(fd);
    if (s == nullptr || s->proto != net::Proto::Udp) {
        co_return err::kInval;
    }
    while (s->dgram_rx.empty()) {
        long r = co_await s->readers.wait(timeout);
        if (r == kWaitTimedOut) {
            co_return err::kTimedOut;
        }
        if (crashed_) {
            co_return err::kIO;
        }
        if (s->closed) {
            co_return err::kBadF;
        }
    }
    RecvedMessage m = std::move(s->dgram_rx.front());
    s->dgram_rx.pop_front();
    s->dgram_rx_bytes -= m.bytes + kDatagramOverheadBytes;
    const uint64_t bytes = m.bytes;
    uint64_t copy = static_cast<uint64_t>(
        static_cast<double>(bytes) * profile_.copy_cycles_per_byte);
    co_await t.kcompute(copy);
    if (out) {
        *out = std::move(m);
    }
    co_return static_cast<long>(bytes);
}

// ---------------------------------------------------------------------
// epoll
// ---------------------------------------------------------------------

Task<long>
Kernel::sysEpollCreate(Thread &t)
{
    if (crashed_) {
        co_return err::kIO;
    }
    co_await chargeSyscall(t, profile_.epoll_create_cycles);
    int fd = allocFd();
    epolls_[fd] = std::make_unique<EpollInstance>(sim_, fd);
    co_return fd;
}

Task<long>
Kernel::sysEpollCtlAdd(Thread &t, int epfd, int fd)
{
    if (crashed_) {
        co_return err::kIO;
    }
    co_await chargeSyscall(t, profile_.epoll_ctl_cycles);
    auto it = epolls_.find(epfd);
    Socket *s = socketFor(fd);
    if (it == epolls_.end() || s == nullptr) {
        co_return err::kBadF;
    }
    EpollInstance *ep = it->second.get();
    ep->watched.insert(fd);
    s->epoll = ep;
    if (s->readReady()) {
        ep->ready.insert(fd);
        ep->waiters.wakeOne();
    }
    co_return 0;
}

Task<long>
Kernel::sysEpollWait(Thread &t, int epfd, std::vector<EpollEvent> *events,
                     uint32_t max_events, SimTime timeout)
{
    if (crashed_) {
        co_return err::kIO;
    }
    co_await chargeSyscall(t, profile_.epoll_wait_base_cycles);
    auto it = epolls_.find(epfd);
    if (it == epolls_.end()) {
        co_return err::kBadF;
    }
    EpollInstance *ep = it->second.get();
    events->clear();

    while (true) {
        // Level-triggered: re-validate readiness on every scan.
        for (auto rit = ep->ready.begin();
             rit != ep->ready.end() && events->size() < max_events;) {
            Socket *s = socketFor(*rit);
            if (s != nullptr && s->readReady()) {
                events->push_back(EpollEvent{*rit});
                ++rit;
            } else {
                rit = ep->ready.erase(rit);
            }
        }
        if (!events->empty()) {
            break;
        }
        long r = co_await ep->waiters.wait(timeout);
        if (r == kWaitTimedOut) {
            co_return 0;
        }
        if (crashed_) {
            co_return err::kIO;
        }
    }
    co_await t.kcompute(profile_.epoll_wait_per_event_cycles *
                        events->size());
    co_return static_cast<long>(events->size());
}

Task<long>
Kernel::sysClose(Thread &t, int fd)
{
    if (crashed_) {
        co_return err::kIO;
    }
    co_await chargeSyscall(t, 1500);

    auto eit = epolls_.find(fd);
    if (eit != epolls_.end()) {
        EpollInstance *ep = eit->second.get();
        for (auto &[sfd, sock] : sockets_) {
            if (sock->epoll == ep) {
                sock->epoll = nullptr;
            }
        }
        epolls_.erase(eit);
        co_return 0;
    }

    Socket *s = socketFor(fd);
    if (s == nullptr) {
        co_return err::kBadF;
    }
    s->closed = true;
    if (s->epoll != nullptr) {
        s->epoll->watched.erase(fd);
        s->epoll->ready.erase(fd);
        s->epoll = nullptr;
    }
    if (s->proto == net::Proto::Udp) {
        if (s->bound) {
            udp_bound_.erase(s->local_port);
        }
    } else if (s->listening) {
        tcp_listen_.erase(s->local_port);
        for (TcpConnection *c : s->accept_queue) {
            c->detachSocket();
            c->appClose();
        }
        s->accept_queue.clear();
    } else if (s->conn != nullptr) {
        TcpConnection *c = s->conn;
        s->conn = nullptr;
        c->detachSocket();
        c->appClose();
        uint64_t charge = drainTxCharge();
        if (charge) {
            co_await t.kcompute(charge);
        }
    }
    s->readers.wakeAll(err::kBadF);
    s->writers.wakeAll(err::kBadF);
    sockets_.erase(fd);
    co_return 0;
}

// ---------------------------------------------------------------------
// Stack-internal services
// ---------------------------------------------------------------------

net::PacketPtr
Kernel::allocPacket()
{
    return net::makePacket(sim_);
}

void
Kernel::stackTransmit(net::PacketPtr p)
{
    if (crashed_) {
        return; // a dead host sends nothing
    }
    p->created = sim_.now();
    if (p->flow.proto == net::Proto::Tcp) {
        pending_tx_charge_cycles_ +=
            p->payload_bytes > 0 ? profile_.tcp_tx_per_packet_cycles
                                 : profile_.tcp_ack_tx_cycles;
    } else {
        pending_tx_charge_cycles_ += profile_.udp_tx_per_packet_cycles;
    }

    if (p->flow.dst == node_) {
        // Loopback: no NIC, no route.
        net::Packet *raw = p.release();
        sim_.schedule(kLoopbackDelay, [this, raw] {
            processRxPacket(net::PacketPtr(raw));
        });
        return;
    }

    p->route = route_lookup_(p->flow.dst);
    if (qdisc_.size() >= qdisc_limit_pkts_) {
        ++stats_.qdisc_drops;
        return;
    }
    qdisc_.push_back(std::move(p));
    qdiscPump();
}

uint64_t
Kernel::drainTxCharge()
{
    uint64_t c = pending_tx_charge_cycles_;
    pending_tx_charge_cycles_ = 0;
    return c;
}

void
Kernel::qdiscPump()
{
    if (nic_ == nullptr) {
        panic("node %u: traffic without a NIC attached", node_);
    }
    if (tx_release_pending_ || qdisc_.empty() || nic_->txRingFull()) {
        return; // a pending release or TX completion re-kicks us
    }
    // The transmit stack runs on the fixed-CPI core: a packet reaches
    // the NIC only after its per-packet stack processing time, and
    // packets are processed one at a time (CPU-paced wire bursts).
    const net::PacketPtr &head = qdisc_.front();
    uint64_t cost;
    if (head->flow.proto == net::Proto::Tcp) {
        cost = head->payload_bytes > 0
                   ? profile_.tcp_tx_per_packet_cycles
                   : profile_.tcp_ack_tx_cycles;
    } else {
        cost = profile_.udp_tx_per_packet_cycles;
    }
    const SimTime release = std::max(sim_.now(), tx_stack_free_) +
                            cpu_->cyclesToTime(cost);
    tx_stack_free_ = release;
    tx_release_pending_ = true;
    sim_.scheduleAt(release, [this] {
        tx_release_pending_ = false;
        if (!qdisc_.empty() && !nic_->txRingFull()) {
            ++stats_.tx_packets;
            nic_->txEnqueue(std::move(qdisc_.front()));
            qdisc_.pop_front();
        }
        qdiscPump();
    });
}

void
Kernel::txRingSpace()
{
    qdiscPump();
}

SimTime
Kernel::timerExpiry(SimTime delay) const
{
    // Classic kernel timers fire on the next jiffy boundary at or after
    // the requested expiry — RTO quantization at HZ granularity.  Each
    // server's jiffy clock has its own phase (machines do not boot
    // simultaneously), which matters at scale: phase-aligned ticks would
    // synchronize RTO retransmissions across servers into artificial
    // loss storms.
    const SimTime tick = profile_.tickPeriod();
    const int64_t phase =
        static_cast<int64_t>((node_ * 0x9E3779B97F4A7C15ULL) %
                             static_cast<uint64_t>(tick.toPs()));
    const int64_t fire_ps = sim_.now().toPs() + delay.toPs();
    int64_t quantized =
        (fire_ps - phase + tick.toPs() - 1) / tick.toPs() * tick.toPs() +
        phase;
    if (quantized < fire_ps) {
        quantized += tick.toPs();
    }
    return SimTime::fromPs(quantized);
}

void
Kernel::chargeTimerWork()
{
    // Timer handlers (e.g. RTO retransmits) run in interrupt context;
    // charge any stack work they generated as softirq.
    uint64_t charge = drainTxCharge();
    if (charge) {
        cpu_->submit(SchedClass::SoftIrq, charge, 0, {});
    }
}

// ---------------------------------------------------------------------
// Receive path (IRQ -> NAPI softirq -> protocol demux)
// ---------------------------------------------------------------------

void
Kernel::rxInterrupt()
{
    if (crashed_) {
        // The wire still delivers to a dead host; the packets just die
        // on arrival (nobody polls the ring).
        discardRxRing();
        return;
    }
    if (nic_ != nullptr) {
        nic_->rxInterruptsEnable(false); // NAPI: mask until poll finishes
    }
    cpu_->submit(SchedClass::Irq, profile_.irq_entry_cycles, 0,
                 [this] { scheduleSoftirq(); });
}

void
Kernel::scheduleSoftirq()
{
    if (softirq_scheduled_) {
        return;
    }
    softirq_scheduled_ = true;
    cpu_->submit(SchedClass::SoftIrq, profile_.softirq_dispatch_cycles, 0,
                 [this] {
        softirq_scheduled_ = false;
        ++stats_.softirq_rounds;
        processNextRx(profile_.napi_budget);
    });
}

void
Kernel::processNextRx(uint32_t budget)
{
    if (nic_ == nullptr) {
        return;
    }
    if (crashed_) {
        // A softirq round already in flight when the host died.
        discardRxRing();
        return;
    }
    if (budget == 0 || nic_->rxPending() == 0) {
        if (nic_->rxPending() > 0) {
            scheduleSoftirq(); // budget exhausted: re-poll
        } else {
            nic_->rxInterruptsEnable(true);
        }
        return;
    }
    net::PacketPtr p = nic_->rxDequeue();
    uint64_t cost;
    if (p->flow.proto == net::Proto::Tcp) {
        cost = p->payload_bytes > 0 ? profile_.tcp_rx_per_packet_cycles
                                    : profile_.tcp_ack_rx_cycles;
    } else {
        cost = profile_.udp_rx_per_packet_cycles;
    }
    net::Packet *raw = p.release();
    cpu_->submit(SchedClass::SoftIrq, cost, 0, [this, raw, budget] {
        processRxPacket(net::PacketPtr(raw));
        uint64_t extra = drainTxCharge(); // ACKs and triggered sends
        if (extra > 0) {
            cpu_->submit(SchedClass::SoftIrq, extra, 0, [this, budget] {
                processNextRx(budget - 1);
            });
        } else {
            processNextRx(budget - 1);
        }
    });
}

void
Kernel::processRxPacket(net::PacketPtr p)
{
    if (crashed_) {
        ++stats_.crash_rx_discards;
        return;
    }
    ++stats_.rx_packets;
    if (p->flow.proto == net::Proto::Udp) {
        deliverUdp(std::move(p));
        return;
    }

    // TCP demux: connections are keyed by their local-perspective flow.
    const net::FlowKey key = p->flow.reversed();
    auto it = conns_.find(key);
    if (it != conns_.end()) {
        it->second->onSegment(std::move(p));
        return;
    }

    if (p->tcp.has(net::tcp_flags::kSyn) &&
        !p->tcp.has(net::tcp_flags::kAck)) {
        Socket *ls = listeningSocket(p->flow.dport);
        if (ls != nullptr) {
            auto es = std::make_unique<Socket>(sim_, -1, net::Proto::Tcp);
            es->local_port = p->flow.dport;
            auto conn = std::make_unique<TcpConnection>(*this, *es, key,
                                                        tcp_params_);
            TcpConnection *c = conn.get();
            embryonic_sockets_.push_back(std::move(es));
            conns_[key] = std::move(conn);
            c->startPassive(p->tcp.seq, p->tcp.window);
            return;
        }
    }
    sendRst(*p);
}

Socket *
Kernel::boundUdpSocket(uint16_t port)
{
    auto it = udp_bound_.find(port);
    return it == udp_bound_.end() ? nullptr : it->second;
}

Socket *
Kernel::listeningSocket(uint16_t port)
{
    auto it = tcp_listen_.find(port);
    return it == tcp_listen_.end() ? nullptr : it->second;
}

void
Kernel::deliverUdp(net::PacketPtr p)
{
    Socket *s = boundUdpSocket(p->flow.dport);
    if (s == nullptr) {
        return; // ICMP port-unreachable not modeled
    }

    RecvedMessage m;
    if (p->frag_count > 1) {
        const uint64_t key = (static_cast<uint64_t>(p->flow.src) << 40) ^
                             p->dgram_id;
        Reassembly &r = reassembly_[key];
        if (r.frags_seen == 0) {
            r.first_seen = sim_.now();
        } else if (sim_.now() - r.first_seen > SimTime::sec(30)) {
            // Stale partial datagram: Linux ip_frag timeout.
            r = Reassembly{};
            r.first_seen = sim_.now();
        }
        r.frag_count = p->frag_count;
        ++r.frags_seen;
        r.bytes = p->dgram_bytes;
        r.from = p->flow.src;
        r.from_port = p->flow.sport;
        if (p->app) {
            r.msg = p->app;
        }
        if (r.frags_seen < r.frag_count) {
            return;
        }
        m.msg = r.msg;
        m.bytes = r.bytes;
        m.from = r.from;
        m.from_port = r.from_port;
        reassembly_.erase(key);
    } else {
        m.msg = p->app;
        m.bytes = p->dgram_bytes ? p->dgram_bytes : p->payload_bytes;
        m.from = p->flow.src;
        m.from_port = p->flow.sport;
    }

    const uint64_t charge = m.bytes + kDatagramOverheadBytes;
    if (s->dgram_rx_bytes + charge > s->dgram_rx_capacity) {
        ++s->dgram_drops;
        ++stats_.udp_rx_overflow_drops;
        return;
    }
    s->dgram_rx_bytes += charge;
    s->dgram_rx.push_back(std::move(m));
    socketReadable(*s);
}

void
Kernel::sendRst(const net::Packet &to)
{
    if (to.tcp.has(net::tcp_flags::kRst)) {
        return; // never answer a RST with a RST
    }
    auto p = allocPacket();
    p->flow = to.flow.reversed();
    p->tcp.flags = net::tcp_flags::kRst;
    stackTransmit(std::move(p));
}

// ---------------------------------------------------------------------
// Wakeups
// ---------------------------------------------------------------------

void
Kernel::socketReadable(Socket &s)
{
    s.readers.wakeOne();
    if (s.epoll != nullptr && s.fd >= 0) {
        s.epoll->ready.insert(s.fd);
        s.epoll->waiters.wakeOne();
    }
}

void
Kernel::socketWritable(Socket &s)
{
    s.writers.wakeOne();
}

void
Kernel::onPassiveEstablished(TcpConnection &conn)
{
    Socket *ls = listeningSocket(conn.flow().sport);
    if (ls == nullptr || ls->accept_queue.size() >= ls->backlog_max) {
        // Listener gone or backlog overflow: reset the peer.
        auto p = allocPacket();
        p->flow = conn.flow();
        p->tcp.flags = net::tcp_flags::kRst;
        stackTransmit(std::move(p));
        destroyConnection(conn); // reclaims the embryonic socket too
        return;
    }
    ls->accept_queue.push_back(&conn);
    socketReadable(*ls);
}

void
Kernel::destroyConnection(TcpConnection &conn)
{
    // Destruction is deferred to a zero-delay event so a connection is
    // never deleted inside its own onSegment/onAck call chain.
    const net::FlowKey key = conn.flow();
    Socket *cs = conn.detached() ? nullptr : &conn.socket();
    sim_.schedule(SimTime(), [this, key, cs] {
        auto it = conns_.find(key);
        if (it == conns_.end()) {
            return;
        }
        if (cs != nullptr) {
            cs->conn = nullptr;
            // Reclaim the embryonic socket if it was never accepted.
            for (auto eit = embryonic_sockets_.begin();
                 eit != embryonic_sockets_.end(); ++eit) {
                if (eit->get() == cs) {
                    embryonic_sockets_.erase(eit);
                    break;
                }
            }
        }
        conns_.erase(it);
    });
}

// ---------------------------------------------------------------------
// Faults: server crash / reboot
// ---------------------------------------------------------------------

void
Kernel::discardRxRing()
{
    if (nic_ == nullptr) {
        return;
    }
    while (net::PacketPtr p = nic_->rxDequeue()) {
        ++stats_.crash_rx_discards;
    }
    nic_->rxInterruptsEnable(true);
}

void
Kernel::crash()
{
    if (crashed_) {
        return;
    }
    crashed_ = true;

    // Silent teardown: state goes Closed and timers die, but nothing is
    // sent — peers learn of the death only through their own RTO abort
    // timers (or an RST once this host reboots).
    for (auto &[key, conn] : conns_) {
        conn->crashTeardown();
    }

    // Wake every blocked syscall.  Frames are never destroyed here: a
    // suspended frame is registered on wait queues and CPU completion
    // events, so destroying it would dangle.  Woken coroutines observe
    // crashed_ (or their connection's abort errno) and return EIO.
    for (auto &[fd, s] : sockets_) {
        s->readers.wakeAll(err::kIO);
        s->writers.wakeAll(err::kIO);
    }
    for (auto &[fd, ep] : epolls_) {
        ep->waiters.wakeAll(err::kIO);
    }

    // Queued TX work and partial datagrams die with the host.
    qdisc_.clear();
    pending_tx_charge_cycles_ = 0;
    reassembly_.clear();

    // Packets the NIC already buffered are lost.
    discardRxRing();
}

void
Kernel::reboot()
{
    if (!crashed_) {
        return;
    }

    // Retire the old tables into graveyards rather than freeing them:
    // zombie coroutine frames suspended at crash time may still hold
    // raw pointers into these objects across a co_await.  They stay
    // alive until the kernel itself is destroyed (which clears
    // processes_ — and with it every frame — first).
    for (auto &[key, conn] : conns_) {
        dead_conns_.push_back(std::move(conn));
    }
    conns_.clear();
    for (auto &[fd, s] : sockets_) {
        dead_sockets_.push_back(std::move(s));
    }
    sockets_.clear();
    for (auto &s : embryonic_sockets_) {
        dead_sockets_.push_back(std::move(s));
    }
    embryonic_sockets_.clear();
    for (auto &[fd, ep] : epolls_) {
        dead_epolls_.push_back(std::move(ep));
    }
    epolls_.clear();
    udp_bound_.clear();
    tcp_listen_.clear();

    // Reap root processes that ran to completion (applications that
    // observed EIO and returned).  Safe: the only outstanding pointers
    // to Task objects are the zero-delay spawn events, which have long
    // fired by the time a scheduled reboot runs.
    for (auto it = processes_.begin(); it != processes_.end();) {
        if (it->done()) {
            it->checkRootException();
            it = processes_.erase(it);
        } else {
            ++it;
        }
    }

    crashed_ = false;
    discardRxRing(); // anything that arrived during the outage is gone
}

} // namespace os
} // namespace diablo
