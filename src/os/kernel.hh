#ifndef DIABLO_OS_KERNEL_HH_
#define DIABLO_OS_KERNEL_HH_

/**
 * @file
 * Per-server operating system model.
 *
 * DIABLO runs one unmodified Linux instance per simulated server; the
 * software substitution is an explicit behavioural model of the kernel
 * pieces the paper shows to matter: the syscall interface (including
 * blocking vs epoll service styles and the accept4 path), the socket
 * layer, TCP/UDP stacks, softirq/NAPI receive processing, a timer wheel
 * at kernel-HZ granularity, and the single-core scheduler with timeslice
 * and context-switch costs.  All costs come from a KernelProfile
 * (2.6.39.3 or 3.5.7 calibrations), so "changing the kernel version" is
 * swapping a profile — the experiment in Figure 14.
 *
 * Syscalls are coroutines: they charge CPU cycles in process context,
 * block on wait queues, and return errno-style results.  Device input
 * arrives through the NIC's interrupt path and is processed in softirq
 * context with NAPI batching, charging per-packet stack costs.
 */

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/config.hh"
#include "core/ring_buffer.hh"
#include "core/simulator.hh"
#include "core/task.hh"
#include "net/packet.hh"
#include "os/cpu.hh"
#include "os/kernel_profile.hh"
#include "os/socket.hh"
#include "os/tcp.hh"
#include "os/thread.hh"

namespace diablo {
namespace os {

/** Interface the kernel uses to drive its network device. */
class NicDevice {
  public:
    virtual ~NicDevice() = default;

    /** True when the TX descriptor ring cannot accept another packet. */
    virtual bool txRingFull() const = 0;

    /** Queue a packet in the TX ring; caller checked !txRingFull(). */
    virtual void txEnqueue(net::PacketPtr p) = 0;

    /** Pop the next received packet from the RX ring (null if empty). */
    virtual net::PacketPtr rxDequeue() = 0;

    /** Packets currently waiting in the RX ring. */
    virtual size_t rxPending() const = 0;

    /** Kernel finished a NAPI poll round; re-enable RX interrupts. */
    virtual void rxInterruptsEnable(bool on) = 0;

    /** True if the send path may skip the user->kernel copy. */
    virtual bool zeroCopy() const = 0;
};

/** One epoll instance. */
class EpollInstance {
  public:
    EpollInstance(Simulator &sim, int fd) : fd(fd), waiters(sim) {}

    int fd;
    std::set<int> watched;
    std::set<int> ready;
    WaitQueue waiters;
};

/** Result row of epoll_wait. */
struct EpollEvent {
    int fd;
};

/** Per-server kernel instance. */
class Kernel {
  public:
    /**
     * @param route_lookup maps a destination node to the source route
     *        its packets carry (the statically configured WSC topology).
     */
    Kernel(Simulator &sim, net::NodeId node, const CpuParams &cpu_params,
           const KernelProfile &profile,
           std::function<net::SourceRoute(net::NodeId)> route_lookup);
    ~Kernel();

    Kernel(const Kernel &) = delete;
    Kernel &operator=(const Kernel &) = delete;

    Simulator &sim() { return sim_; }
    net::NodeId node() const { return node_; }
    Cpu &cpu() { return *cpu_; }
    const KernelProfile &profile() const { return profile_; }
    void setTcpParams(const TcpParams &p) { tcp_params_ = p; }

    /** Attach the network device (required before any traffic). */
    void attachNic(NicDevice &nic) { nic_ = &nic; }

    // ------------------------------------------------------------------
    // Threads
    // ------------------------------------------------------------------

    /** Create a schedulable user thread. */
    Thread &createThread(const std::string &name);

    /**
     * Spawn @p body as a root process owned by this kernel.  Ownership
     * matters for teardown: a process only ever blocks on its own
     * kernel's wait queues, and the kernel destroys its processes before
     * its sockets, so suspended frames never dangle.
     */
    void spawnProcess(Task<> body);

    // ------------------------------------------------------------------
    // Syscalls (coroutines; charge CPU in the calling thread's context)
    // ------------------------------------------------------------------

    Task<long> sysSocket(Thread &t, net::Proto proto);
    Task<long> sysBind(Thread &t, int fd, uint16_t port);
    Task<long> sysListen(Thread &t, int fd, uint32_t backlog);
    Task<long> sysConnect(Thread &t, int fd, net::NodeId dst,
                          uint16_t dport);
    /** accept()/accept4(); @p use_accept4 skips the extra fcntl cost. */
    Task<long> sysAccept(Thread &t, int fd, bool use_accept4);

    /**
     * Stream send: blocks until all @p bytes are queued; @p msg rides
     * with the final byte.  Returns bytes or a negative errno.
     */
    Task<long> sysSend(Thread &t, int fd, uint64_t bytes,
                       std::shared_ptr<const net::AppData> msg);

    /**
     * Stream receive: blocks until >= 1 byte (or EOF/timeout); consumes
     * up to @p max_bytes; completed message descriptors are appended to
     * @p msgs when non-null.  Returns bytes (0 = EOF) or negative errno.
     */
    Task<long> sysRecv(Thread &t, int fd, uint64_t max_bytes,
                       std::vector<RecvedMessage> *msgs,
                       SimTime timeout = SimTime::max());

    /** Datagram send (fragments at the MTU; charges per fragment). */
    Task<long> sysSendTo(Thread &t, int fd, net::NodeId dst, uint16_t dport,
                         uint64_t bytes,
                         std::shared_ptr<const net::AppData> msg);

    /** Datagram receive: one whole datagram (blocks; optional timeout). */
    Task<long> sysRecvFrom(Thread &t, int fd, RecvedMessage *out,
                           SimTime timeout = SimTime::max());

    Task<long> sysEpollCreate(Thread &t);
    Task<long> sysEpollCtlAdd(Thread &t, int epfd, int fd);
    Task<long> sysEpollWait(Thread &t, int epfd,
                            std::vector<EpollEvent> *events,
                            uint32_t max_events,
                            SimTime timeout = SimTime::max());

    Task<long> sysClose(Thread &t, int fd);

    // ------------------------------------------------------------------
    // Stack-internal services (used by TCP/UDP/NIC code)
    // ------------------------------------------------------------------

    /**
     * Build a fresh packet from this server's partition-local pool —
     * the allocation-free steady-state path every stack-originated
     * packet (TCP segment, UDP fragment, RST) must use.
     */
    net::PacketPtr allocPacket();

    /**
     * Hand a fully built packet to the qdisc/NIC and account the TX
     * stack cycles against the current context (see drainTxCharge()).
     */
    void stackTransmit(net::PacketPtr p);

    /** Cycles of TX stack work accumulated since the last drain. */
    uint64_t drainTxCharge();

    /** Kernel timer: fires rounded UP to the next kernel tick. */
    template <typename F>
    EventId
    addTimer(SimTime delay, F &&fn)
    {
        return sim_.scheduleAt(timerExpiry(delay),
                               timerHandler(std::forward<F>(fn)),
                               event_prio::kTimer);
    }

    void cancelTimer(EventId id) { sim_.cancel(id); }

    /** Fine-grained (non-tick) kernel timer, e.g. delayed ACK. */
    template <typename F>
    EventId
    addHrTimer(SimTime delay, F &&fn)
    {
        return sim_.schedule(delay, timerHandler(std::forward<F>(fn)),
                             event_prio::kTimer);
    }

    /** NIC RX interrupt entry point (called by the NIC model). */
    void rxInterrupt();

    /** NIC TX-completion notification: pump the qdisc. */
    void txRingSpace();

    /** Socket readiness changed: update epoll and wake waiters. */
    void socketReadable(Socket &s);
    void socketWritable(Socket &s);

    /** Passive connection fully established: queue for accept(). */
    void onPassiveEstablished(TcpConnection &conn);

    /** Connection removal (close completed or reset). */
    void destroyConnection(TcpConnection &conn);

    // ------------------------------------------------------------------
    // Faults: server crash / reboot
    // ------------------------------------------------------------------

    /**
     * Power-fail the server.  Every connection is torn down silently
     * (a dead host sends nothing — peers find out via their own RTO
     * abort timers), every blocked syscall wakes with EIO, queued TX
     * work and the NIC RX ring are discarded, and until reboot() every
     * syscall fails fast with EIO and every arriving packet is
     * discarded (counted in stats().crash_rx_discards).
     *
     * Suspended coroutine frames are never destroyed — destroying a
     * frame that is registered on wait queues or CPU completion events
     * would dangle; instead they wake, observe errors, and either
     * finish or park as zombies.  Objects they may still reference
     * (sockets, connections, epoll instances) survive in graveyards
     * until the kernel itself is destroyed.
     */
    void crash();

    /**
     * Restore service after crash(): fresh socket/port/connection
     * tables (old fds are dead), finished process frames reaped.  A
     * retransmission arriving for a pre-crash flow now finds no
     * connection and draws an RST — exactly how peers of a rebooted
     * host learn their connection is gone.  Call schedulable delay
     * after crash(); the restart application is spawned by the caller.
     */
    void reboot();

    bool crashed() const { return crashed_; }

    // ------------------------------------------------------------------
    // Stats
    // ------------------------------------------------------------------

    struct Stats {
        uint64_t syscalls = 0;
        uint64_t tx_packets = 0;
        uint64_t rx_packets = 0;
        uint64_t qdisc_drops = 0;
        uint64_t udp_rx_overflow_drops = 0;
        uint64_t softirq_rounds = 0;
        uint64_t tcp_retransmits = 0;
        uint64_t tcp_rtos = 0;
        uint64_t tcp_aborts = 0;    ///< timeout/abort-terminated flows
        uint64_t tcp_recovered = 0; ///< flows that survived >=1 RTO
        uint64_t crash_rx_discards = 0; ///< packets hitting a dead host
    };

    const Stats &stats() const { return stats_; }

    /** TCP bookkeeping hooks (called by TcpConnection). */
    void noteTcpRetransmit() { ++stats_.tcp_retransmits; }
    void noteTcpRto() { ++stats_.tcp_rtos; }
    void noteTcpAbort() { ++stats_.tcp_aborts; }
    void noteTcpRecovered() { ++stats_.tcp_recovered; }

    Socket *socketFor(int fd);

  private:
    /**
     * The event a kernel timer schedules: @p fn, then the softirq
     * charge for the stack work it generated.  It adds only `this` to
     * the caller's capture, so every timer rides the EventFn inline
     * buffer (RTO and delayed-ACK re-arms run hundreds of thousands of
     * times a run).
     */
    template <typename F>
    auto
    timerHandler(F &&fn)
    {
        auto handler = [this, fn = std::forward<F>(fn)]() mutable {
            fn();
            chargeTimerWork();
        };
        static_assert(EventFn::inlineable<decltype(handler)>(),
                      "kernel timer handler outgrew the EventFn inline "
                      "buffer (per-timer heap allocation)");
        return handler;
    }

    /** Expiry of a timer @p delay from now, rounded up to a jiffy. */
    SimTime timerExpiry(SimTime delay) const;

    /** Charge a timer handler's TX stack work as softirq. */
    void chargeTimerWork();

    friend class TcpConnection;

    Task<long> chargeSyscall(Thread &t, uint64_t body_cycles);
    int allocFd();
    uint16_t allocEphemeralPort();
    Socket *boundUdpSocket(uint16_t port);
    Socket *listeningSocket(uint16_t port);

    void qdiscPump();
    /** Drop everything in the NIC RX ring (host is dead); re-arm IRQs. */
    void discardRxRing();
    void scheduleSoftirq();
    void processNextRx(uint32_t budget);
    void processRxPacket(net::PacketPtr p);
    void deliverUdp(net::PacketPtr p);
    void sendRst(const net::Packet &to);

    Simulator &sim_;
    net::NodeId node_;
    KernelProfile profile_;
    TcpParams tcp_params_;
    std::unique_ptr<Cpu> cpu_;
    std::function<net::SourceRoute(net::NodeId)> route_lookup_;
    NicDevice *nic_ = nullptr;

    // Bookkeeping containers are vectors of owning pointers: pointees
    // stay address-stable across growth (coroutines hold Thread*/Socket*
    // raw pointers), while an *empty* vector — the idle-node common
    // case at warehouse scale — costs three words instead of a deque's
    // eagerly allocated chunk map.  Only processes_ below needs element
    // (not pointee) address stability and remains a deque.
    std::vector<std::unique_ptr<Thread>> threads_;
    uint64_t next_thread_id_ = 1;

    int next_fd_ = 3;
    uint16_t next_ephemeral_ = 32768;
    std::unordered_map<int, std::unique_ptr<Socket>> sockets_;
    std::unordered_map<int, std::unique_ptr<EpollInstance>> epolls_;
    std::unordered_map<uint16_t, Socket *> udp_bound_;
    std::unordered_map<uint16_t, Socket *> tcp_listen_;
    std::unordered_map<net::FlowKey, std::unique_ptr<TcpConnection>,
                       net::FlowKeyHash> conns_;

    /** Connections owned before their socket has an fd (pre-accept). */
    std::vector<std::unique_ptr<Socket>> embryonic_sockets_;

    /** Device egress queue; a ring so steady-state cycling of a busy
     *  queue never touches the allocator (deque chunk churn did). */
    RingBuffer<net::PacketPtr> qdisc_;
    uint64_t qdisc_limit_pkts_ = 1000; ///< txqueuelen
    /**
     * The transmit stack runs on the fixed-CPI core, so packets reach
     * the NIC no faster than one per (per-packet TX cycles): on-wire
     * bursts are CPU-paced, as on the paper's RAMP Gold servers.
     */
    SimTime tx_stack_free_;
    bool tx_release_pending_ = false;

    uint64_t pending_tx_charge_cycles_ = 0;
    bool softirq_scheduled_ = false;

    /** UDP reassembly: (flow-ish key) -> fragments seen. */
    struct Reassembly {
        uint16_t frag_count = 0;
        uint16_t frags_seen = 0;
        std::shared_ptr<const net::AppData> msg;
        net::NodeId from = net::kInvalidNode;
        uint16_t from_port = 0;
        uint64_t bytes = 0;
        SimTime first_seen;
    };
    std::unordered_map<uint64_t, Reassembly> reassembly_;

    uint64_t next_dgram_id_ = 1;

    bool crashed_ = false;
    /**
     * Graveyards for objects retired by reboot().  Zombie coroutine
     * frames suspended at crash time can still hold raw pointers to
     * these; they stay alive until the kernel is destroyed (which
     * clears processes_ — and with it every frame — first).
     */
    std::vector<std::unique_ptr<Socket>> dead_sockets_;
    std::vector<std::unique_ptr<EpollInstance>> dead_epolls_;
    std::vector<std::unique_ptr<TcpConnection>> dead_conns_;

    Stats stats_;

    /**
     * Root processes owned by this kernel.  MUST be the last member:
     * frames are destroyed before every other kernel structure they
     * might reference (sockets, wait queues, threads).
     */
    std::deque<Task<>> processes_;
};

} // namespace os
} // namespace diablo

#endif // DIABLO_OS_KERNEL_HH_
