#ifndef DIABLO_OS_TCP_HH_
#define DIABLO_OS_TCP_HH_

/**
 * @file
 * TCP implementation (Reno flavour, Linux constants).
 *
 * TCP Incast (§4.1) hinges on the interaction of small switch buffers
 * with TCP's loss recovery, so this stack implements the mechanisms that
 * matter at that fidelity:
 *
 *  - three-way handshake and FIN teardown (no TIME_WAIT modeling);
 *  - MSS segmentation, sliding window, cumulative ACKs, delayed ACKs;
 *  - RFC 6298 RTT estimation (Karn's rule), with the retransmission
 *    timer quantized to the kernel tick and clamped to the Linux
 *    200 ms minimum RTO that drives Incast throughput collapse;
 *  - Reno slow start / congestion avoidance, 3-dup-ACK fast retransmit
 *    with window inflation, exponential RTO backoff;
 *  - flow control against the advertised receive window, with window
 *    updates as the application drains the receive buffer.
 *
 * Application framing: a message descriptor attached by the sender rides
 * with the stream byte range it occupies and is surfaced to the receiving
 * application when that range has been consumed in order.
 */

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "core/config.hh"
#include "net/packet.hh"
#include "os/socket.hh"

namespace diablo {
namespace os {

class Kernel;

/** Runtime-configurable TCP parameters (Linux defaults). */
struct TcpParams {
    uint32_t mss = 1448;                ///< 1500 - 40 - 12 (timestamps)
    uint64_t send_buf_bytes = 131072;
    uint64_t recv_buf_bytes = 131072;
    uint32_t init_cwnd_segments = 10;   ///< IW10 (2.6.39+)
    SimTime min_rto = SimTime::ms(200); ///< TCP_RTO_MIN
    SimTime init_rto = SimTime::sec(1); ///< RFC 6298 initial
    SimTime max_rto = SimTime::sec(120);
    uint32_t dupack_thresh = 3;
    bool delayed_ack = true;
    SimTime delayed_ack_timeout = SimTime::ms(40);
    /**
     * Consecutive RTOs without forward progress before the connection
     * aborts with ETIMEDOUT (Linux tcp_retries2).  A peer that crashed
     * silently must produce a timeout-driven abort, never a hang.
     */
    uint32_t max_retries = 15;
    /** Handshake retry budget before abort (Linux tcp_syn_retries). */
    uint32_t max_syn_retries = 6;

    /** Read the @p prefix keys over @p defaults. */
    static TcpParams fromConfig(const Config &cfg, const std::string &prefix,
                                const TcpParams &defaults);
    static TcpParams
    fromConfig(const Config &cfg, const std::string &prefix)
    {
        return fromConfig(cfg, prefix, TcpParams());
    }
};

/** One TCP connection endpoint. */
class TcpConnection {
  public:
    enum class State {
        Closed,
        SynSent,
        SynRcvd,
        Established,
        FinWait,    ///< we sent FIN
        CloseWait,  ///< peer sent FIN
    };

    TcpConnection(Kernel &kernel, Socket &sock, const net::FlowKey &flow,
                  const TcpParams &params);
    ~TcpConnection();

    TcpConnection(const TcpConnection &) = delete;
    TcpConnection &operator=(const TcpConnection &) = delete;

    const net::FlowKey &flow() const { return flow_; }
    State state() const { return state_; }
    Socket &socket() { return *sock_; }

    /** The owning socket was closed; stop delivering wakeups to it. */
    void detachSocket() { sock_ = nullptr; }
    bool detached() const { return sock_ == nullptr; }

    /** Client side: begin the three-way handshake (sends SYN). */
    void startConnect();

    /** Server side: respond to a received SYN (sends SYN|ACK). */
    void startPassive(uint64_t peer_isn, uint64_t peer_window);

    /** Protocol input from the kernel's softirq demux. */
    void onSegment(net::PacketPtr p);

    /**
     * Queue application bytes for transmission; @p msg (may be null)
     * is delivered to the peer application with the final byte.
     * Returns bytes accepted (0 when the send buffer is full).
     */
    uint64_t enqueueSend(uint64_t bytes,
                         std::shared_ptr<const net::AppData> msg);

    /** Free space in the send buffer. */
    uint64_t sendBufferSpace() const;

    /** In-order bytes available to the application. */
    uint64_t available() const;

    /** Peer closed and everything delivered has been consumed. */
    bool atEof() const { return peer_fin_ && available() == 0; }

    bool connectFailed() const { return connect_failed_; }

    /**
     * Consume up to @p max_bytes of in-order data; message descriptors
     * whose final byte is consumed are appended to @p out.  Opens the
     * advertised window (a window update may be sent).
     */
    uint64_t consume(uint64_t max_bytes, std::vector<RecvedMessage> *out);

    /** Application close: FIN after all queued data. */
    void appClose();

    /**
     * Local abort: state goes Closed, every timer is cancelled, waiters
     * are woken, and syscalls on the socket surface @p error.  Nothing
     * is sent — this is the timeout path (the peer finds out via its
     * own timers, or via RST when it later probes a rebooted host).
     */
    void abortConnection(long error);

    /**
     * The owning host crashed: silent teardown.  Like abortConnection
     * but with no stats and no socket wakeups (Kernel::crash() wakes
     * every socket centrally); the object stays alive — in-flight
     * syscall coroutines still hold pointers to it — until reboot.
     */
    void crashTeardown();

    /** Non-zero errno once the connection aborted locally. */
    long abortError() const { return abort_errno_; }
    bool aborted() const { return abort_errno_ != 0; }

    // --- introspection for tests and stats ---
    uint64_t cwndBytes() const { return cwnd_; }
    uint64_t ssthreshBytes() const { return ssthresh_; }
    uint64_t retransmits() const { return retransmits_; }
    uint64_t timeouts() const { return rto_count_; }
    uint64_t sndNxt() const { return snd_nxt_; }
    uint64_t sndUna() const { return snd_una_; }

  private:
    void transmitSegment(uint64_t seq, uint32_t len, uint8_t flags,
                         bool retransmission);
    uint32_t segmentLenAt(uint64_t seq, uint32_t max_len) const;
    void trySendData();
    void sendAck(bool immediate);
    void enterEstablished();
    void onAck(uint64_t ack, uint64_t wnd);
    void onData(net::Packet &p);
    void armRtoTimer();
    void cancelRtoTimer();
    void cancelAllTimers();
    void onRtoExpired();
    void rttSample(SimTime sample);
    uint64_t flightSize() const { return snd_nxt_ - snd_una_; }
    uint64_t effectiveWindow() const;
    void notifyReadable();
    void notifyWritable();

    Kernel &kernel_;
    Socket *sock_;
    net::FlowKey flow_;
    TcpParams params_;
    State state_ = State::Closed;

    // --- send side ---
    uint64_t snd_una_ = 0;       ///< oldest unacknowledged stream byte
    uint64_t snd_nxt_ = 0;       ///< next stream byte to send
    uint64_t app_queued_end_ = 0;///< end of app-buffered stream data
    uint64_t peer_window_ = 0;   ///< last advertised receive window
    /** Message descriptors keyed by their final stream byte (exclusive). */
    std::map<uint64_t, std::shared_ptr<const net::AppData>> out_msgs_;
    bool fin_queued_ = false;
    bool fin_sent_ = false;

    // --- congestion control (bytes) ---
    uint64_t cwnd_;
    uint64_t ssthresh_;
    SimTime last_tx_time_;       ///< for RFC 2861 idle restart
    /** Stream bytes below this were rolled back by an RTO (go-back-N);
     *  sending them again counts as retransmission (Karn excluded). */
    uint64_t retransmit_until_ = 0;
    uint32_t dupacks_ = 0;
    bool in_fast_recovery_ = false;
    uint64_t recover_ = 0;       ///< NewReno-style recovery point

    // --- RTT / RTO ---
    bool rtt_valid_ = false;
    SimTime srtt_;
    SimTime rttvar_;
    SimTime rto_;
    EventId rto_timer_;
    bool rto_armed_ = false;
    uint32_t backoff_ = 0;
    /** The one timed segment (Karn): stream seq and send time. */
    uint64_t timed_seq_ = 0;
    SimTime timed_sent_at_;
    bool timed_pending_ = false;
    /** Handshake RTT sampling (Linux seeds srtt from SYN/SYN-ACK). */
    SimTime syn_sent_at_;
    bool syn_retransmitted_ = false;

    // --- receive side ---
    uint64_t rcv_nxt_ = 0;       ///< next expected in-order byte
    uint64_t consumed_ = 0;      ///< bytes consumed by the application
    std::map<uint64_t, uint64_t> ooo_;  ///< out-of-order [seq, len)
    std::map<uint64_t, std::shared_ptr<const net::AppData>> in_msgs_;
    uint32_t unacked_segs_ = 0;  ///< for delayed-ACK every-2nd policy
    /**
     * Linux quickack mode: ACK immediately (no delay) while credits
     * remain.  A couple of credits at connection start (Linux's
     * interactive heuristic: pingpong mode takes over once traffic is
     * bidirectional, letting ACKs piggyback on responses), re-armed to
     * a full window's worth on out-of-order arrivals so cwnd=1 loss
     * recovery is never throttled by the 40 ms delayed-ACK timer.
     */
    uint32_t quickack_credits_ = 2;
    EventId delack_timer_;
    bool delack_armed_ = false;
    bool peer_fin_ = false;      ///< FIN received and fully in order
    bool have_fin_ = false;      ///< FIN seen (possibly out of order)
    uint64_t fin_data_end_ = 0;  ///< stream offset of the peer's data end
    uint64_t peer_isn_hs_ = 0;

    // --- zero-window persist probing ---
    bool persist_armed_ = false;
    EventId persist_timer_;

    bool connect_failed_ = false;
    long abort_errno_ = 0;
    /** Consecutive RTOs since the last forward-progress ACK. */
    uint32_t retry_attempts_ = 0;

    uint64_t retransmits_ = 0;
    uint64_t rto_count_ = 0;
};

} // namespace os
} // namespace diablo

#endif // DIABLO_OS_TCP_HH_
