#include "os/tcp.hh"

#include <algorithm>

#include "core/log.hh"
#include "os/kernel.hh"

namespace diablo {
namespace os {

using net::tcp_flags::kAck;
using net::tcp_flags::kFin;
using net::tcp_flags::kRst;
using net::tcp_flags::kSyn;

TcpParams
TcpParams::fromConfig(const Config &cfg, const std::string &prefix,
                     const TcpParams &defaults)
{
    TcpParams p = defaults;
    p.mss = static_cast<uint32_t>(cfg.getUint(prefix + "mss", p.mss));
    p.send_buf_bytes =
        cfg.getUint(prefix + "send_buf_bytes", p.send_buf_bytes);
    p.recv_buf_bytes =
        cfg.getUint(prefix + "recv_buf_bytes", p.recv_buf_bytes);
    p.init_cwnd_segments = static_cast<uint32_t>(
        cfg.getUint(prefix + "init_cwnd_segments", p.init_cwnd_segments));
    p.min_rto = SimTime::microseconds(
        cfg.getDouble(prefix + "min_rto_us", p.min_rto.asMicros()));
    p.init_rto = SimTime::microseconds(
        cfg.getDouble(prefix + "init_rto_us", p.init_rto.asMicros()));
    p.max_rto = SimTime::microseconds(
        cfg.getDouble(prefix + "max_rto_us", p.max_rto.asMicros()));
    p.dupack_thresh = static_cast<uint32_t>(
        cfg.getUint(prefix + "dupack_thresh", p.dupack_thresh));
    p.delayed_ack = cfg.getBool(prefix + "delayed_ack", p.delayed_ack);
    p.delayed_ack_timeout = SimTime::microseconds(
        cfg.getDouble(prefix + "delayed_ack_timeout_us",
                      p.delayed_ack_timeout.asMicros()));
    p.max_retries = static_cast<uint32_t>(
        cfg.getUint(prefix + "max_retries", p.max_retries));
    p.max_syn_retries = static_cast<uint32_t>(
        cfg.getUint(prefix + "max_syn_retries", p.max_syn_retries));
    return p;
}

TcpConnection::TcpConnection(Kernel &kernel, Socket &sock,
                             const net::FlowKey &flow,
                             const TcpParams &params)
    : kernel_(kernel), sock_(&sock), flow_(flow), params_(params)
{
    cwnd_ = static_cast<uint64_t>(params_.init_cwnd_segments) * params_.mss;
    ssthresh_ = UINT64_MAX / 2;
    rto_ = params_.init_rto;
    sock.conn = this;
}

TcpConnection::~TcpConnection()
{
    cancelAllTimers();
}

void
TcpConnection::cancelAllTimers()
{
    cancelRtoTimer();
    if (delack_armed_) {
        kernel_.cancelTimer(delack_timer_);
        delack_armed_ = false;
    }
    if (persist_armed_) {
        kernel_.cancelTimer(persist_timer_);
        persist_armed_ = false;
    }
}

// ---------------------------------------------------------------------
// Segment construction
// ---------------------------------------------------------------------

void
TcpConnection::transmitSegment(uint64_t seq, uint32_t len, uint8_t flags,
                               bool retransmission)
{
    auto p = kernel_.allocPacket();
    p->flow = flow_;

    // The FIN occupies one virtual byte of sequence space at the stream
    // end; it never reaches the peer application.  Set the flag exactly
    // on segments whose range covers that byte.
    uint32_t payload = len;
    if (fin_sent_ || (flags & kFin)) {
        const uint64_t fin_byte = app_queued_end_;
        if (len > 0 && seq <= fin_byte && fin_byte < seq + len) {
            payload = static_cast<uint32_t>(fin_byte - seq);
            flags |= kFin;
        } else {
            flags &= static_cast<uint8_t>(~kFin);
        }
    }

    p->tcp.seq = seq;
    p->tcp.flags = flags;
    if (flags & kAck) {
        p->tcp.ack = rcv_nxt_;
        // Every ACK-bearing segment acknowledges all received data:
        // piggybacking supersedes any pending delayed ACK.
        unacked_segs_ = 0;
        if (delack_armed_) {
            kernel_.cancelTimer(delack_timer_);
            delack_armed_ = false;
        }
    }
    const uint64_t buffered = rcv_nxt_ - consumed_;
    p->tcp.window = params_.recv_buf_bytes > buffered
                        ? params_.recv_buf_bytes - buffered
                        : 0;
    p->payload_bytes = payload;

    if (payload > 0) {
        auto it = out_msgs_.find(seq + payload);
        if (it != out_msgs_.end()) {
            p->app = it->second;
        }
    }

    if (retransmission) {
        ++retransmits_;
        kernel_.noteTcpRetransmit();
    } else if (payload > 0 && !timed_pending_) {
        // Karn: time one non-retransmitted segment per RTT.
        timed_seq_ = seq + payload;
        timed_sent_at_ = kernel_.sim().now();
        timed_pending_ = true;
    }

    last_tx_time_ = kernel_.sim().now();
    kernel_.stackTransmit(std::move(p));
}

// ---------------------------------------------------------------------
// Connection establishment
// ---------------------------------------------------------------------

void
TcpConnection::startConnect()
{
    state_ = State::SynSent;
    syn_sent_at_ = kernel_.sim().now();
    transmitSegment(0, 0, kSyn, false);
    armRtoTimer();
}

void
TcpConnection::startPassive(uint64_t peer_isn, uint64_t peer_window)
{
    peer_isn_hs_ = peer_isn;
    peer_window_ = peer_window;
    state_ = State::SynRcvd;
    transmitSegment(0, 0, static_cast<uint8_t>(kSyn | kAck), false);
    armRtoTimer();
}

void
TcpConnection::enterEstablished()
{
    state_ = State::Established;
    backoff_ = 0;
    retry_attempts_ = 0;
    cancelRtoTimer();
}

// ---------------------------------------------------------------------
// Input
// ---------------------------------------------------------------------

void
TcpConnection::onSegment(net::PacketPtr p)
{
    const net::TcpFields &t = p->tcp;

    if (t.has(kRst)) {
        if (state_ == State::SynSent) {
            connect_failed_ = true;
        }
        state_ = State::Closed;
        cancelRtoTimer();
        if (!peer_fin_) {
            // Reads drain buffered in-order data, then return EOF.
            have_fin_ = true;
            fin_data_end_ = rcv_nxt_;
            peer_fin_ = true;
        }
        notifyReadable();
        notifyWritable();
        return;
    }

    switch (state_) {
      case State::Closed:
        return;

      case State::SynSent:
        if (t.has(kSyn) && t.has(kAck)) {
            peer_window_ = t.window; // initial window from the SYN|ACK
            if (!syn_retransmitted_) {
                // Seed srtt/RTO from the handshake round trip.
                rttSample(kernel_.sim().now() - syn_sent_at_);
            }
            enterEstablished();
            sendAck(true);
            notifyWritable(); // connect() completes
            trySendData();
        }
        return;

      case State::SynRcvd:
        if (t.has(kSyn) && !t.has(kAck)) {
            // Retransmitted SYN: resend our SYN|ACK.
            transmitSegment(0, 0, static_cast<uint8_t>(kSyn | kAck), true);
            return;
        }
        if (t.has(kAck) || p->payload_bytes > 0) {
            enterEstablished();
            kernel_.onPassiveEstablished(*this);
            // Fall through to normal processing of this segment.
            break;
        }
        return;

      case State::Established:
      case State::FinWait:
      case State::CloseWait:
        if (t.has(kSyn) && t.has(kAck)) {
            // Duplicate SYN|ACK (our handshake ACK was lost).
            sendAck(true);
            return;
        }
        break;
    }

    if (t.has(kAck)) {
        onAck(t.ack, t.window);
    }
    if (p->payload_bytes > 0 || t.has(kFin)) {
        onData(*p);
    }
}

void
TcpConnection::onAck(uint64_t ack, uint64_t wnd)
{
    const bool window_changed = (wnd != peer_window_);
    peer_window_ = wnd;

    if (ack > snd_una_) {
        const uint64_t acked = ack - snd_una_;
        snd_una_ = ack;
        if (snd_nxt_ < snd_una_) {
            // A pre-rollback in-flight segment was acknowledged after an
            // RTO rolled snd_nxt back (go-back-N): fast-forward.
            snd_nxt_ = snd_una_;
        }
        out_msgs_.erase(out_msgs_.begin(), out_msgs_.upper_bound(ack));

        if (timed_pending_ && ack >= timed_seq_) {
            rttSample(kernel_.sim().now() - timed_sent_at_);
            timed_pending_ = false;
        }
        backoff_ = 0;
        retry_attempts_ = 0; // forward progress resets the abort clock

        if (in_fast_recovery_) {
            if (ack >= recover_) {
                in_fast_recovery_ = false;
                cwnd_ = ssthresh_;
                dupacks_ = 0;
            } else {
                // NewReno partial ACK: retransmit the next hole.
                uint32_t len = static_cast<uint32_t>(std::min<uint64_t>(
                    params_.mss, snd_nxt_ - snd_una_));
                len = segmentLenAt(snd_una_, len);
                transmitSegment(snd_una_, len, kAck, true);
                cwnd_ = (cwnd_ > acked ? cwnd_ - acked : params_.mss) +
                        params_.mss;
            }
        } else {
            dupacks_ = 0;
            if (cwnd_ < ssthresh_) {
                cwnd_ += std::min<uint64_t>(acked, params_.mss);
            } else {
                cwnd_ += std::max<uint64_t>(
                    1, static_cast<uint64_t>(params_.mss) * params_.mss /
                           cwnd_);
            }
        }

        if (flightSize() == 0) {
            cancelRtoTimer();
        } else {
            armRtoTimer();
        }
        notifyWritable();
        trySendData();
        if (fin_sent_ && snd_una_ == snd_nxt_ && peer_fin_) {
            // Both directions closed and our FIN acknowledged.
            state_ = State::Closed;
            if (rto_count_ > 0) {
                // Suffered timeouts but still delivered everything and
                // closed cleanly: a recovered flow, not an aborted one.
                kernel_.noteTcpRecovered();
            }
            kernel_.destroyConnection(*this);
        }
        return;
    }

    if (ack == snd_una_ && flightSize() > 0 && !window_changed) {
        ++dupacks_;
        log::trace("%.3fus %s dupack #%u una=%llu flight=%llu",
                   kernel_.sim().now().asMicros(), flow_.str().c_str(),
                   dupacks_, static_cast<unsigned long long>(snd_una_),
                   static_cast<unsigned long long>(flightSize()));
        if (!in_fast_recovery_ && dupacks_ == params_.dupack_thresh) {
            ssthresh_ = std::max<uint64_t>(flightSize() / 2,
                                           2ULL * params_.mss);
            recover_ = snd_nxt_;
            in_fast_recovery_ = true;
            uint32_t len = static_cast<uint32_t>(std::min<uint64_t>(
                params_.mss, snd_nxt_ - snd_una_));
            len = segmentLenAt(snd_una_, len);
            transmitSegment(snd_una_, len, kAck, true);
            cwnd_ = ssthresh_ + 3ULL * params_.mss;
            armRtoTimer();
        } else if (in_fast_recovery_) {
            cwnd_ += params_.mss;
            trySendData();
        }
        return;
    }

    if (window_changed) {
        trySendData();
    }
}

void
TcpConnection::onData(net::Packet &p)
{
    const uint64_t seq = p.tcp.seq;
    uint64_t len = p.payload_bytes;
    if (p.tcp.has(kFin)) {
        have_fin_ = true;
        fin_data_end_ = seq + p.payload_bytes;
        len += 1; // the FIN's virtual sequence byte
    }
    if (seq + len <= rcv_nxt_) {
        sendAck(true); // stale duplicate: contributes nothing new
        return;
    }
    // Register the riding message descriptor only for segments that
    // carry not-yet-consumed bytes; a late retransmission of an
    // already-delivered message must not resurrect it.
    if (p.app && p.payload_bytes > 0 &&
        seq + p.payload_bytes > consumed_) {
        in_msgs_[seq + p.payload_bytes] = p.app;
    }
    if (seq > rcv_nxt_) {
        auto [it, fresh] = ooo_.emplace(seq, len);
        if (!fresh) {
            it->second = std::max(it->second, len);
        }
        quickack_credits_ = 16; // loss episode: disable ACK delay
        sendAck(true); // duplicate ACK signals the hole
        return;
    }

    rcv_nxt_ = seq + len;
    for (auto it = ooo_.begin();
         it != ooo_.end() && it->first <= rcv_nxt_;) {
        rcv_nxt_ = std::max(rcv_nxt_, it->first + it->second);
        it = ooo_.erase(it);
    }
    if (have_fin_ && rcv_nxt_ >= fin_data_end_ + 1) {
        peer_fin_ = true;
        if (state_ == State::Established) {
            state_ = State::CloseWait;
        }
    }

    notifyReadable();

    ++unacked_segs_;
    bool force = !params_.delayed_ack || unacked_segs_ >= 2 ||
                 peer_fin_ || !ooo_.empty();
    if (quickack_credits_ > 0) {
        --quickack_credits_;
        force = true;
    }
    if (force) {
        sendAck(true);
    } else if (!delack_armed_) {
        delack_armed_ = true;
        delack_timer_ = kernel_.addHrTimer(params_.delayed_ack_timeout,
                                           [this] {
            delack_armed_ = false;
            sendAck(true);
        });
    }
}

// ---------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------

uint32_t
TcpConnection::segmentLenAt(uint64_t seq, uint32_t max_len) const
{
    // Never cross an application message boundary, so a descriptor can
    // ride on the segment carrying its final byte.
    auto it = out_msgs_.upper_bound(seq);
    if (it != out_msgs_.end() && it->first < seq + max_len) {
        return static_cast<uint32_t>(it->first - seq);
    }
    return max_len;
}

uint64_t
TcpConnection::effectiveWindow() const
{
    return std::min(cwnd_, peer_window_);
}

uint64_t
TcpConnection::sendBufferSpace() const
{
    const uint64_t used = app_queued_end_ - snd_una_;
    return used >= params_.send_buf_bytes
               ? 0
               : params_.send_buf_bytes - used;
}

uint64_t
TcpConnection::enqueueSend(uint64_t bytes,
                           std::shared_ptr<const net::AppData> msg)
{
    if (state_ == State::Closed || fin_queued_) {
        return 0;
    }
    const uint64_t accepted = std::min(bytes, sendBufferSpace());
    if (accepted == 0) {
        return 0;
    }
    // RFC 2861: after an idle period the cwnd no longer reflects network
    // state; restart from the initial window.
    if (flightSize() == 0 &&
        kernel_.sim().now() - last_tx_time_ > rto_) {
        cwnd_ = std::min<uint64_t>(
            cwnd_,
            static_cast<uint64_t>(params_.init_cwnd_segments) *
                params_.mss);
    }
    app_queued_end_ += accepted;
    if (msg && accepted == bytes) {
        out_msgs_[app_queued_end_] = std::move(msg);
    }
    trySendData();
    return accepted;
}

void
TcpConnection::trySendData()
{
    if (state_ != State::Established && state_ != State::CloseWait &&
        state_ != State::FinWait) {
        return;
    }

    while (true) {
        const uint64_t wnd = effectiveWindow();
        const uint64_t flight = flightSize();
        if (flight >= wnd) {
            break;
        }
        // snd_nxt may sit one past app_queued_end_ once the FIN's
        // virtual byte has been sent; there is no more data then.
        if (snd_nxt_ >= app_queued_end_) {
            break;
        }
        const uint64_t avail = app_queued_end_ - snd_nxt_;
        uint32_t len = static_cast<uint32_t>(std::min<uint64_t>(
            {avail, params_.mss, wnd - flight}));
        len = segmentLenAt(snd_nxt_, len);
        if (len == 0) {
            break;
        }
        const bool retx = snd_nxt_ < retransmit_until_;
        transmitSegment(snd_nxt_, len, kAck, retx);
        snd_nxt_ += len;
    }

    // Zero-window probing: without it a lost window update deadlocks.
    if (effectiveWindow() == 0 && flightSize() == 0 &&
        app_queued_end_ > snd_nxt_ && !persist_armed_) {
        persist_armed_ = true;
        persist_timer_ = kernel_.addTimer(rto_, [this] {
            persist_armed_ = false;
            if (peer_window_ == 0 && app_queued_end_ > snd_nxt_) {
                uint32_t len = segmentLenAt(snd_nxt_, 1);
                transmitSegment(snd_nxt_, len, kAck, false);
                snd_nxt_ += len;
                armRtoTimer();
            }
            trySendData();
        });
    }

    if (fin_queued_ && snd_nxt_ == app_queued_end_) {
        // First transmission, or a go-back-N resend after rollback.
        transmitSegment(snd_nxt_, 1, static_cast<uint8_t>(kAck | kFin),
                        fin_sent_);
        snd_nxt_ += 1;
        if (!fin_sent_) {
            fin_sent_ = true;
            if (state_ == State::Established) {
                state_ = State::FinWait;
            }
        }
    }

    if (flightSize() > 0 && !rto_armed_) {
        armRtoTimer();
    }
}

void
TcpConnection::sendAck(bool immediate)
{
    if (!immediate) {
        return;
    }
    if (delack_armed_) {
        kernel_.cancelTimer(delack_timer_);
        delack_armed_ = false;
    }
    unacked_segs_ = 0;
    transmitSegment(snd_nxt_, 0, kAck, false);
}

// ---------------------------------------------------------------------
// Application interface
// ---------------------------------------------------------------------

uint64_t
TcpConnection::consume(uint64_t max_bytes, std::vector<RecvedMessage> *out)
{
    const uint64_t n = std::min(available(), max_bytes);
    const uint64_t old_window =
        params_.recv_buf_bytes - (rcv_nxt_ - consumed_ > params_.recv_buf_bytes
                                      ? params_.recv_buf_bytes
                                      : rcv_nxt_ - consumed_);
    consumed_ += n;

    if (out) {
        while (!in_msgs_.empty() &&
               in_msgs_.begin()->first <= consumed_) {
            RecvedMessage m;
            m.msg = in_msgs_.begin()->second;
            m.from = flow_.dst;
            m.from_port = flow_.dport;
            out->push_back(std::move(m));
            in_msgs_.erase(in_msgs_.begin());
        }
    }

    // Window update when the advertised window grows materially.
    const uint64_t buffered = rcv_nxt_ - consumed_;
    const uint64_t new_window = params_.recv_buf_bytes > buffered
                                    ? params_.recv_buf_bytes - buffered
                                    : 0;
    if (n > 0 && (old_window == 0 ||
                  new_window - old_window >= params_.mss)) {
        sendAck(true);
    }
    return n;
}

void
TcpConnection::abortConnection(long error)
{
    if (state_ == State::Closed && aborted()) {
        return;
    }
    if (state_ == State::SynSent || state_ == State::SynRcvd) {
        connect_failed_ = true;
    }
    abort_errno_ = error;
    state_ = State::Closed;
    cancelAllTimers();
    kernel_.noteTcpAbort();
    notifyReadable();
    notifyWritable();
}

void
TcpConnection::crashTeardown()
{
    abort_errno_ = err::kIO;
    connect_failed_ = true;
    state_ = State::Closed;
    cancelAllTimers();
}

void
TcpConnection::appClose()
{
    if (state_ == State::Closed || fin_queued_) {
        return;
    }
    if (state_ == State::SynSent || state_ == State::SynRcvd) {
        state_ = State::Closed;
        cancelRtoTimer();
        return;
    }
    fin_queued_ = true;
    trySendData();
}

// ---------------------------------------------------------------------
// Timers / RTT
// ---------------------------------------------------------------------

uint64_t
TcpConnection::available() const
{
    const uint64_t data_end =
        peer_fin_ ? fin_data_end_ : rcv_nxt_;
    return data_end - consumed_;
}

void
TcpConnection::rttSample(SimTime sample)
{
    if (!rtt_valid_) {
        srtt_ = sample;
        rttvar_ = sample / 2;
        rtt_valid_ = true;
    } else {
        const SimTime diff = srtt_ > sample ? srtt_ - sample
                                            : sample - srtt_;
        rttvar_ = rttvar_.scaled(0.75) + diff.scaled(0.25);
        srtt_ = srtt_.scaled(0.875) + sample.scaled(0.125);
    }
    SimTime rto = srtt_ + 4 * rttvar_;
    rto_ = std::clamp(rto, params_.min_rto, params_.max_rto);
}

void
TcpConnection::armRtoTimer()
{
    cancelRtoTimer();
    SimTime t = rto_;
    for (uint32_t i = 0; i < backoff_; ++i) {
        t = std::min(t * 2, params_.max_rto);
    }
    rto_timer_ = kernel_.addTimer(t, [this] { onRtoExpired(); });
    rto_armed_ = true;
}

void
TcpConnection::cancelRtoTimer()
{
    if (rto_armed_) {
        kernel_.cancelTimer(rto_timer_);
        rto_armed_ = false;
    }
}

void
TcpConnection::onRtoExpired()
{
    rto_armed_ = false;
    ++rto_count_;
    kernel_.noteTcpRto();
    log::trace("%.3fus %s RTO state=%d una=%llu nxt=%llu queued=%llu "
               "cwnd=%llu rto=%s backoff=%u dupacks=%u",
               kernel_.sim().now().asMicros(), flow_.str().c_str(),
               static_cast<int>(state_),
               static_cast<unsigned long long>(snd_una_),
               static_cast<unsigned long long>(snd_nxt_),
               static_cast<unsigned long long>(app_queued_end_),
               static_cast<unsigned long long>(cwnd_),
               rto_.str().c_str(), backoff_, dupacks_);
    if (backoff_ < 12) {
        ++backoff_;
    }
    timed_pending_ = false; // Karn: never sample retransmitted segments

    // A peer that died silently never answers: after the retry budget
    // is exhausted the connection aborts instead of retransmitting
    // forever (Linux tcp_retries2 / tcp_syn_retries semantics).
    const bool handshake =
        state_ == State::SynSent || state_ == State::SynRcvd;
    const uint32_t retry_limit =
        handshake ? params_.max_syn_retries : params_.max_retries;
    if (retry_attempts_ >= retry_limit) {
        abortConnection(err::kTimedOut);
        return;
    }
    ++retry_attempts_;

    switch (state_) {
      case State::SynSent:
        syn_retransmitted_ = true; // Karn: don't sample this handshake
        transmitSegment(0, 0, kSyn, true);
        armRtoTimer();
        return;
      case State::SynRcvd:
        transmitSegment(0, 0, static_cast<uint8_t>(kSyn | kAck), true);
        armRtoTimer();
        return;
      case State::Closed:
        return;
      default:
        break;
    }

    if (flightSize() == 0) {
        return;
    }
    // Timeout: collapse to one segment, halve the pipe estimate, and —
    // as in classic Reno without SACK — go back to snd_una: everything
    // beyond it is considered lost and will be re-sent under slow start
    // as acknowledgments return.
    ssthresh_ = std::max<uint64_t>(flightSize() / 2, 2ULL * params_.mss);
    cwnd_ = params_.mss;
    in_fast_recovery_ = false;
    dupacks_ = 0;
    retransmit_until_ = std::max(retransmit_until_, snd_nxt_);
    snd_nxt_ = snd_una_;
    trySendData();
    armRtoTimer();
}

// ---------------------------------------------------------------------
// Socket notification
// ---------------------------------------------------------------------

void
TcpConnection::notifyReadable()
{
    if (sock_ != nullptr) {
        kernel_.socketReadable(*sock_);
    }
}

void
TcpConnection::notifyWritable()
{
    if (sock_ != nullptr) {
        kernel_.socketWritable(*sock_);
    }
}

} // namespace os
} // namespace diablo
