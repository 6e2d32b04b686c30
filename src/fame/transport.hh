#ifndef DIABLO_FAME_TRANSPORT_HH_
#define DIABLO_FAME_TRANSPORT_HH_

/**
 * @file
 * Cross-engine channel transports and the coupled-sync wire protocol.
 *
 * DIABLO spans 36 FPGAs over dedicated serial links, each FPGA's
 * scheduler "synchroniz[ing] with adjacent FPGAs over the serial links
 * at a fine granularity" (§3.2).  This is the software analog of the
 * serial link: a Transport carries two kinds of records between engine
 * processes (or, for tests and benchmarks, between two PartitionSets
 * in one process):
 *
 *   MSG   a timestamped cross-partition channel message — the payload
 *         is an opaque byte record the wiring layer (net/sim) encodes
 *         and decodes (fame never learns what a packet is);
 *   SYNC  one per window barrier, carrying the sender's contribution
 *         to the global earliest-pending-time fold.
 *
 * This is the SimBricks netif recipe (polled shared-memory queues with
 * periodic sync messages at the link latency) adapted to the
 * conservative quantum loop: a process free-runs through a window
 * while every peer's SYNC for the current barrier has already arrived
 * (`peer_horizon >= local_window_bound` realized as wait elision), and
 * parks on the ring's futex word only when a peer is behind.
 *
 * Wire framing: every ring record starts with a uint32 kind.  Records
 * are POD and carried verbatim — both sides of a transport are builds
 * of this same binary (the launcher re-execs itself), so there is no
 * cross-version concern beyond the HELLO handshake's layout hash.
 */

#include <cstdint>
#include <memory>
#include <utility>

#include "core/shm.hh"

namespace diablo {
namespace fame {

/** Record kinds (first uint32 of every ring record). */
enum WireKind : uint32_t {
    kWireHello = 1,
    kWireMsg = 2,
    kWireSync = 3,
};

/**
 * Handshake, first record on every ring: both sides prove they built
 * the same model.  A mismatch is a launcher bug (diverging configs in
 * parent and child) and fatals with the differing field.
 */
struct WireHello {
    uint32_t kind = kWireHello;
    uint32_t version = 1;
    uint64_t magic = 0x4449414254505254ULL; // "DIABTPRT"
    uint32_t self_rank = 0;
    uint32_t partitions = 0;
    uint32_t channels = 0;
    uint32_t pad = 0;
    int64_t quantum_ps = 0;
    uint64_t owner_hash = 0; ///< FNV over the partition->rank map
};

/**
 * One cross-process channel message.  @p len payload bytes follow this
 * header in the same ring record; the payload is the wiring layer's
 * encoded delivery (a net::PacketRecord for trunk links).
 */
struct WireMsgHdr {
    uint32_t kind = kWireMsg;
    uint32_t channel = 0; ///< global channel index (drain order)
    uint32_t len = 0;     ///< payload bytes following this header
    uint32_t pad = 0;
    int64_t when_ps = 0;  ///< absolute delivery time
};

/** Per-barrier synchronization record (closes one message batch). */
struct WireSync {
    uint32_t kind = kWireSync;
    uint32_t pad = 0;
    uint64_t seq = 0;       ///< barrier sequence number
    int64_t bound_ps = 0;   ///< window bound the sender just finished
    int64_t contrib_ps = 0; ///< sender's earliest-pending contribution
};

/**
 * A bidirectional record pipe to one peer engine over a pair of
 * SpscRecordRings: tx carries self -> peer, rx peer -> self, and the
 * peer wraps the same two rings with the roles swapped.  The rings sit
 * in one of two places — a process group's ShmSegment
 * (groupTransport) for real multi-process runs, or a heap block
 * (makeInProcTransportPair) that @p storage keeps alive for in-process
 * coupling.  Send/recv move one whole record (kind header + body);
 * ordering is FIFO per direction.  All methods are called from the
 * engine's single coupled thread.
 */
class Transport {
  public:
    Transport(SpscRecordRing *tx, SpscRecordRing *rx,
              std::shared_ptr<void> storage = nullptr)
        : tx_(tx), rx_(rx), storage_(std::move(storage))
    {
    }

    /** Enqueue one record; false when the ring is full (retry). */
    bool
    trySend(const void *bytes, uint32_t n)
    {
        return tx_->tryPush(bytes, n);
    }

    /** Dequeue one record into @p out; its length, or 0 when empty. */
    uint32_t
    tryRecv(void *out, uint32_t cap)
    {
        return rx_->tryPop(out, cap);
    }

    /**
     * One bounded wait for inbound data: spin, then park for at most
     * @p timeout_ns.  True when data is available.  Callers loop with
     * interrupt / peerAborted checks between calls.
     */
    bool
    waitForData(uint32_t spin_budget, int64_t timeout_ns)
    {
        return rx_->waitForData(spin_budget, timeout_ns);
    }

    /** One bounded wait for @p bytes of outbound space (as above). */
    bool
    waitForSpace(uint32_t bytes, uint32_t spin_budget, int64_t timeout_ns)
    {
        return tx_->waitForSpace(bytes, spin_budget, timeout_ns);
    }

    /**
     * Tell the peer this engine is abandoning the run and wake it.  The
     * peer observes its rx (= our tx) ring's flag; our rx is flagged
     * too so our own parked waits (if any remain) bail out.
     */
    void
    abort()
    {
        tx_->setAborted();
        rx_->setAborted();
    }

    /** True once the peer called abort() (sticky). */
    bool peerAborted() const { return rx_->aborted(); }

  private:
    SpscRecordRing *tx_;
    SpscRecordRing *rx_;
    std::shared_ptr<void> storage_; ///< heap rings' owner; null over shm
};

/**
 * In-process transport pair over heap rings: endpoint A's tx is B's rx
 * and vice versa.  Exercises the exact coupled code path (framing,
 * parking, barrier elision) without fork/exec — the bit-identity tests
 * and the transport benchmark couple two PartitionSets on two threads
 * this way.  Both endpoints share ownership of the ring storage.
 */
std::pair<std::unique_ptr<Transport>, std::unique_ptr<Transport>>
makeInProcTransportPair(uint32_t ring_capacity = 1u << 20);

/**
 * Layout of one process group's shared segment: a control block
 * followed by an nprocs x nprocs matrix of rings (diagonal unused —
 * the waste is a few ring footprints, and the indexing stays trivial).
 * The launcher create()s and initGroupSegment()s it; every process
 * derives its transports with groupTransport().
 */
struct ShmGroupLayout {
    static constexpr uint32_t kMaxProcs = 32; // control-word mask width

    uint32_t nprocs = 0;
    uint32_t ring_capacity = 1u << 20;

    size_t controlOffset() const { return 0; }
    size_t ringOffset(uint32_t from, uint32_t to) const;
    size_t totalBytes() const;
};

/**
 * Outer-loop control block at the head of the group segment.  The
 * leader (rank 0) publishes each outer window; followers park on the
 * epoch word.  Any rank that observes an interrupt raises its bit in
 * interrupted_mask; only the leader turns that into a kStop command,
 * so the group always stops at one agreed window boundary.
 */
struct alignas(64) ShmGroupControl {
    enum Command : uint32_t {
        kRun = 1,
        kStop = 2,
        kStopInterrupted = 3,
    };

    std::atomic<uint32_t> epoch{0};
    std::atomic<uint32_t> command{kRun};
    std::atomic<int64_t> until_ps{0};
    std::atomic<uint32_t> interrupted_mask{0};

    /** Leader: publish the next command and wake every follower. */
    void publish(Command cmd, int64_t until);

    /**
     * Follower: wait (bounded spin + futex) until epoch != last_epoch.
     * Returns the new epoch.  Callers re-check interrupt flags between
     * the bounded waits, which this loops internally with timeout_ns.
     */
    uint32_t waitEpoch(uint32_t last_epoch, int64_t timeout_ns);

    void
    markInterrupted(uint32_t rank)
    {
        interrupted_mask.fetch_or(1u << rank, std::memory_order_seq_cst);
    }

    bool
    anyInterrupted() const
    {
        return interrupted_mask.load(std::memory_order_seq_cst) != 0;
    }
};

static_assert(sizeof(ShmGroupControl) == 64,
              "control block must stay one cacheline (shared layout)");

/** Placement-initialize the control block and every ring. */
void initGroupSegment(void *mem, const ShmGroupLayout &layout);

/** The group's control block (segment already initialized). */
ShmGroupControl *groupControl(void *mem, const ShmGroupLayout &layout);

/** Transport connecting @p self to @p peer over the group segment. */
std::unique_ptr<Transport> groupTransport(void *mem,
                                          const ShmGroupLayout &layout,
                                          uint32_t self, uint32_t peer);

} // namespace fame
} // namespace diablo

#endif // DIABLO_FAME_TRANSPORT_HH_
