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
 *   HELLO once per group, proving both sides built the same model;
 *   MSG   a timestamped cross-partition channel message, stamped with
 *         the window it belongs to — the payload is an opaque byte
 *         record the wiring layer (net/sim) encodes and decodes (fame
 *         never learns what a packet is).
 *
 * Window ends do not cross the rings.  Every rank owns one RankSlot,
 * a cacheline in the same memory that only it writes: it pushes a
 * window's MSG records, then publishes the window's bound and its
 * contribution to the global earliest-pending-time fold in its slot.
 * A peer that sees the publication (acquire) sees every record of the
 * window too.  This keeps SimBricks' recipe (polled shared-memory
 * queues, sync at the link latency) but moves the sync out of band: a
 * process free-runs through a window end whose peers have already
 * published (wait elision), and parks on a peer's doorbell only when
 * that peer is behind.
 *
 * Wire framing: every ring record starts with a uint32 kind.  Records
 * are POD and carried verbatim — both sides of a transport are builds
 * of this same binary (the launcher forks its ranks), so there is no
 * cross-version concern beyond the HELLO handshake's layout hash.
 */

#include <atomic>
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
};

/**
 * Handshake, first record on every ring: both sides prove they built
 * the same model.  A mismatch is a launcher bug (diverging configs in
 * parent and child) and fatals with the differing field.
 */
struct WireHello {
    uint32_t kind = kWireHello;
    uint32_t version = 2;
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
    uint32_t window = 0;  ///< low 32 bits of the sender's exchange number
    int64_t when_ps = 0;  ///< absolute delivery time
};

/**
 * One rank's window publication, in one cacheline that only its rank
 * writes (peers bump `doorbell` and `parked` only to wake and sleep).
 * Exchange n (the entry exchange of the first run is 0) publishes
 * `published` = n + 1 after writing the parity-(n & 1) fields.  The
 * fields are double-buffered by the argument of the in-process
 * WindowSlot: a rank writes exchange n + 2's fields only after it has
 * seen every peer publish n + 1, and each peer read the exchange-n
 * fields before it published n + 1.
 */
struct alignas(64) RankSlot {
    /** Window ends published so far (wraps at 2^32). */
    std::atomic<uint32_t> published{0};
    /**
     * The word peers park on.  It rings on every publication, after a
     * HELLO, when one of this rank's sends stalls on a full ring (the
     * peer must drain it before this rank can publish), and on abort.
     */
    std::atomic<uint32_t> doorbell{0};
    /** Peers parked on doorbell (parkUntil's count). */
    std::atomic<uint32_t> parked{0};
    /** CPU of the last publication, -1 before the first: a spin hint. */
    std::atomic<int32_t> cpu{-1};
    /** Window bound of exchange n, at parity n & 1. */
    int64_t bound_ps[2] = {0, 0};
    /** Earliest-pending contribution of exchange n, at parity n & 1. */
    int64_t contrib_ps[2] = {0, 0};

    /**
     * Publish exchange @p window (low 32 bits) with its bound and
     * contribution, made from CPU @p on_cpu, and ring the doorbell.
     */
    void publish(uint32_t window, int64_t bound, int64_t contrib,
                 int32_t on_cpu);

    /** True once exchange @p window is published (acquire). */
    bool
    covers(uint32_t window) const
    {
        return static_cast<int32_t>(
                   published.load(std::memory_order_acquire) - window) > 0;
    }

    /** Bump the doorbell and wake the peers parked on it. */
    void ring();
};

static_assert(sizeof(RankSlot) == 64,
              "a rank slot is exactly one cacheline (shared layout)");

/**
 * A bidirectional link to one peer engine: a pair of SpscRecordRings
 * (tx carries self -> peer, rx peer -> self) and the two ranks' slots.
 * The peer wraps the same rings and slots with the roles swapped.
 * They sit in one of two places — a process group's ShmSegment
 * (groupTransport) for real multi-process runs, or a heap block
 * (makeInProcTransportPair) that @p storage keeps alive for in-process
 * coupling.  Send/recv move one whole record (kind header + body);
 * ordering is FIFO per direction.  All methods but abort() are called
 * from the engine's single coupled thread; abort() is async-signal-safe.
 */
class Transport {
  public:
    Transport(SpscRecordRing *tx, SpscRecordRing *rx, RankSlot *self,
              RankSlot *peer, std::shared_ptr<void> storage = nullptr)
        : tx_(tx), rx_(rx), self_(self), peer_(peer),
          storage_(std::move(storage))
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

    /** True while the peer's ring to this engine holds records. */
    bool inboundPending() const { return !rx_->empty(); }

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

    /** This engine's publication slot (shared by all its transports). */
    RankSlot &selfSlot() { return *self_; }

    /** The peer's publication slot. */
    RankSlot &peerSlot() { return *peer_; }

    /**
     * Tell the peer this engine is abandoning the run and wake it.  The
     * peer observes its rx (= our tx) ring's flag; our rx is flagged
     * too so our own waits bail out.  Both doorbells ring, so a wait
     * parked on either side's slot ends at once.  Only atomic stores
     * and futex wakes: a signal handler may call it.
     */
    void
    abort()
    {
        tx_->setAborted();
        rx_->setAborted();
        self_->ring();
        peer_->ring();
    }

    /** True once the peer called abort() (sticky). */
    bool peerAborted() const { return rx_->aborted(); }

  private:
    SpscRecordRing *tx_;
    SpscRecordRing *rx_;
    RankSlot *self_;
    RankSlot *peer_;
    std::shared_ptr<void> storage_; ///< heap block's owner; null over shm
};

/**
 * In-process transport pair over heap rings and slots: endpoint A's tx
 * is B's rx and vice versa.  Exercises the exact coupled code path
 * (framing, parking, barrier elision) without fork/exec — the
 * bit-identity tests and the transport benchmark couple two
 * PartitionSets on two threads this way.  Both endpoints share
 * ownership of the storage.
 */
std::pair<std::unique_ptr<Transport>, std::unique_ptr<Transport>>
makeInProcTransportPair(uint32_t ring_capacity = 1u << 20);

/**
 * Layout of one process group's shared segment: a control block, one
 * RankSlot per rank, then an nprocs x nprocs matrix of rings (diagonal
 * unused — the waste is a few ring footprints, and the indexing stays
 * trivial).  The launcher create()s and initGroupSegment()s it; every
 * process derives its transports with groupTransport().
 */
struct ShmGroupLayout {
    static constexpr uint32_t kMaxProcs = 32; // control-word mask width

    uint32_t nprocs = 0;
    uint32_t ring_capacity = 1u << 20;

    size_t controlOffset() const { return 0; }
    size_t slotOffset(uint32_t rank) const;
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

    /** Pauses a follower spins on the epoch before it parks. */
    static constexpr uint32_t kEpochSpins = 4096;

    std::atomic<uint32_t> epoch{0};
    std::atomic<uint32_t> command{kRun};
    std::atomic<int64_t> until_ps{0};
    std::atomic<uint32_t> interrupted_mask{0};
    /** Followers parked on epoch (parkUntil's count). */
    std::atomic<uint32_t> parked{0};

    /** Leader: publish the next command and wake every follower. */
    void publish(Command cmd, int64_t until);

    /**
     * Follower: wait (parkUntil: spin, then at most one park of
     * @p timeout_ns) until epoch != last_epoch.  Returns the epoch,
     * still last_epoch after a timeout; callers re-check interrupt
     * flags between the bounded waits.
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

/** Placement-initialize the control block, every slot and ring. */
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
