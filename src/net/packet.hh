#ifndef DIABLO_NET_PACKET_HH_
#define DIABLO_NET_PACKET_HH_

/**
 * @file
 * The simulated network packet.
 *
 * DIABLO models "the movement of every byte in every packet"; in software
 * we carry exact byte *counts* for every protocol layer (application
 * payload, transport header, IP header, Ethernet framing including
 * preamble/FCS/IFG and minimum-frame padding) so all serialization,
 * buffering, and goodput numbers are byte-accurate, while application
 * message *content* rides along as a typed metadata pointer rather than a
 * literal byte image.
 */

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "core/time.hh"
#include "core/units.hh"
#include "net/addr.hh"

namespace diablo {

class Simulator;

namespace net {

class PacketPool;

/** TCP header flags. */
namespace tcp_flags {
inline constexpr uint8_t kSyn = 1 << 0;
inline constexpr uint8_t kAck = 1 << 1;
inline constexpr uint8_t kFin = 1 << 2;
inline constexpr uint8_t kRst = 1 << 3;
} // namespace tcp_flags

/**
 * TCP-specific header fields (valid when proto == Proto::Tcp).
 * Sequence numbers are modeled as unwrapped 64-bit stream offsets; the
 * on-wire header size is still accounted as the standard 20 bytes.
 */
struct TcpFields {
    uint64_t seq = 0;       ///< first payload byte's stream offset
    uint64_t ack = 0;       ///< cumulative acknowledgment
    uint8_t flags = 0;      ///< tcp_flags combination
    uint64_t window = 0;    ///< advertised receive window, bytes

    bool has(uint8_t f) const { return (flags & f) != 0; }
};

/** Opaque application message metadata attached to a packet. */
struct AppData {
    virtual ~AppData() = default;
};

/**
 * A simulated packet.  Owned uniquely; moves through NIC, links and
 * switches by transfer of the unique_ptr.
 */
struct Packet {
    uint64_t id = 0;            ///< globally unique, for tracing

    FlowKey flow;               ///< 5-tuple
    TcpFields tcp;              ///< valid iff flow.proto == Tcp
    uint32_t payload_bytes = 0; ///< application-layer payload length

    // --- UDP/IP fragmentation (valid iff flow.proto == Udp) ---
    uint64_t dgram_id = 0;      ///< datagram this fragment belongs to
    uint64_t dgram_bytes = 0;   ///< total datagram payload size
    uint16_t frag_idx = 0;
    uint16_t frag_count = 1;

    SourceRoute route;          ///< switch output ports, per the paper

    /** Typed application message (request/response descriptors). */
    std::shared_ptr<const AppData> app;

    SimTime created;            ///< time the sender NIC started DMA
    SimTime first_bit;          ///< link delivery bookkeeping (see Link)
    SimTime last_bit;

    uint32_t hop_count = 0;     ///< switches traversed so far

    /**
     * Origin pool (null for plain heap packets) and its intrusive
     * freelist link.  Set once by PacketPool::make() and never by model
     * code; the custom PacketPtr deleter routes the packet home.
     */
    PacketPool *pool = nullptr;
    Packet *pool_next = nullptr;

    /** Transport header size for this packet's protocol. */
    uint32_t transportHeaderBytes() const;

    /** Layer-3 datagram size: payload + transport + IP + route header. */
    uint32_t l3Bytes() const;

    /** Total wire occupancy including Ethernet framing and IFG. */
    uint32_t wireBytes() const { return eth::wireBytes(l3Bytes()); }

    std::string str() const;
};

/**
 * PacketPtr deleter: pooled packets recycle to their origin pool,
 * plain ones are heap-freed.  Stateless and default-constructible, so
 * PacketPtr stays pointer-sized, remains constructible from a raw
 * Packet* (release()/reacquire patterns in the kernel keep working),
 * and closures capturing a PacketPtr stay within the EventFn
 * small-buffer budget.
 */
struct PacketDeleter {
    void operator()(Packet *p) const;
};

using PacketPtr = std::unique_ptr<Packet, PacketDeleter>;

/**
 * Per-partition recycling freelist behind makePacket(Simulator&).
 *
 * The software analog of DIABLO's fixed BRAM packet rings (§4.2): after
 * warm-up the NIC -> link -> switch -> kernel traversal reuses warm
 * Packet slabs with zero malloc/free.  A packet always recycles to the
 * pool that created it — pools are owned by one partition (make() is
 * called only from its events) but a packet may die in another (e.g. a
 * drop at a remote switch), so the freelist is a Treiber stack with
 * thread-safe multi-producer push and single-consumer pop.  ABA cannot
 * occur: only the owning partition pops, so a node's next link is
 * stable while it is reachable.  The inter-quantum barriers of the
 * parallel engine provide the happens-before between a remote recycle
 * and a later pop.
 */
class PacketPool {
  public:
    PacketPool() = default;
    PacketPool(const PacketPool &) = delete;
    PacketPool &operator=(const PacketPool &) = delete;
    ~PacketPool();

    /** A fully reset packet with a fresh globally unique id. */
    PacketPtr make();

    // --- stats (exported per partition) ---------------------------------

    /** Packets handed out (pool hits + heap allocations). */
    uint64_t makes() const { return makes_; }

    /** make() calls served from the freelist (no allocator). */
    uint64_t recycles() const { return makes_ - heap_allocs_; }

    /**
     * make() calls that fell through to the heap.  Steady state is
     * zero; in a parallel run the split between recycles and heap
     * allocs depends on wall-clock interleaving (a remote recycle may
     * land after the next make), so only makes()/returns() are
     * deterministic across engines.
     */
    uint64_t heapAllocs() const { return heap_allocs_; }

    /** Packets returned (from any thread) over the pool's lifetime. */
    uint64_t returns() const
    {
        return returns_.load(std::memory_order_relaxed);
    }

    /**
     * Maximum packets simultaneously live, sampled at make(): makes +
     * ghost arrivals - returns - ghost departures.
     */
    uint64_t highWater() const { return high_water_; }

    // --- cross-process ghost accounting ---------------------------------
    //
    // A packet crossing a process boundary exists twice for an instant:
    // the sender's copy dies at serialization and the receiver
    // materializes a replica from its local pool for the same partition.
    // makes/returns must not see those synthetic transitions — the
    // sender's copy was counted at make() and the replica's death will
    // be counted at its real recycle — so the per-partition
    // makes/returns summed across all processes equal the single-process
    // totals exactly (the fingerprint folds them).  makeGhost/
    // recycleGhost are those uncounted twins of make()/recycle(); they
    // count a ghost arrival/departure instead, so the live count behind
    // highWater() stays exact on each side.

    /**
     * Dense partition index this pool belongs to, stamped by the
     * cluster wiring in coupled mode so serialization can name a
     * packet's origin partition; -1 (the default) means untagged.
     */
    void setTag(int64_t tag) { tag_ = tag; }
    int64_t tag() const { return tag_; }

    /** Reuse (or allocate) a packet without counting a make. */
    PacketPtr makeGhost();

    /** Return a packet without counting; pairs with makeGhost. */
    void recycleGhost(Packet *p);

  private:
    friend struct PacketDeleter;

    /** Thread-safe push of a dead packet onto the freelist. */
    void recycle(Packet *p);

    /** Reset @p p and push it onto the freelist (no counting). */
    void pushFree(Packet *p);

    std::atomic<Packet *> free_head_{nullptr};
    uint64_t makes_ = 0;
    uint64_t ghost_arrivals_ = 0;
    uint64_t heap_allocs_ = 0;
    uint64_t high_water_ = 0;
    std::atomic<uint64_t> returns_{0};
    std::atomic<uint64_t> ghost_departures_{0};
    int64_t tag_ = -1;
};

/**
 * Destroy the sender-side copy of a packet that just crossed a process
 * boundary: an uncounted return to its pool (or heap free).  The normal
 * PacketPtr deleter would count a return the receiving process's
 * replica will count again at its real death.
 */
void releaseGhost(PacketPtr p);

/** Create a plain heap packet with a fresh globally unique id. */
PacketPtr makePacket();

/**
 * Create a packet from @p sim's partition-local pool (created on first
 * use, attached to the Simulator, destroyed with it).  This is the
 * datapath entry point: every steady-state packet build goes through
 * here so traversal is allocation-free after warm-up.
 */
PacketPtr makePacket(Simulator &sim);

/** The partition pool of @p sim, creating it on first use. */
PacketPool &packetPoolOf(Simulator &sim);

/** The partition pool of @p sim, or null if none was created yet. */
PacketPool *packetPoolIfAttached(Simulator &sim);

/** Destination for packets: NIC RX, switch ingress ports, sinks. */
class PacketSink {
  public:
    virtual ~PacketSink() = default;

    /**
     * Deliver a packet.  For full-delivery sinks (the default; NICs)
     * this is called at last-bit arrival.  Early-delivery sinks
     * (cut-through switch ingress) are called once the header has
     * arrived; the packet's last_bit field still records when its final
     * bit will arrive, which egress logic must respect.
     */
    virtual void receive(PacketPtr p) = 0;

    /** Return true to receive packets at header arrival (cut-through). */
    virtual bool wantsEarlyDelivery() const { return false; }
};

} // namespace net
} // namespace diablo

#endif // DIABLO_NET_PACKET_HH_
