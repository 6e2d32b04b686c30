#include "net/packet.hh"

#include <atomic>

#include "core/log.hh"
#include "core/simulator.hh"

namespace diablo {
namespace net {

namespace {

uint64_t
freshPacketId()
{
    static std::atomic<uint64_t> next_id{1};
    return next_id.fetch_add(1, std::memory_order_relaxed);
}

/**
 * Return a recycled packet to its factory-fresh state.  Every field a
 * sender could have set must be reset here — a stale tcp/frag/app field
 * leaking into a reused packet is a silent cross-flow corruption (the
 * pool tests cover exactly this).  pool/pool_next are the pool's own
 * bookkeeping and are managed by make()/recycle().
 */
void
resetPacket(Packet &p)
{
    p.flow = FlowKey{};
    p.tcp = TcpFields{};
    p.payload_bytes = 0;
    p.dgram_id = 0;
    p.dgram_bytes = 0;
    p.frag_idx = 0;
    p.frag_count = 1;
    p.route.clear();
    p.created = SimTime();
    p.first_bit = SimTime();
    p.last_bit = SimTime();
    p.hop_count = 0;
}

} // namespace

const char *
protoName(Proto p)
{
    switch (p) {
      case Proto::Udp: return "UDP";
      case Proto::Tcp: return "TCP";
    }
    return "?";
}

void
sourceRouteOverrun(uint64_t pkt_id, size_t next, size_t hops)
{
    panic("SourceRoute: hop %zu past the end of a %zu-hop route "
          "(packet #%llu)",
          next, hops, static_cast<unsigned long long>(pkt_id));
}

std::string
SourceRoute::str() const
{
    std::string out = "[";
    for (size_t i = 0; i < hops_; ++i) {
        if (i) {
            out += ",";
        }
        if (i == next_) {
            out += "*";
        }
        out += std::to_string(port(i));
    }
    out += "]";
    return out;
}

std::string
FlowKey::str() const
{
    return strprintf("%s %u:%u->%u:%u", protoName(proto), src, sport, dst,
                     dport);
}

uint32_t
Packet::transportHeaderBytes() const
{
    return flow.proto == Proto::Tcp ? ip::kTcpHeaderBytes
                                    : ip::kUdpHeaderBytes;
}

uint32_t
Packet::l3Bytes() const
{
    return payload_bytes + transportHeaderBytes() + ip::kIpv4HeaderBytes +
           route.headerBytes();
}

std::string
Packet::str() const
{
    return strprintf("pkt#%llu %s payload=%uB l3=%uB",
                     static_cast<unsigned long long>(id),
                     flow.str().c_str(), payload_bytes, l3Bytes());
}

// ---------------------------------------------------------------------
// Pooling
// ---------------------------------------------------------------------

void
PacketDeleter::operator()(Packet *p) const
{
    if (p->pool != nullptr) {
        p->pool->recycle(p);
    } else {
        delete p;
    }
}

PacketPool::~PacketPool()
{
    Packet *p = free_head_.load(std::memory_order_acquire);
    while (p != nullptr) {
        Packet *next = p->pool_next;
        delete p;
        p = next;
    }
}

PacketPtr
PacketPool::make()
{
    ++makes_;
    const uint64_t live =
        makes_ + ghost_arrivals_ - returns_.load(std::memory_order_relaxed) -
        ghost_departures_.load(std::memory_order_relaxed);
    if (live > high_water_) {
        high_water_ = live;
    }

    // Single-consumer Treiber pop: producers only ever push new heads,
    // so head->pool_next is stable while head is reachable (no ABA).
    Packet *head = free_head_.load(std::memory_order_acquire);
    while (head != nullptr &&
           !free_head_.compare_exchange_weak(head, head->pool_next,
                                             std::memory_order_acquire,
                                             std::memory_order_acquire)) {
    }
    if (head == nullptr) {
        ++heap_allocs_;
        head = new Packet();
        head->pool = this;
    }
    head->pool_next = nullptr;
    head->id = freshPacketId();
    return PacketPtr(head);
}

void
PacketPool::pushFree(Packet *p)
{
    // Reset eagerly (not at reuse) so held resources — the app
    // shared_ptr above all — release at the packet's natural death, and
    // a parked freelist never pins application message descriptors.
    resetPacket(*p);
    p->app.reset();
    p->id = 0;
    Packet *head = free_head_.load(std::memory_order_relaxed);
    do {
        p->pool_next = head;
    } while (!free_head_.compare_exchange_weak(head, p,
                                               std::memory_order_release,
                                               std::memory_order_relaxed));
}

void
PacketPool::recycle(Packet *p)
{
    returns_.fetch_add(1, std::memory_order_relaxed);
    pushFree(p);
}

PacketPtr
PacketPool::makeGhost()
{
    // Uncounted make (see the header's ghost-accounting note): same
    // freelist pop as make(), but an arrival instead of a make, no
    // high-water/heap bookkeeping and no fresh id — the caller rewrites
    // every field from the wire record, id included.
    ++ghost_arrivals_;
    Packet *head = free_head_.load(std::memory_order_acquire);
    while (head != nullptr &&
           !free_head_.compare_exchange_weak(head, head->pool_next,
                                             std::memory_order_acquire,
                                             std::memory_order_acquire)) {
    }
    if (head == nullptr) {
        head = new Packet();
        head->pool = this;
    }
    head->pool_next = nullptr;
    return PacketPtr(head);
}

void
PacketPool::recycleGhost(Packet *p)
{
    ghost_departures_.fetch_add(1, std::memory_order_relaxed);
    pushFree(p);
}

void
releaseGhost(PacketPtr p)
{
    Packet *raw = p.release();
    if (raw->pool != nullptr) {
        raw->pool->recycleGhost(raw);
    } else {
        delete raw;
    }
}

PacketPtr
makePacket()
{
    auto *p = new Packet();
    p->id = freshPacketId();
    return PacketPtr(p);
}

PacketPool &
packetPoolOf(Simulator &sim)
{
    auto *pool = static_cast<PacketPool *>(sim.attachment());
    if (pool == nullptr) {
        pool = new PacketPool();
        sim.setAttachment(pool, [](void *raw) {
            delete static_cast<PacketPool *>(raw);
        });
    }
    return *pool;
}

PacketPool *
packetPoolIfAttached(Simulator &sim)
{
    return static_cast<PacketPool *>(sim.attachment());
}

PacketPtr
makePacket(Simulator &sim)
{
    return packetPoolOf(sim).make();
}

} // namespace net
} // namespace diablo
