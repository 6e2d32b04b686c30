#include "fame/transport.hh"

#include <cstdlib>

#include "core/log.hh"

namespace diablo {
namespace fame {

std::pair<std::unique_ptr<Transport>, std::unique_ptr<Transport>>
makeInProcTransportPair(uint32_t ring_capacity)
{
    // Both rings in one heap block that the two endpoints share, so it
    // outlives whichever is destroyed first.  Ring footprints are
    // 64-byte multiples, so the second ring starts cacheline-aligned.
    const size_t footprint = SpscRecordRing::footprint(ring_capacity);
    std::shared_ptr<void> mem(std::aligned_alloc(64, 2 * footprint),
                              std::free);
    if (!mem)
        panic("makeInProcTransportPair: allocation of two %zu-byte rings "
              "failed",
              footprint);
    auto *base = static_cast<uint8_t *>(mem.get());
    SpscRecordRing *a_to_b = SpscRecordRing::init(base, ring_capacity);
    SpscRecordRing *b_to_a =
        SpscRecordRing::init(base + footprint, ring_capacity);
    auto a = std::make_unique<Transport>(a_to_b, b_to_a, mem);
    auto b = std::make_unique<Transport>(b_to_a, a_to_b, std::move(mem));
    return {std::move(a), std::move(b)};
}

size_t
ShmGroupLayout::ringOffset(uint32_t from, uint32_t to) const
{
    if (from >= nprocs || to >= nprocs)
        panic("ShmGroupLayout: ring (%u -> %u) out of range for %u "
              "processes",
              from, to, nprocs);
    // Control block first; ring footprints are 64-byte multiples
    // (header 192 + power-of-two capacity >= 4 KiB), so every ring
    // header lands cacheline-aligned without extra padding.
    return sizeof(ShmGroupControl) +
           ((size_t)from * nprocs + to) *
               SpscRecordRing::footprint(ring_capacity);
}

size_t
ShmGroupLayout::totalBytes() const
{
    return sizeof(ShmGroupControl) +
           (size_t)nprocs * nprocs *
               SpscRecordRing::footprint(ring_capacity);
}

void
ShmGroupControl::publish(Command cmd, int64_t until)
{
    until_ps.store(until, std::memory_order_seq_cst);
    command.store(cmd, std::memory_order_seq_cst);
    epoch.fetch_add(1, std::memory_order_seq_cst);
    sharedFutexWake(&epoch, /*all=*/true);
}

uint32_t
ShmGroupControl::waitEpoch(uint32_t last_epoch, int64_t timeout_ns)
{
    uint32_t e = epoch.load(std::memory_order_seq_cst);
    for (uint32_t spin = 0; e == last_epoch && spin < 4096; ++spin)
        e = epoch.load(std::memory_order_seq_cst);
    if (e == last_epoch) {
        sharedFutexWait(&epoch, last_epoch, timeout_ns);
        e = epoch.load(std::memory_order_seq_cst);
    }
    return e;
}

void
initGroupSegment(void *mem, const ShmGroupLayout &layout)
{
    if (layout.nprocs < 2 || layout.nprocs > ShmGroupLayout::kMaxProcs)
        panic("initGroupSegment: %u processes outside [2, %u]",
              layout.nprocs, ShmGroupLayout::kMaxProcs);
    auto *base = static_cast<uint8_t *>(mem);
    new (base + layout.controlOffset()) ShmGroupControl();
    for (uint32_t from = 0; from < layout.nprocs; ++from) {
        for (uint32_t to = 0; to < layout.nprocs; ++to) {
            if (from == to)
                continue;
            SpscRecordRing::init(base + layout.ringOffset(from, to),
                                 layout.ring_capacity);
        }
    }
}

ShmGroupControl *
groupControl(void *mem, const ShmGroupLayout &layout)
{
    auto *base = static_cast<uint8_t *>(mem);
    return reinterpret_cast<ShmGroupControl *>(base +
                                               layout.controlOffset());
}

std::unique_ptr<Transport>
groupTransport(void *mem, const ShmGroupLayout &layout, uint32_t self,
               uint32_t peer)
{
    if (self == peer)
        panic("groupTransport: rank %u cannot connect to itself", self);
    auto *base = static_cast<uint8_t *>(mem);
    SpscRecordRing *tx =
        SpscRecordRing::attach(base + layout.ringOffset(self, peer));
    SpscRecordRing *rx =
        SpscRecordRing::attach(base + layout.ringOffset(peer, self));
    return std::make_unique<Transport>(tx, rx);
}

} // namespace fame
} // namespace diablo
