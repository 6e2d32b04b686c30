#include "fame/transport.hh"

#include <cstdlib>
#include <new>

#include "core/log.hh"

namespace diablo {
namespace fame {

void
RankSlot::publish(uint32_t window, int64_t bound, int64_t contrib,
                  int32_t on_cpu)
{
    bound_ps[window & 1] = bound;
    contrib_ps[window & 1] = contrib;
    cpu.store(on_cpu, std::memory_order_relaxed);
    published.store(window + 1, std::memory_order_release);
    ring();
}

void
RankSlot::ring()
{
    doorbell.fetch_add(1, std::memory_order_seq_cst);
    wakeParked(doorbell, parked);
}

std::pair<std::unique_ptr<Transport>, std::unique_ptr<Transport>>
makeInProcTransportPair(uint32_t ring_capacity)
{
    // Both slots and both rings in one heap block that the two
    // endpoints share, so it outlives whichever is destroyed first.
    // Slots and ring footprints are 64-byte multiples, so every piece
    // starts cacheline-aligned.
    const size_t footprint = SpscRecordRing::footprint(ring_capacity);
    const size_t slots = 2 * sizeof(RankSlot);
    std::shared_ptr<void> mem(
        std::aligned_alloc(64, slots + 2 * footprint), std::free);
    if (!mem)
        panic("makeInProcTransportPair: allocation of two %zu-byte rings "
              "failed",
              footprint);
    auto *base = static_cast<uint8_t *>(mem.get());
    auto *slot_a = new (base) RankSlot();
    auto *slot_b = new (base + sizeof(RankSlot)) RankSlot();
    SpscRecordRing *a_to_b = SpscRecordRing::init(base + slots,
                                                  ring_capacity);
    SpscRecordRing *b_to_a =
        SpscRecordRing::init(base + slots + footprint, ring_capacity);
    auto a = std::make_unique<Transport>(a_to_b, b_to_a, slot_a, slot_b,
                                         mem);
    auto b = std::make_unique<Transport>(b_to_a, a_to_b, slot_b, slot_a,
                                         std::move(mem));
    return {std::move(a), std::move(b)};
}

size_t
ShmGroupLayout::slotOffset(uint32_t rank) const
{
    if (rank >= nprocs)
        panic("ShmGroupLayout: slot of rank %u out of range for %u "
              "processes",
              rank, nprocs);
    return sizeof(ShmGroupControl) + (size_t)rank * sizeof(RankSlot);
}

size_t
ShmGroupLayout::ringOffset(uint32_t from, uint32_t to) const
{
    if (from >= nprocs || to >= nprocs)
        panic("ShmGroupLayout: ring (%u -> %u) out of range for %u "
              "processes",
              from, to, nprocs);
    // Control block and slots first; ring footprints are 64-byte
    // multiples (header 192 + power-of-two capacity >= 4 KiB), so every
    // ring header lands cacheline-aligned without extra padding.
    return sizeof(ShmGroupControl) + (size_t)nprocs * sizeof(RankSlot) +
           ((size_t)from * nprocs + to) *
               SpscRecordRing::footprint(ring_capacity);
}

size_t
ShmGroupLayout::totalBytes() const
{
    return sizeof(ShmGroupControl) + (size_t)nprocs * sizeof(RankSlot) +
           (size_t)nprocs * nprocs *
               SpscRecordRing::footprint(ring_capacity);
}

void
ShmGroupControl::publish(Command cmd, int64_t until)
{
    until_ps.store(until, std::memory_order_seq_cst);
    command.store(cmd, std::memory_order_seq_cst);
    epoch.fetch_add(1, std::memory_order_seq_cst);
    wakeParked(epoch, parked);
}

uint32_t
ShmGroupControl::waitEpoch(uint32_t last_epoch, int64_t timeout_ns)
{
    parkUntil(
        epoch, [last_epoch](uint32_t e) { return e != last_epoch; }, parked,
        kEpochSpins, timeout_ns);
    return epoch.load(std::memory_order_seq_cst);
}

void
initGroupSegment(void *mem, const ShmGroupLayout &layout)
{
    if (layout.nprocs < 2 || layout.nprocs > ShmGroupLayout::kMaxProcs)
        panic("initGroupSegment: %u processes outside [2, %u]",
              layout.nprocs, ShmGroupLayout::kMaxProcs);
    auto *base = static_cast<uint8_t *>(mem);
    new (base + layout.controlOffset()) ShmGroupControl();
    for (uint32_t r = 0; r < layout.nprocs; ++r) {
        new (base + layout.slotOffset(r)) RankSlot();
    }
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
    return std::make_unique<Transport>(
        tx, rx, reinterpret_cast<RankSlot *>(base + layout.slotOffset(self)),
        reinterpret_cast<RankSlot *>(base + layout.slotOffset(peer)));
}

} // namespace fame
} // namespace diablo
