#include "core/event.hh"

#include "core/log.hh"

namespace diablo {

// Cold paths only — the schedule/cancel/pop hot path is inline in
// event.hh so the compiler can fuse it into the Simulator loop.

uint32_t
EventQueue::growSlots()
{
    // An EventId's slot is 32 bits, one value reserved as invalid.
    if (slot_count_ == EventId::kInvalidSlot) {
        panic("EventQueue: slot pool overflow");
    }
    if ((slot_count_ & kSlotChunkMask) == 0) {
        void *mem = slot_arena_.allocate(sizeof(Slot) * kSlotsPerChunk,
                                         alignof(Slot));
        chunks_.push_back(static_cast<Slot *>(mem));
    }
    ::new (&chunks_.back()[slot_count_ & kSlotChunkMask]) Slot();
    return slot_count_++;
}

void
EventQueue::popEmptyPanic()
{
    panic("EventQueue::pop on empty queue");
}

} // namespace diablo
