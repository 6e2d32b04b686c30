#include "core/event.hh"

#include "core/log.hh"

namespace diablo {

// Cold paths only — the schedule/cancel/pop hot path is inline in
// event.hh so the compiler can fuse it into the Simulator loop.

uint32_t
EventQueue::growSlots()
{
    // Payload encoding gives slots 31 bits (see HeapEntry).
    if (slot_count_ >= (uint32_t{1} << 31)) {
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
    panic("EventQueue::popNextInto on empty queue");
}

} // namespace diablo
