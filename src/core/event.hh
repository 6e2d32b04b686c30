#ifndef DIABLO_CORE_EVENT_HH_
#define DIABLO_CORE_EVENT_HH_

/**
 * @file
 * Deterministic discrete-event queue — the engine hot path.
 *
 * Events at equal timestamps are ordered by (priority, insertion sequence),
 * so a run is a pure function of the configuration and master seed — the
 * software analog of DIABLO's "repeatable deterministic experiments".
 *
 * Performance is the point: DIABLO exists because the per-event cost of a
 * software simulator bounds the achievable event rate (§3.2).  The queue is
 * therefore allocation-free on the schedule/execute path:
 *
 *  - Callbacks are stored in an InlineFunction, a small-buffer-optimized
 *    type-erased callable.  Captures up to kInlineSize bytes live inline
 *    in the queue's slot pool; only oversized captures fall back to the
 *    heap (and such call sites should be fixed, not tolerated).
 *  - Timestamps/ordering keys live in a 4-ary implicit heap of 24-byte
 *    POD entries (memcpy-relocated, cache-friendlier than a binary heap
 *    because sift-down touches 4 children per cache line-ish level).
 *  - Cancellation is O(1) and tombstone-based: an EventId names a slot in
 *    a freelist-managed pool plus the slot's generation at schedule time.
 *    cancel() destroys the callback and bumps the generation; the heap
 *    entry remains and is recognized as a tombstone (generation mismatch)
 *    when it reaches the top.  No side-table, no hashing.
 *  - The slot pool is chunked out of a queue-owned SlabArena: slots never
 *    relocate (growth allocates a fresh chunk instead of moving every
 *    live callback the way vector growth did), and the queue's hot state
 *    lives in memory owned by its partition — under the fused parallel
 *    engine each partition belongs to exactly one worker for a run, so
 *    no allocator or slot cacheline is shared across workers.
 */

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/arena.hh"
#include "core/time.hh"

namespace diablo {

/**
 * Small-buffer-optimized, move-only, type-erased `void()` callable.
 *
 * Callables whose size is <= kInlineSize, whose alignment fits
 * max_align_t, and whose move constructor is noexcept are stored inline —
 * no heap allocation.  Trivially-copyable callables (the common case: a
 * lambda capturing a few pointers/ints) relocate by memcpy with no
 * destructor bookkeeping at all.  Anything else falls back to a single
 * heap allocation, preserving correctness for rare fat captures.
 */
class InlineFunction {
  public:
    /**
     * Inline capture budget; covers `this` + several words of state.
     * Sized so the whole object is 56 bytes and an EventQueue slot
     * (object + generation/freelist word) is exactly one cache line.
     */
    static constexpr size_t kInlineSize = 40;

    InlineFunction() = default;

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::remove_cvref_t<F>, InlineFunction> &&
                  std::is_invocable_r_v<void, std::remove_cvref_t<F> &>>>
    InlineFunction(F &&f) // NOLINT: implicit by design, mirrors std::function
    {
        emplace(std::forward<F>(f));
    }

    /**
     * Construct a callable in place, destroying any current one.  The
     * EventQueue emplace path uses this to build the callback directly
     * in its pool slot — the lambda's capture is copied exactly once,
     * with no intermediate InlineFunction moves.
     */
    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::remove_cvref_t<F>, InlineFunction> &&
                  std::is_invocable_r_v<void, std::remove_cvref_t<F> &>>>
    void
    emplace(F &&f)
    {
        reset();
        using Fn = std::remove_cvref_t<F>;
        if constexpr (fitsInline<Fn>()) {
            ::new (static_cast<void *>(buf_)) Fn(std::forward<F>(f));
            ops_ = &kInlineOps<Fn>;
        } else {
            // Heap fallback: the buffer holds just an owning pointer, so
            // relocation stays a trivial memcpy; only destruction pays.
            Fn *p = new Fn(std::forward<F>(f));
            std::memcpy(buf_, &p, sizeof(p));
            ops_ = &kHeapOps<Fn>;
        }
    }

    InlineFunction(InlineFunction &&o) noexcept : ops_(o.ops_)
    {
        if (ops_) {
            moveBuffer(o);
        }
        o.ops_ = nullptr;
    }

    InlineFunction &
    operator=(InlineFunction &&o) noexcept
    {
        if (this != &o) {
            reset();
            ops_ = o.ops_;
            if (ops_) {
                moveBuffer(o);
            }
            o.ops_ = nullptr;
        }
        return *this;
    }

    InlineFunction(const InlineFunction &) = delete;
    InlineFunction &operator=(const InlineFunction &) = delete;

    ~InlineFunction() { reset(); }

    explicit operator bool() const noexcept { return ops_ != nullptr; }

    /**
     * True when a callable of type @p F is stored inline (no heap
     * allocation).  Hot paths that must stay allocation-free — e.g.
     * the cross-partition ChannelLink delivery closure posted once per
     * message — static_assert this so a capture growing past the SBO
     * budget is a compile error, not a silent per-message malloc.
     */
    template <typename F>
    static constexpr bool
    inlineable()
    {
        return fitsInline<std::remove_cvref_t<F>>();
    }

    /** Invoke; const like std::function::operator() (shallow const). */
    void
    operator()() const
    {
        ops_->invoke(const_cast<unsigned char *>(buf_));
    }

    /** Destroy the held callable (if any) and become empty. */
    void
    reset() noexcept
    {
        if (ops_ && ops_->destroy) {
            ops_->destroy(buf_);
        }
        ops_ = nullptr;
    }

  private:
    /**
     * Per-erased-type operation table; one static instance per callable
     * type, so a move copies a single pointer.  Null relocate means the
     * buffer is memcpy-relocatable; null destroy means trivially
     * destructible (the common case for small lambdas).
     */
    struct Ops {
        void (*invoke)(void *);
        void (*relocate)(void *dst, void *src);
        void (*destroy)(void *);
    };

    template <typename Fn>
    static constexpr bool
    fitsInline()
    {
        return sizeof(Fn) <= kInlineSize &&
               alignof(Fn) <= alignof(std::max_align_t) &&
               std::is_nothrow_move_constructible_v<Fn>;
    }

    template <typename Fn>
    static void
    invokeInline(void *b)
    {
        (*std::launder(reinterpret_cast<Fn *>(b)))();
    }

    template <typename Fn>
    static void
    relocateInline(void *dst, void *src)
    {
        Fn *s = std::launder(reinterpret_cast<Fn *>(src));
        ::new (dst) Fn(std::move(*s));
        s->~Fn();
    }

    template <typename Fn>
    static void
    destroyInline(void *b)
    {
        std::launder(reinterpret_cast<Fn *>(b))->~Fn();
    }

    template <typename Fn>
    static void
    invokeHeap(void *b)
    {
        Fn *p;
        std::memcpy(&p, b, sizeof(p));
        (*p)();
    }

    template <typename Fn>
    static void
    destroyHeap(void *b)
    {
        Fn *p;
        std::memcpy(&p, b, sizeof(p));
        delete p;
    }

    template <typename Fn>
    static constexpr bool kTrivialBuf =
        std::is_trivially_copyable_v<Fn> &&
        std::is_trivially_destructible_v<Fn>;

    template <typename Fn>
    static constexpr Ops kInlineOps{
        &invokeInline<Fn>,
        kTrivialBuf<Fn> ? nullptr : &relocateInline<Fn>,
        std::is_trivially_destructible_v<Fn> ? nullptr : &destroyInline<Fn>,
    };

    template <typename Fn>
    static constexpr Ops kHeapOps{&invokeHeap<Fn>, nullptr,
                                  &destroyHeap<Fn>};

    void
    moveBuffer(InlineFunction &o) noexcept
    {
        if (ops_->relocate) {
            ops_->relocate(buf_, o.buf_);
        } else {
            std::memcpy(buf_, o.buf_, kInlineSize);
        }
    }

    alignas(std::max_align_t) unsigned char buf_[kInlineSize];
    const Ops *ops_ = nullptr;
};

/** Callback invoked when an event fires. */
using EventFn = InlineFunction;

/**
 * Handle for cancelling a scheduled event.
 *
 * Names a slot in the queue's callback pool plus the slot's generation at
 * schedule time; once the event fires or is cancelled the generation no
 * longer matches and the id is inert (safe to cancel again, safe to keep).
 */
struct EventId {
    static constexpr uint32_t kInvalidSlot = 0xffffffffu;

    uint32_t slot = kInvalidSlot;
    uint32_t gen = 0;

    bool valid() const { return slot != kInvalidSlot; }
    void invalidate() { slot = kInvalidSlot; }
};

/** Priorities for same-timestamp ordering; lower runs first. */
namespace event_prio {
inline constexpr int8_t kTimer = -10;    ///< hardware/kernel timers
inline constexpr int8_t kDefault = 0;
inline constexpr int8_t kWakeup = 10;    ///< coroutine resumptions
} // namespace event_prio

/**
 * Min-heap of timestamped callbacks with O(1) lazy cancellation.
 *
 * schedule/popNextInto are allocation-free after warmup: heap entries and
 * callback slots are recycled through freelists and geometric vector
 * growth.  See the file comment for the layout.
 */
class EventQueue {
  public:
    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    ~EventQueue()
    {
        // Slots are placement-constructed in arena chunks; the arena
        // reclaims the bytes but cannot run the EventFn destructors.
        for (uint32_t i = 0; i < slot_count_; ++i) {
            slotRef(i).~Slot();
        }
    }

    /** Schedule @p fn at absolute time @p when. */
    EventId
    schedule(SimTime when, EventFn fn, int8_t prio = event_prio::kDefault)
    {
        const uint32_t slot = allocSlot();
        Slot &s = slotRef(slot);
        s.fn = std::move(fn);
        const uint64_t seq = next_seq_++;
        ++live_;
        heapPush(HeapEntry{when, packOrder(prio, seq),
                           callbackPayload(slot, s.gen)});
        return EventId{slot, s.gen};
    }

    /**
     * Emplace fast path: construct the callable directly in its pool
     * slot from @p f.  Saves two InlineFunction relocations versus
     * schedule() — the capture is copied once, straight into the slot —
     * which is measurable when the capture is a few words and the event
     * rate is the bottleneck (the common case; see microbench_engine).
     */
    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::remove_cvref_t<F>, EventFn>>>
    EventId
    scheduleEmplace(SimTime when, int8_t prio, F &&f)
    {
        const uint32_t slot = allocSlot();
        Slot &s = slotRef(slot);
        s.fn.emplace(std::forward<F>(f));
        const uint64_t seq = next_seq_++;
        ++live_;
        heapPush(HeapEntry{when, packOrder(prio, seq),
                           callbackPayload(slot, s.gen)});
        return EventId{slot, s.gen};
    }

    /**
     * Coroutine-wakeup fast path: schedule resumption of @p h at @p when.
     * The raw handle is stored directly in the heap entry — no callback
     * object, no slot allocation, no moves.  Wakeups are not cancellable
     * (nothing in the engine cancels a pending resumption), so the
     * returned id is always invalid.
     */
    EventId
    scheduleWakeup(SimTime when, std::coroutine_handle<> h,
                   int8_t prio = event_prio::kWakeup)
    {
        const uint64_t seq = next_seq_++;
        ++live_;
        heapPush(HeapEntry{when, packOrder(prio, seq),
                           wakeupPayload(h.address())});
        return EventId{};
    }

    /**
     * Cancel a previously scheduled event.  Safe to call for events that
     * have already fired or been cancelled (no effect).
     */
    void
    cancel(EventId id)
    {
        if (!id.valid() || id.slot >= slot_count_) {
            return;
        }
        Slot &s = slotRef(id.slot);
        if (s.gen != id.gen) {
            return; // already fired or cancelled
        }
        s.fn.reset();
        ++s.gen; // heap entry becomes a tombstone
        freeSlot(id.slot);
        --live_;
    }

    /** True when no *live* (non-cancelled) events remain. */
    bool empty() const { return live_ == 0; }
    size_t size() const { return live_; }

    /** Timestamp of the next live event; SimTime::max() when empty. */
    SimTime
    nextTime()
    {
        prune();
        if (heap_.empty()) {
            return SimTime::max();
        }
        return heap_[0].when;
    }

    /**
     * Pop the next live event.  Caller must check !empty().  Exactly one
     * of the two out-params is set: @p fn (callback event, moved out
     * once) or @p coro (wakeup, resumed directly by the caller).  The
     * event is executed by the caller (the Simulator), not the queue, so
     * partitioned engines can interpose.
     */
    SimTime
    popNextInto(EventFn &fn, std::coroutine_handle<> &coro)
    {
        prune();
        if (heap_.empty()) {
            popEmptyPanic();
        }
        const HeapEntry top = heap_[0];
        heapPopTop();
        --live_;
        if (isWakeup(top.payload)) {
            coro = std::coroutine_handle<>::from_address(
                wakeupAddr(top.payload));
            return top.when;
        }
        const uint32_t slot = payloadSlot(top.payload);
        Slot &s = slotRef(slot);
        fn = std::move(s.fn);
        ++s.gen; // late cancel() of this id is now a no-op
        freeSlot(slot);
        return top.when;
    }

    /**
     * Discard every pending event without running it.  Callback slots
     * are destroyed (releasing resources their captures own — queued
     * packet deliveries above all) and their generations bumped, so any
     * outstanding EventId is inert.  Wakeup entries are dropped with the
     * heap; their coroutine frames are owned elsewhere (Simulator
     * tasks_, kernel processes_) and reclaimed by their owners.
     * Teardown-only: not meant for mid-run use.
     */
    void
    clear()
    {
        heap_.clear();
        live_ = 0;
        free_head_ = EventId::kInvalidSlot;
        for (uint32_t i = 0; i < slot_count_; ++i) {
            Slot &s = slotRef(i);
            s.fn.reset();
            ++s.gen;
            s.next_free = free_head_;
            free_head_ = i;
        }
    }

  private:
    /**
     * POD heap entry (24 bytes): relocated by plain assignment during
     * sifts, so the heap never touches the (heavier) callback slots.
     * `order` packs (priority biased to unsigned, insertion sequence)
     * into one compare.
     *
     * `payload` is either a coroutine frame address (wakeup fast path)
     * or a callback pool reference.  Coroutine frames are at least
     * 8-byte aligned, so bit 0 is free to tag the variants:
     *   bit 0 == 1:  payload - 1 is the coroutine frame address
     *   bit 0 == 0:  payload = gen << 32 | slot << 1   (slot < 2^31)
     */
    struct HeapEntry {
        SimTime when;
        uint64_t order;
        uint64_t payload;
    };

    static uint64_t
    callbackPayload(uint32_t slot, uint32_t gen)
    {
        return (static_cast<uint64_t>(gen) << 32) |
               (static_cast<uint64_t>(slot) << 1);
    }

    static uint64_t
    wakeupPayload(void *coro)
    {
        return reinterpret_cast<uintptr_t>(coro) | 1u;
    }

    static bool isWakeup(uint64_t payload) { return payload & 1; }

    static void *
    wakeupAddr(uint64_t payload)
    {
        return reinterpret_cast<void *>(
            static_cast<uintptr_t>(payload & ~uint64_t{1}));
    }

    static uint32_t
    payloadSlot(uint64_t payload)
    {
        return static_cast<uint32_t>((payload >> 1) & 0x7fffffffu);
    }

    static uint32_t
    payloadGen(uint64_t payload)
    {
        return static_cast<uint32_t>(payload >> 32);
    }

    struct Slot {
        EventFn fn;
        uint32_t gen = 0;
        uint32_t next_free = EventId::kInvalidSlot;
    };
    static_assert(sizeof(Slot) == 64,
                  "a callback slot is exactly one cache line");

    /**
     * Slot storage is chunked: fixed-size runs of slots placed in the
     * queue-owned arena, addressed chunk-then-offset by shift/mask.
     * Chunks never move, so a Slot's address — and the EventFn inside
     * it — is stable for the queue's lifetime; growing the pool costs
     * one arena allocation instead of relocating every live callback.
     */
    static constexpr uint32_t kSlotChunkShift = 8; // 256 slots, 16 KiB
    static constexpr uint32_t kSlotsPerChunk = 1u << kSlotChunkShift;
    static constexpr uint32_t kSlotChunkMask = kSlotsPerChunk - 1;

    Slot &
    slotRef(uint32_t slot)
    {
        return chunks_[slot >> kSlotChunkShift][slot & kSlotChunkMask];
    }

    const Slot &
    slotRef(uint32_t slot) const
    {
        return chunks_[slot >> kSlotChunkShift][slot & kSlotChunkMask];
    }

    static uint64_t
    packOrder(int8_t prio, uint64_t seq)
    {
        // 8 bits of biased priority above 56 bits of sequence: a single
        // uint64 compare reproduces (prio, seq) lexicographic order.
        return (static_cast<uint64_t>(static_cast<uint8_t>(prio) ^ 0x80u)
                << 56) |
               (seq & ((uint64_t{1} << 56) - 1));
    }

    static bool
    before(const HeapEntry &a, const HeapEntry &b)
    {
        if (a.when != b.when) {
            return a.when < b.when;
        }
        return a.order < b.order;
    }

    bool
    isTombstone(const HeapEntry &e) const
    {
        // Wakeup entries are never cancelled.
        return !isWakeup(e.payload) &&
               slotRef(payloadSlot(e.payload)).gen != payloadGen(e.payload);
    }

    uint32_t
    allocSlot()
    {
        if (free_head_ != EventId::kInvalidSlot) {
            const uint32_t s = free_head_;
            free_head_ = slotRef(s).next_free;
            return s;
        }
        return growSlots();
    }

    void
    freeSlot(uint32_t slot)
    {
        slotRef(slot).next_free = free_head_;
        free_head_ = slot;
    }

    /**
     * Hole-based sift-up: one assignment per level instead of a swap.
     */
    void
    heapPush(HeapEntry e)
    {
        size_t i = heap_.size();
        const size_t leaf = i;
        heap_.push_back(e);
        while (i > 0) {
            const size_t parent = (i - 1) >> 2;
            if (!before(e, heap_[parent])) {
                break;
            }
            heap_[i] = heap_[parent];
            i = parent;
        }
        if (i != leaf) {
            heap_[i] = e;
        }
    }

    void
    heapPopTop()
    {
        const HeapEntry last = heap_.back();
        heap_.pop_back();
        const size_t n = heap_.size();
        if (n == 0) {
            return;
        }
        size_t i = 0;
        for (;;) {
            const size_t first = 4 * i + 1;
            if (first >= n) {
                break;
            }
            size_t best = first;
            const size_t end = first + 4 < n ? first + 4 : n;
            for (size_t c = first + 1; c < end; ++c) {
                if (before(heap_[c], heap_[best])) {
                    best = c;
                }
            }
            if (!before(heap_[best], last)) {
                break;
            }
            heap_[i] = heap_[best];
            i = best;
        }
        heap_[i] = last;
    }

    /** Drop cancelled entries from the top of the heap. */
    void
    prune()
    {
        while (!heap_.empty() && isTombstone(heap_[0])) {
            heapPopTop();
        }
    }

    /** Cold paths kept out of line. */
    uint32_t growSlots();
    [[noreturn]] void popEmptyPanic();

    std::vector<HeapEntry> heap_;    ///< 4-ary implicit min-heap
    std::vector<Slot *> chunks_;     ///< arena-backed slot chunks
    uint32_t slot_count_ = 0;        ///< constructed slots
    uint32_t free_head_ = EventId::kInvalidSlot;
    uint64_t next_seq_ = 0;
    size_t live_ = 0;
    SlabArena slot_arena_; ///< owns the chunk storage (stable addresses)
};

} // namespace diablo

#endif // DIABLO_CORE_EVENT_HH_
