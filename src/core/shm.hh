#ifndef DIABLO_CORE_SHM_HH_
#define DIABLO_CORE_SHM_HH_

/**
 * @file
 * Shared-memory primitives for the cross-process engine.
 *
 * DIABLO couples FPGAs over dedicated serial transceivers (§3.2); the
 * multi-process software engine couples simulator processes over a
 * mmap'd file instead.  This header holds the process-agnostic pieces:
 *
 *  - ShmSegment: a file-backed MAP_SHARED mapping, created by the
 *    launcher before it forks the engine processes, which inherit it.
 *  - sharedFutexWait/Wake: park/wake on a 32-bit word that lives in
 *    shared memory.  std::atomic::wait cannot be used across processes
 *    (libstdc++ parks on process-private futexes / proxy tables), so
 *    these call futex(2) without FUTEX_PRIVATE_FLAG.
 *  - parkUntil/wakeParked: the one way the engine blocks.  A waiter
 *    spins briefly, then counts itself parked and futex-parks; a waker
 *    makes the wake syscall only when that count says someone sleeps.
 *    The window barrier, the worker pool, the group epoch and the rings
 *    all wait through it, within a process or across processes alike.
 *  - SpscRecordRing: a cacheline-padded single-producer single-consumer
 *    byte ring carrying length-prefixed records; a fame::Transport is
 *    one pair of them.  Producer and consumer may be in different
 *    processes; each side parks on the other side's position word.
 *
 * Everything here is position-independent: the ring object is its own
 * shared-memory header (placement-initialized into the segment), and
 * all internal state is offsets, never pointers.
 */

#include <atomic>
#include <cstdint>
#include <string>

namespace diablo {

/**
 * Park the calling thread until the value at @p word changes from
 * @p expected, another process calls sharedFutexWake on it, or
 * @p timeout_ns elapses (<= 0 waits indefinitely).  Spurious returns
 * are allowed.  parkUntil is its one caller.
 */
void sharedFutexWait(std::atomic<uint32_t> *word, uint32_t expected,
                     int64_t timeout_ns);

/** Wake every waiter parked on @p word, across processes. */
void sharedFutexWake(std::atomic<uint32_t> *word);

/** One spin-wait pause: a hint to the core, not a yield to the OS. */
inline void
cpuRelax() noexcept
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield" ::: "memory");
#endif
}

/**
 * Wait until @p done(value of @p word) holds: re-read @p word for up to
 * @p spins pauses, then count the caller in @p parked, re-read, and
 * futex-park on @p word.  A @p timeout_ns > 0 bounds the wait to one
 * park and returns false if @p done still fails after it; <= 0 parks
 * until @p done holds.  @p done may read other state too, but only a
 * change of @p word is sure to end a park at once: a change elsewhere
 * that races the park is seen after the timeout.
 *
 * Missed wakeups are impossible by a Dekker pairing.  The waker stores
 * to @p word (seq_cst) and then reads @p parked (seq_cst, wakeParked);
 * the waiter increments @p parked (seq_cst) and then re-reads @p word
 * (seq_cst).  In the single total order one of the two reads comes
 * last: either the waker sees the count and wakes, or the waiter sees
 * the new value and never sleeps (and a store that lands between the
 * re-read and the park makes futex(2) return at once, because the word
 * no longer holds the value the waiter saw).
 */
template <typename Done>
bool
parkUntil(std::atomic<uint32_t> &word, Done &&done,
          std::atomic<uint32_t> &parked, uint32_t spins, int64_t timeout_ns)
{
    for (uint32_t i = 0; i < spins; ++i) {
        if (done(word.load(std::memory_order_acquire))) {
            return true;
        }
        cpuRelax();
    }
    parked.fetch_add(1, std::memory_order_seq_cst);
    uint32_t seen = word.load(std::memory_order_seq_cst);
    bool ok = done(seen);
    while (!ok) {
        sharedFutexWait(&word, seen, timeout_ns);
        seen = word.load(std::memory_order_seq_cst);
        ok = done(seen);
        if (timeout_ns > 0) {
            break; // one bounded park; the caller loops
        }
    }
    parked.fetch_sub(1, std::memory_order_relaxed);
    return ok;
}

/**
 * The waker's half of parkUntil: after a seq_cst store to @p word, wake
 * its waiters if @p parked counts any.  The common case, nobody asleep,
 * costs one load and no syscall.
 */
void wakeParked(std::atomic<uint32_t> &word, std::atomic<uint32_t> &parked);

/**
 * A file-backed shared mapping.  The launcher create()s it sized for
 * the process group's rings and unlinkFile()s it at once: the mapping
 * survives the unlink, every forked rank inherits it, and a crash
 * leaves no file behind.  Movable, not copyable; the destructor unmaps.
 */
class ShmSegment {
  public:
    ShmSegment() = default;
    ~ShmSegment();

    ShmSegment(ShmSegment &&o) noexcept;
    ShmSegment &operator=(ShmSegment &&o) noexcept;
    ShmSegment(const ShmSegment &) = delete;
    ShmSegment &operator=(const ShmSegment &) = delete;

    /** Create the backing file (must not exist), size it, map it. */
    static ShmSegment create(const std::string &path, size_t bytes);

    /** Remove the backing file; the mapping stays valid. */
    void unlinkFile();

    bool valid() const { return mem_ != nullptr; }
    void *data() const { return mem_; }

  private:
    void *mem_ = nullptr;
    size_t bytes_ = 0;
    std::string path_;
};

/**
 * Lock-free SPSC ring of length-prefixed records over caller-provided
 * memory (shared or heap).  The object itself is the shared header —
 * exactly kHeaderBytes of atomics and padding, with the data area
 * following it in the same allocation — so one side init()s it in
 * place and the other attach()es to the same address range.
 *
 * Positions are free-running uint32 byte counters (capacity is a power
 * of two well below 4 GiB, so wraparound arithmetic is exact), and a
 * record may wrap the data area byte-wise; push/pop copy through the
 * modulo helpers.  Producer and consumer each own one position word
 * and park on the *other* side's word through parkUntil when they must
 * wait; each side's parked count sits beside the word it parks on.
 */
class SpscRecordRing {
  public:
    /** Header size: head line, tail line, shared flags line. */
    static constexpr size_t kHeaderBytes = 192;

    /** Largest record push/pop will carry (sanity bound, not a tune). */
    static constexpr uint32_t kMaxRecordBytes = 1u << 16;

    /** Bytes of memory a ring with @p capacity data bytes needs. */
    static size_t footprint(uint32_t capacity);

    /**
     * Placement-initialize a ring over @p mem (>= footprint(capacity)
     * bytes, 64-byte aligned).  @p capacity must be a power of two of
     * at least 4 KiB.  Fatal on a bad capacity or alignment.
     */
    static SpscRecordRing *init(void *mem, uint32_t capacity);

    /** View a ring another process already init()ed at @p mem. */
    static SpscRecordRing *attach(void *mem);

    uint32_t capacity() const { return capacity_; }

    /** Bytes currently buffered (records + their length prefixes). */
    uint32_t bytesUsed() const;

    bool empty() const { return bytesUsed() == 0; }

    /**
     * Enqueue one record.  Returns false when the ring lacks space
     * (caller drains its own inbound rings and retries — see
     * fame::PartitionSet::runCoupled for why that never deadlocks).
     * Fatal if the record alone exceeds the ring or kMaxRecordBytes.
     */
    bool tryPush(const void *p, uint32_t n);

    /**
     * Dequeue one record into @p out (>= @p cap bytes); returns its
     * length, or 0 when the ring is empty.  Fatal if the record does
     * not fit @p cap — record sizes are bounded by protocol, so a
     * too-small buffer is a caller bug, not a runtime condition.
     */
    uint32_t tryPop(void *out, uint32_t cap);

    /**
     * Consumer-side park: spin up to @p spin_budget relaxations, then
     * futex-park on the tail word for at most @p timeout_ns.  Returns
     * true when data is available; an abort ends the wait too.  Callers
     * loop, re-checking abort and interrupt conditions between calls.
     */
    bool waitForData(uint32_t spin_budget, int64_t timeout_ns);

    /** Producer-side park: wait for @p bytes of space (as tryPush). */
    bool waitForSpace(uint32_t bytes, uint32_t spin_budget,
                      int64_t timeout_ns);

    /**
     * Mark the ring dead (peer crash / abandoned run) and wake both
     * sides.  Sticky; push/pop keep working so a draining peer can
     * still empty the ring.
     */
    void setAborted();
    bool aborted() const
    {
        return aborted_.load(std::memory_order_acquire) != 0;
    }

  private:
    SpscRecordRing() = default;

    uint8_t *dataArea()
    {
        return reinterpret_cast<uint8_t *>(this) + kHeaderBytes;
    }
    const uint8_t *dataArea() const
    {
        return reinterpret_cast<const uint8_t *>(this) + kHeaderBytes;
    }

    void copyIn(uint32_t pos, const void *src, uint32_t n);
    void copyOut(uint32_t pos, void *dst, uint32_t n) const;

    static constexpr uint32_t kMagic = 0x44424C52; // "DBLR"

    // Line 0: consumer-owned position (producer reads and parks on it).
    alignas(64) std::atomic<uint32_t> head_{0};
    std::atomic<uint32_t> producer_parked_{0};
    // Line 1: producer-owned position (consumer reads and parks on it).
    alignas(64) std::atomic<uint32_t> tail_{0};
    std::atomic<uint32_t> consumer_parked_{0};
    // Line 2: shared, rarely written.
    alignas(64) std::atomic<uint32_t> aborted_{0};
    uint32_t capacity_ = 0;
    uint32_t magic_ = 0;
};

static_assert(sizeof(SpscRecordRing) == SpscRecordRing::kHeaderBytes,
              "ring header must match its advertised shared layout");

} // namespace diablo

#endif // DIABLO_CORE_SHM_HH_
