#ifndef DIABLO_FAME_CALENDAR_HH_
#define DIABLO_FAME_CALENDAR_HH_

/**
 * @file
 * Next-event calendar of one engine lane.
 *
 * An indexed binary min-heap of (queued time, partition) over the
 * partitions a lane owns.  Each window advances only the partitions
 * queued before the window bound, so a quantum costs O(active
 * partitions · log P) instead of a sweep over all P.  Entries compare by
 * time alone: the order among equal times is still a deterministic
 * function of the operation sequence, partitions are independent within
 * a window anyway, and idle partitions (all queued at "never") then stop
 * sifting at the first idle child instead of sorting among themselves.
 *
 * PartitionSet keeps the invariant that a partition's queued time is
 * never later than its next pending event, at three points: every run
 * entry rebuilds the calendar, a partition is re-queued at its next
 * event right after it runs, and every message a drain delivers lowers
 * its destination's time before the next window.  Only a partition's
 * own events touch its queue inside a run, so each queued time is in
 * fact exact, and once a window has been advanced the top is the
 * lane's earliest pending event.
 */

#include <cstdint>
#include <vector>

#include "core/log.hh"
#include "core/time.hh"

namespace diablo {
namespace fame {

class PartitionCalendar {
  public:
    /** Drop every entry; partition ids must stay below @p partitions. */
    void
    clear(size_t partitions)
    {
        heap_.clear();
        pos_.assign(partitions, kAbsent);
    }

    /** Earliest queued time; SimTime::max() when empty. */
    SimTime
    topTime() const
    {
        return heap_.empty() ? SimTime::max() : heap_.front().when;
    }

    /** Partition queued earliest (calendar must be non-empty). */
    uint32_t topPartition() const { return heap_.front().part; }

    /** Queue partition @p p, which must not be queued yet, at @p when. */
    void
    push(uint32_t p, SimTime when)
    {
        heap_.push_back(Entry{when, p});
        pos_[p] = static_cast<uint32_t>(heap_.size() - 1);
        siftUp(heap_.size() - 1);
    }

    /** Re-queue the top partition at @p when, no earlier than before. */
    void
    retimeTop(SimTime when)
    {
        heap_.front().when = when;
        siftDown(0);
    }

    /**
     * A message at @p when landed in partition @p p: move its queued
     * time up if that is earlier.  A partition this calendar does not
     * hold would never run, so delivering into one is fatal.
     */
    void
    lower(uint32_t p, SimTime when)
    {
        const uint32_t i = pos_[p];
        if (i == kAbsent) {
            panic("PartitionCalendar: message delivered into partition "
                  "%u, which no lane advances",
                  p);
        }
        if (when < heap_[i].when) {
            heap_[i].when = when;
            siftUp(i);
        }
    }

  private:
    static constexpr uint32_t kAbsent = UINT32_MAX;

    struct Entry {
        SimTime when;
        uint32_t part;

        bool before(const Entry &o) const { return when < o.when; }
    };

    void
    place(size_t i, const Entry &e)
    {
        heap_[i] = e;
        pos_[e.part] = static_cast<uint32_t>(i);
    }

    void
    siftUp(size_t i)
    {
        const Entry e = heap_[i];
        while (i > 0) {
            const size_t parent = (i - 1) / 2;
            if (!e.before(heap_[parent])) {
                break;
            }
            place(i, heap_[parent]);
            i = parent;
        }
        place(i, e);
    }

    void
    siftDown(size_t i)
    {
        const Entry e = heap_[i];
        const size_t n = heap_.size();
        for (;;) {
            size_t child = 2 * i + 1;
            if (child >= n) {
                break;
            }
            if (child + 1 < n && heap_[child + 1].before(heap_[child])) {
                ++child;
            }
            if (!heap_[child].before(e)) {
                break;
            }
            place(i, heap_[child]);
            i = child;
        }
        place(i, e);
    }

    std::vector<Entry> heap_;
    std::vector<uint32_t> pos_; ///< partition -> heap index, or kAbsent
};

} // namespace fame
} // namespace diablo

#endif // DIABLO_FAME_CALENDAR_HH_
