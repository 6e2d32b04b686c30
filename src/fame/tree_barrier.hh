#ifndef DIABLO_FAME_TREE_BARRIER_HH_
#define DIABLO_FAME_TREE_BARRIER_HH_

/**
 * @file
 * Hierarchical (combining-tree) sense-reversing barrier.
 *
 * A flat barrier serializes every arrival on one cacheline: N workers
 * contend one atomic fetch_sub, and the release store invalidates the
 * line in N caches at once.  That is what capped the fused engine's
 * barrier round-trip at threads:2 — DIABLO's FPGA analog would be all
 * 36 FPGAs sharing one sync wire instead of the per-link handshakes of
 * §3.2.  This barrier arranges workers in a radix-4 tree: each worker
 * arrives at its leaf node (at most 4 workers per cacheline), the last
 * arriver of a node propagates one arrival to the parent, and the
 * overall winner runs the serial completion step at the root, then
 * releases the tree top-down by flipping each node's sense word — so
 * no line is ever touched by more than radix+1 threads.
 *
 * Round/sense protocol: callers pass the *target* sense value of the
 * current round (flip a local bit each call, starting at 1).  Waiting
 * for `sense == target` instead of `sense != previous` is what makes
 * overlapped rounds safe: a fast worker that races ahead and starts
 * waiting at an interior node for round k+1 cannot be released by the
 * round-k flip, because that flip sets the word to round k's target,
 * not k+1's.  The winner resets every node's arrival counter *before*
 * flipping any sense, so re-arrivals (which may climb to any interior
 * node) always find fresh counters.
 *
 * Waiters spin with bounded exponential backoff, then park on their
 * node's sense word (futex via std::atomic::wait).  The spin budget is
 * settable: when a run has more workers than it has CPUs the engine
 * drops the budget to zero, because spinning on a timeshared core just
 * burns the scheduler quantum the *other* worker needs (the measured
 * 40.8M -> 16k quanta/s collapse at threads:2 on one core).
 */

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>

namespace diablo {
namespace fame {

class TreeBarrier {
  public:
    static constexpr uint32_t kRadix = 4;

    /** Default spin budget, ~tens of µs on current x86 (several quanta). */
    static constexpr uint32_t kDefaultSpinBudget = 4096;

    /**
     * (Re)build the tree for @p participants workers and reset every
     * node to round 0 (all senses 0; the first round's target is 1).
     * Not thread-safe against concurrent arriveAndWait.
     */
    void
    init(uint32_t participants)
    {
        participants_ = participants;
        node_count_ = 0;
        // Level sizes bottom-up: ceil(n/4) until a single root remains.
        uint32_t level = participants ? (participants + kRadix - 1) / kRadix
                                      : 0;
        while (level > 1) {
            node_count_ += level;
            level = (level + kRadix - 1) / kRadix;
        }
        node_count_ += level; // the root (0 nodes for 0 participants)
        if (node_count_ > node_cap_) {
            nodes_ = std::make_unique<Node[]>(node_count_);
            node_cap_ = node_count_;
        }
        // Wire arities and parents level by level.
        uint32_t base = 0;
        uint32_t members = participants; // fan-in of the level being built
        while (base < node_count_) {
            uint32_t width = (members + kRadix - 1) / kRadix;
            for (uint32_t i = 0; i < width; ++i) {
                Node &n = nodes_[base + i];
                n.arity = std::min(kRadix, members - i * kRadix);
                n.parent = (width == 1) ? -1
                                        : (int32_t)(base + width + i / kRadix);
                n.pending.store(n.arity, std::memory_order_relaxed);
                n.sense.store(0, std::memory_order_relaxed);
                n.parked.store(0, std::memory_order_relaxed);
            }
            base += width;
            members = width;
        }
    }

    uint32_t participants() const { return participants_; }
    size_t nodeCount() const { return node_count_; }

    /**
     * Bound on busy-wait iterations before parking on the futex.  Zero
     * parks immediately (right when workers outnumber CPUs).
     */
    void setSpinBudget(uint32_t budget) { spin_budget_ = budget; }
    uint32_t spinBudget() const { return spin_budget_; }

    /** One node per cacheline; tests assert the padding contract. */
    static size_t nodeSize() { return sizeof(Node); }
    static size_t nodeAlignment() { return alignof(Node); }

    /**
     * Arrive as @p worker for the round whose post-release sense value
     * is @p target_sense (callers flip a local bit each round, first
     * round passes 1).  Exactly one caller — the last arrival at the
     * root — runs @p serial single-threaded while everyone else waits,
     * then releases the tree.  Returns true for that winner.
     */
    template <typename Serial>
    bool
    arriveAndWait(uint32_t worker, uint32_t target_sense, Serial &&serial)
    {
        uint32_t n = worker / kRadix; // leaf nodes occupy [0, ceil(N/4))
        for (;;) {
            Node &node = nodes_[n];
            // The acq_rel RMW chain up the tree makes every earlier
            // arrival's pre-barrier writes visible to the winner.
            if (node.pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
                if (node.parent < 0) {
                    serial();
                    release(target_sense);
                    return true;
                }
                n = (uint32_t)node.parent;
                continue;
            }
            waitOn(node, target_sense);
            return false;
        }
    }

  private:
    struct alignas(64) Node {
        std::atomic<uint32_t> pending{0};
        std::atomic<uint32_t> sense{0};
        std::atomic<uint32_t> parked{0};
        uint32_t arity = 0;
        int32_t parent = -1;
    };
    static_assert(sizeof(Node) == 64,
                  "one barrier node per cacheline, no false sharing");

    void
    waitOn(Node &node, uint32_t target)
    {
        uint32_t batch = 1;
        uint32_t spent = 0;
        while (node.sense.load(std::memory_order_acquire) != target) {
            if (spent >= spin_budget_) {
                node.parked.fetch_add(1, std::memory_order_seq_cst);
                for (;;) {
                    // seq_cst vs. the release store: either the
                    // releaser sees parked_ > 0 and notifies, or this
                    // load is ordered after its store and breaks out.
                    uint32_t s = node.sense.load(std::memory_order_seq_cst);
                    if (s == target)
                        break;
                    node.sense.wait(s, std::memory_order_seq_cst);
                }
                node.parked.fetch_sub(1, std::memory_order_relaxed);
                return;
            }
            for (uint32_t i = 0; i < batch; ++i)
                cpuRelax();
            spent += batch;
            if (batch < kMaxBatch)
                batch <<= 1;
        }
    }

    void
    release(uint32_t target)
    {
        // Reset every arrival counter before flipping any sense: a
        // released waiter may re-arrive — and climb to any interior
        // node — immediately.  The waiter's acquire of its node's
        // sense orders these resets before its next fetch_sub.
        for (size_t i = 0; i < node_count_; ++i) {
            nodes_[i].pending.store(nodes_[i].arity,
                                    std::memory_order_relaxed);
        }
        for (size_t i = 0; i < node_count_; ++i) {
            Node &node = nodes_[i];
            node.sense.store(target, std::memory_order_seq_cst);
            if (node.parked.load(std::memory_order_seq_cst) != 0)
                node.sense.notify_all();
        }
    }

    static void
    cpuRelax() noexcept
    {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#elif defined(__aarch64__)
        asm volatile("yield" ::: "memory");
#else
        std::this_thread::yield();
#endif
    }

    static constexpr uint32_t kMaxBatch = 64;

    std::unique_ptr<Node[]> nodes_;
    size_t node_count_ = 0;
    size_t node_cap_ = 0;
    uint32_t participants_ = 0;
    uint32_t spin_budget_ = kDefaultSpinBudget;
};

} // namespace fame
} // namespace diablo

#endif // DIABLO_FAME_TREE_BARRIER_HH_
