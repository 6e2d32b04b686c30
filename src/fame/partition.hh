#ifndef DIABLO_FAME_PARTITION_HH_
#define DIABLO_FAME_PARTITION_HH_

/**
 * @file
 * Partitioned conservative-parallel simulation engine.
 *
 * DIABLO distributes one simulation across many FPGAs, each running its
 * own simulation scheduler that "synchronizes with adjacent FPGAs over
 * the serial links at a fine granularity" (§3.2).  This is the software
 * analog: the model is split into partitions, each with its own event
 * queue, advancing in lockstep quanta no larger than the minimum
 * cross-partition link latency (the lookahead), so every remote event
 * is known before the quantum in which it fires.
 *
 * Determinism is preserved exactly: cross-partition messages are
 * delivered at each window end in fixed channel order and scheduled
 * with the destination queue's usual (time, priority, sequence)
 * ordering, so a parallel run produces *identical* results to the
 * sequential reference (see fame tests), mirroring DIABLO's repeatable
 * experiments across its multi-FPGA deployment.
 *
 * Quantum skipping: warehouse-scale workloads are bursty — activity
 * clusters (an incast burst, a memcached request wave) separated by long
 * idle stretches.  Synchronizing once per quantum through idle time is
 * pure synchronization tax (the dominant cost SimBricks identifies in
 * quantum-synchronized simulation).  At each window boundary the engine
 * therefore inspects the earliest pending event / in-flight message
 * across all partitions; if the next window would be empty it jumps the
 * clock forward to the window containing that event, snapped to the
 * quantum grid.  Because nothing can happen in the skipped windows (no
 * local events, and messages only originate from executing events), the
 * executed-event sequence — and thus every result — is bit-identical to
 * the unskipped run.  Both runSequential and runParallel apply the same
 * skip rule, so parallel ≡ sequential continues to hold exactly.
 *
 * Winning back the sync tax (the paper's whole point is that the
 * partitioned engine *accelerates* the model) takes stacked
 * mechanisms in runParallel:
 *
 *  1. **Partition fusion.**  P partitions are mapped onto
 *     `min(P, parallelism())` workers; each worker advances its fused
 *     set sequentially within a quantum.  The number of workers that
 *     synchronize matches host cores, not model racks, and with one
 *     worker the window end waits for nobody — near-runSequential
 *     cost.  The calling thread doubles as worker 0, so a run hands off
 *     to at most `workers-1` pool threads.  The fused sets come from
 *     lptAssign() over the setPartitionWeight() weights — the same
 *     deterministic rule that places partitions on processes.
 *  2. **Serial-free window end.**  No thread ever works alone: like
 *     DIABLO's per-FPGA schedulers (§3.2), every worker ends window k
 *     by publishing, in its own cacheline (WindowSlot), the window
 *     count, its lane's earliest pending time folded with the earliest
 *     message it posted, and the channels it posted to.  It then waits
 *     for every sibling's window-k publication, folds the same minima
 *     into the same next window, and delivers — in channel order —
 *     only the messages bound for partitions it owns.  Waiters spin
 *     (quanta are ~µs; a futex round trip costs more than most quanta)
 *     and park (parkUntil) only after a budget — which drops to zero
 *     when workers outnumber the run's CPUs, because spinning on a
 *     timeshared core just burns the scheduler quantum the other
 *     worker needs.  Channel buffers, dirty lists and slot fields are
 *     double-buffered by window parity, so a worker already posting in
 *     window k+1 never
 *     touches what a slower sibling still drains from window k; one
 *     window is as far as any worker can run ahead.
 *  3. **Workers on the CPUs the caller may use.**  A run's CPU set is
 *     the calling thread's affinity mask (allowedCpus(), so taskset,
 *     numactl and cpusets confine the engine), or an explicit
 *     setWorkerCpus() list.  Worker w is pinned to the w-th CPU of the
 *     set; a run with more workers than CPUs is oversubscribed and
 *     stays unpinned.  setWorkerPinning(false) disables pinning.
 *  4. **Per-worker lanes and arenas.**  All hot per-worker engine
 *     state — the publication slot, the next-event calendar, the dirty
 *     channel lists — lives in one cacheline-aligned WorkerLane whose
 *     scratch comes from a worker-local SlabArena, so no two workers'
 *     hot state ever shares a cacheline.  (Each partition's EventQueue
 *     slot pool is likewise arena-chunked, and a partition belongs to
 *     exactly one worker for the duration of a run.)
 *  5. **Next-event calendar.**  Each lane keeps a min-heap of (next
 *     event time, partition) over its fused set (PartitionCalendar).
 *     A window advances only the partitions queued before the bound
 *     and re-queues each at its new next event, so a quantum
 *     costs the partitions with work, not all P — a lane with nothing
 *     due publishes after one heap peek.  Each delivery lowers its
 *     destination in the delivering worker's own calendar, since the
 *     destination is one of that worker's partitions; run entry
 *     rebuilds every calendar, since events may be scheduled between
 *     runs.  The global window sequence is untouched, so results stay
 *     bit-identical.
 *  6. **Incremental window fold.**  A channel registers itself on its
 *     posting worker's dirty list on the first post of a window, and
 *     each post folds its time into the lane's posted minimum, so the
 *     window end reads one published minimum per worker instead of
 *     rescanning every partition and channel per ~µs window.
 *  7. **Allocation-free channel buffers.**  Per-channel message
 *     storage keeps its capacity across quanta, and posts carry the
 *     small-buffer-optimized EventFn, so steady-state cross-partition
 *     traffic touches no allocator.
 *
 * All three engines are one window loop (workerBody) and one drain:
 * runSequential is its 1-worker case, runParallel its
 * `min(P, parallelism())`-worker case, and runCoupled the 1-worker case
 * whose fold comes from the coupled exchange below.  A lone worker has
 * nobody to wait for.  The full scan survives only at run entry, which
 * also re-registers channel posts made outside a run on the new
 * fusion's lanes, and in nextPendingTime(), the engine tests' reference.
 *
 * **Cross-process coupling (runCoupled).**  A third engine spreads the
 * window loop over multiple *processes*, DIABLO's multi-FPGA scaling
 * axis mapped onto host processes connected by fame::Transport record
 * pipes (shared-memory rings between real processes; heap rings for
 * in-process tests).  Every process builds the full deterministic
 * model but advances only the partitions it owns; cross-process
 * channels carry opaque byte records (the wiring layer installs a
 * RecordDecoder per channel), and each window ends in one exchange:
 * every process publishes its earliest-pending contribution in its
 * shared-memory RankSlot and folds its peers' — the same fold the
 * other engines compute locally, so the window sequence, the drain
 * order (global channel index), and therefore every simulated result
 * are bit-identical to runSequential and runParallel.  A process whose
 * peers have already published the window free-runs straight through
 * the exchange (wait elision); it parks on a peer's doorbell only when
 * that peer is genuinely behind.
 */

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "core/arena.hh"
#include "core/simulator.hh"
#include "fame/calendar.hh"
#include "fame/transport.hh"

namespace diablo {
namespace fame {

/** A set of lockstep simulation partitions. */
class PartitionSet {
  public:
    /**
     * Synchronization quantum used when no channels exist.  Isolated
     * partitions have no lookahead constraint, so any positive quantum
     * is semantically valid; 1 ms keeps barrier overhead negligible
     * while bounding how far partitions drift from the horizon check.
     */
    static constexpr SimTime kNoChannelQuantum = SimTime::ms(1);

    /**
     * Materialize a received byte record into the delivery closure for
     * @p dst (the channel's destination partition).  The wiring layer
     * (net/sim) installs one per channel via setChannelDecoder; fame
     * itself never learns the payload format.  The returned EventFn is
     * scheduled exactly like a directly-posted closure, so local and
     * cross-process deliveries land at identical queue positions.
     */
    using RecordDecoder = std::function<EventFn(
        Simulator &dst, SimTime when, const void *bytes, uint32_t len)>;

    /** Unidirectional cross-partition message channel. */
    class Channel {
      public:
        /**
         * Deliver @p fn in the destination partition at absolute time
         * @p when.  Must be called from the source partition's events,
         * and @p when must respect the conservative contract
         * `when >= src.now() + minLatency()`, which guarantees the
         * message lands in a future quantum.  The contract is validated
         * here, at post time, against the source partition's clock — a
         * violation is a model-wiring bug (the advertised lookahead was
         * larger than the real one) and panics immediately with the
         * channel's name rather than surfacing later as an
         * unattributable drain-time failure or a silently late
         * delivery.
         *
         * The first post of a window registers the channel on the
         * posting worker's dirty list, so the destination's worker
         * drains only channels that actually carried traffic.  Message
         * storage keeps its capacity across quanta: steady-state posts
         * are allocation-free.
         */
        void post(SimTime when, EventFn fn);

        SimTime minLatency() const { return min_latency_; }
        const std::string &name() const { return name_; }

        /**
         * Stable flag the wiring layer branches on per delivery: true
         * while this channel's destination partition is owned by a
         * different process (set by enableCoupled, never changed
         * during a run).  Deliveries on such a channel must go through
         * PartitionSet::postRecord — closures cannot cross a process
         * boundary — and post() on one is fatal.  Always false for
         * uncoupled sets, so the in-process hot path stays one
         * predictable branch.
         */
        const bool *remoteOutgoingFlag() const { return &remote_out_; }

      private:
        friend class PartitionSet;

        struct Msg {
            SimTime when;
            EventFn fn;
        };

        /** Channel role relative to this process's owned partitions. */
        enum class Cls : uint8_t {
            Local,   ///< src and dst owned: today's in-process path
            Out,     ///< src owned, dst foreign: serialize outbound
            In,      ///< dst owned, src foreign: decode inbound
            Foreign, ///< neither owned: never carries traffic here
        };

        /** Conservative-contract check shared by post and postRecord. */
        void validatePost(SimTime when) const;

        PartitionSet *owner_ = nullptr;
        size_t src_ = 0;
        size_t dst_ = 0;
        uint32_t index_ = 0; ///< creation order == drain order
        SimTime min_latency_;
        std::string name_;
        /**
         * Messages by the posting worker's window parity: the source
         * fills one buffer while the destination's worker drains the
         * other.  Between runs, posts wait in the buffer of the source
         * lane's parity until run entry moves them to buffer 0.
         */
        std::vector<Msg> pending_[2];

        // Coupled-mode state (inert defaults for uncoupled sets).
        Cls cls_ = Cls::Local;
        bool remote_out_ = false;
        RecordDecoder decoder_;
        /**
         * Outbound records awaiting flush, already in wire layout
         * (WireMsgHdr + payload each), sent to the ring as they are.
         */
        std::vector<uint8_t> out_pending_;
        SimTime out_min_ = SimTime::max();
    };

    explicit PartitionSet(size_t n);
    ~PartitionSet();

    PartitionSet(const PartitionSet &) = delete;
    PartitionSet &operator=(const PartitionSet &) = delete;

    size_t size() const { return parts_.size(); }
    Simulator &partition(size_t i) { return *parts_[i]; }

    /**
     * Create a channel from partition @p src to @p dst whose messages
     * always arrive at least @p min_latency after they are posted.
     * The run quantum is the minimum such latency across all channels.
     * @p name appears in contract-violation diagnostics; when empty, a
     * "ch<i>(<src>-><dst>)" default is generated.
     */
    Channel &makeChannel(size_t src, size_t dst, SimTime min_latency,
                         std::string name = std::string());

    /**
     * Synchronization quantum (lookahead): the minimum channel latency,
     * kept current as makeChannel adds channels, or kNoChannelQuantum
     * while there are none.
     */
    SimTime quantum() const
    {
        return channels_.empty() ? kNoChannelQuantum : min_channel_latency_;
    }

    /**
     * Enable/disable empty-quantum skipping (default: enabled).  Only
     * wall-clock behaviour changes; simulated results are identical.
     * Disabling is useful for measuring raw barrier cost.
     */
    void setSkipIdleQuanta(bool skip) { skip_idle_ = skip; }

    /**
     * Cap the number of worker threads runParallel fuses partitions
     * onto: a run uses `min(size(), n)` workers (the calling thread is
     * worker 0, so at most n-1 pool threads run).  @p n == 0 restores
     * the default: one worker per CPU in the calling thread's affinity
     * mask (allowedCpus()), read at each run.  A request above the
     * partition count is clamped to it (extra workers could never own
     * a partition) with a one-time warning.  Simulated results are
     * identical for every setting — only the fusion changes.  Fatal if
     * called while a parallel run is live.
     */
    void setParallelism(size_t n);

    /** Resolved worker cap (allowedCpus().size() when unset). */
    size_t parallelism() const;

    /**
     * Relative load hint for partition @p i (default 1.0, must be
     * positive): fusion places partitions on workers, and a coupled
     * launcher on processes, with lptAssign() over these weights.  A
     * sharded cluster sets rack partitions ∝ servers and the switch
     * partition ∝ trunk fan-in.  Purely a balance hint; results never
     * depend on it.
     */
    void setPartitionWeight(size_t i, double w);

    /**
     * Worker that partition @p i was fused onto in the most recent run
     * (0 before any run): `lptAssign(partitionWeights(),
     * lastRunWorkers())[i]`.  Introspection for balance tooling and
     * the fusion tests; never affects results.
     */
    uint32_t workerOfPartition(size_t i) const { return worker_of_[i]; }

    /**
     * Enable/disable automatic worker-to-CPU pinning (default on).
     * When on, a multi-worker run whose CPU set — the calling thread's
     * affinity mask at run entry — holds at least as many CPUs as the
     * run has workers pins worker w to the w-th CPU of the set.
     * Oversubscribed runs (more workers than CPUs) are never pinned.
     * Disabling also drops a setWorkerCpus() list.  Purely a
     * wall-clock matter; results never depend on it.
     */
    void setWorkerPinning(bool enable);

    /**
     * Explicit worker-to-CPU map: worker @p i is pinned to cpus[i];
     * workers beyond the list run unpinned.  The list's distinct ids
     * are the run's CPU set in place of the caller's mask, so two
     * workers listed on one CPU are oversubscribed.  Every id must be
     * one the kernel lets the calling thread pin to (fatal otherwise —
     * a silent fallback would hide a stale pinning config from a
     * different machine); the check pins the caller to each id in turn
     * and then restores its mask, so an id outside the caller's
     * current mask but inside its cpuset is accepted.  Fatal while a
     * run is live.
     */
    void setWorkerCpus(std::vector<int> cpus);

    /**
     * CPU each worker of the most recent fusion was assigned to, -1
     * for unpinned; index w is worker w.  Feeds the run artifact's
     * engine section and the placement tests.
     */
    const std::vector<int> &lastRunWorkerCpus() const { return worker_cpu_; }

    /**
     * True when the last run had more than one worker and more workers
     * than CPUs in its CPU set (see setWorkerCpus/setWorkerPinning).
     */
    bool lastRunOversubscribed() const { return last_oversubscribed_; }

    /**
     * Advance all partitions to @p until on `min(size(), parallelism())`
     * fused workers, each ending every quantum by publishing its share
     * of the window fold and waiting (spin, then park) for its
     * siblings'.  The calling thread participates as worker 0; pool
     * threads are created on first use and reused across runs.  Not
     * re-entrant: calling it again (from an event, or from another
     * host thread) while a parallel run is live is fatal.
     */
    void runParallel(SimTime until);

    /**
     * Same semantics on the calling thread alone: the one-worker case
     * of the same window loop, with no pool and nobody to wait for.
     */
    void runSequential(SimTime until);

    // --- cross-process coupling -------------------------------------

    /**
     * Install the byte-record codec of a channel.  Required on every
     * channel whose destination partition this process owns but whose
     * source it does not (class In); also lets postRecord deliver
     * locally, which is how the bit-identity tests drive the record
     * path without any transport.
     */
    void setChannelDecoder(Channel &ch, RecordDecoder decoder);

    /**
     * Post one byte record on @p ch at absolute time @p when.  The
     * conservative contract is validated against the source clock with
     * the same diagnostic as Channel::post.  Destination owned by this
     * process: the decoder materializes the delivery immediately and
     * it joins pending_ like any closure post.  Destination foreign:
     * the bytes are buffered and flushed to the owning process at the
     * next window end.
     */
    void postRecord(Channel &ch, SimTime when, const void *bytes,
                    uint32_t len);

    /** Configuration of one process's view of a coupled group. */
    struct CoupledOptions {
        uint32_t self_rank = 0;
        /** Owning rank per partition; identical in every process. */
        std::vector<uint32_t> owner_of;
        /** Transport to every other rank appearing in owner_of. */
        std::vector<std::pair<uint32_t, Transport *>> peers;
    };

    /**
     * Enter coupled mode: classify every channel against the owner
     * map, flip the remote-outgoing flags the wiring layer branches
     * on, and record the peer transports.  Every In-class channel must
     * already have a decoder (fatal otherwise — a missing codec would
     * surface as silently-dropped traffic).  Call once, after all
     * channels and decoders are wired and before the first runCoupled.
     */
    void enableCoupled(const CoupledOptions &opts);

    bool coupled() const { return coupled_; }

    /** True when this process owns partition @p i (always true uncoupled). */
    bool partitionOwned(size_t i) const
    {
        return !coupled_ || owner_of_[i] == self_rank_;
    }

    /**
     * Advance the owned partitions to @p until in lockstep with every
     * peer process.  The window sequence — and every simulated result —
     * is bit-identical to runSequential over the whole model: each
     * window end publishes a slot whose contributions, folded across
     * the group, reconstruct the exact global earliest-pending time
     * the sequential engine scans for, and drains local + inbound
     * messages in global channel order.  Like runSequential, each call
     * rediscovers the window sequence from t=0 (an entry exchange
     * replaces the entry full scan), so interleaved drive loops stay
     * aligned.
     *
     * Returns false when the run was abandoned — a peer died or
     * aborted, or an interrupt arrived while a peer stayed silent —
     * after flagging every transport so the peers unwind too.  The
     * caller finalizes its artifact as interrupted; results of a
     * false return are incomplete and must not be reported as a run.
     */
    bool runCoupled(SimTime until);

    /** Transport-side counters of all runCoupled calls so far. */
    struct CoupledStats {
        /** Window ends published, one per peer. */
        uint64_t sync_sent = 0;
        /** Peer window ends folded in, one per peer. */
        uint64_t sync_recv = 0;
        uint64_t msgs_sent = 0;
        uint64_t msgs_recv = 0;
        /** Ring bytes: HELLO and MSG records. */
        uint64_t bytes_sent = 0;
        uint64_t bytes_recv = 0;
        /** Window ends where the peer had already published. */
        uint64_t waits_elided = 0;
        /** Window ends that had to spin/park for a peer. */
        uint64_t waits_blocked = 0;
    };

    const CoupledStats &coupledStats() const { return coupled_stats_; }

    /** Placement weights (setPartitionWeight) for lptAssign. */
    const std::vector<double> &partitionWeights() const { return weights_; }

    /**
     * Deterministic partition -> rank map: greedy LPT over @p weights
     * onto @p nprocs ranks (heaviest partition first, least-loaded
     * rank, ties to the lowest rank), relabeled in first-appearance
     * order so rank 0 owns partition 0.  The one placement rule: it
     * fuses partitions onto worker threads, and every process of a
     * coupled group — launcher and children — computes it
     * independently for the process ranks and must agree, which the
     * HELLO handshake's owner hash verifies.
     */
    static std::vector<uint32_t> lptAssign(
        const std::vector<double> &weights, uint32_t nprocs);

    /**
     * Cumulative windows executed (quanta) across every run of this
     * PartitionSet, for the scaling benchmark.  With skipping enabled,
     * empty windows are jumped over and not counted; the count is
     * identical between sequential and parallel runs.  A run adds its
     * windows when it returns.  Per-run deltas are available from
     * lastRunQuanta().
     */
    uint64_t quantaExecuted() const { return quanta_; }

    /** Cumulative executed events summed over all partitions. */
    uint64_t totalExecutedEvents() const;

    /**
     * Earliest pending local event or undelivered channel message over
     * every partition; SimTime::max() when nothing is pending anywhere.
     * A full scan, meant for between runs (a windowed drive loop
     * telling "idle for now" from "deadlocked") and as the engine
     * tests' reference.  It reads every partition's queue and channel
     * buffers, which workers write during a run: call it only from the
     * driving thread, never while a run is in progress.
     */
    SimTime nextPendingTime() const;

    // --- per-run statistics ---
    //
    // Every engine snapshots counters on entry and publishes deltas on
    // exit, so interleaved runSequential/runParallel calls on one
    // PartitionSet can be attributed individually.

    /** Quanta executed by the most recent run (either engine). */
    uint64_t lastRunQuanta() const { return last_run_quanta_; }

    /** Change in totalExecutedEvents() over the most recent run. */
    uint64_t lastRunTotalExecutedEvents() const { return last_run_events_; }

    /** Workers the most recent run fused the partitions onto. */
    size_t lastRunWorkers() const { return par_workers_; }

  private:
    /** One dirty-list entry: a channel and its destination's worker. */
    struct DirtyEntry {
        uint32_t channel;
        uint32_t worker;
    };

    /**
     * What a worker publishes at each window end, in one cacheline that
     * only its owner writes (siblings touch `parked` only to sleep).
     * The per-window fields are indexed by window parity: the owner
     * fills one side while a slower sibling may still read the other,
     * and no worker gets two windows ahead, because finishing window
     * k+1 waits for every sibling's window-k+1 publication.
     */
    struct alignas(64) WindowSlot {
        /** Windows published this run (a lone worker never counts). */
        std::atomic<uint32_t> published{0};
        /** Siblings parked on `published`. */
        std::atomic<uint32_t> parked{0};
        /** Entries of dirty[parity]. */
        uint32_t dirty_count[2] = {0, 0};
        /** Lane calendar top folded with the earliest post. */
        SimTime earliest[2];
        /** Channels posted to in the window (owner's arena). */
        DirtyEntry *dirty[2] = {nullptr, nullptr};
    };
    static_assert(sizeof(WindowSlot) == 64,
                  "a publication slot is exactly one cacheline");

    /** One drain() entry: a local channel or one inbound record. */
    struct DrainEntry {
        uint32_t channel;
        uint32_t peer; ///< index in peers_; kLocalDrain = pending_
        size_t off;    ///< record offset in the peer's ended batch

        bool
        operator<(const DrainEntry &o) const
        {
            return std::tie(channel, peer, off) <
                   std::tie(o.channel, o.peer, o.off);
        }
    };
    static constexpr uint32_t kLocalDrain = UINT32_MAX;

    /**
     * Per-worker engine lane: every piece of state one worker mutates
     * on the quantum hot path lives here, cacheline-aligned and padded
     * to a whole number of lines, so two workers' hot state never
     * shares a line.  Siblings read only `slot`, after its window
     * count; the rest is the owner's alone during a run.
     */
    struct alignas(64) WorkerLane {
        WindowSlot slot;
        /** Next-event calendar over the fused set's owned partitions. */
        PartitionCalendar calendar;
        /** Earliest `when` posted in the open window. */
        SimTime posted_min = SimTime::max();
        /** Parity of the open window: which buffers posts go to. */
        uint32_t parity = 0;
        /** Entries of slot.dirty[parity] so far. */
        uint32_t dirty_count = 0;
        uint32_t dirty_cap[2] = {0, 0};
        /** CPU this worker's thread is pinned to; -1 = unpinned. */
        int cpu = -1;
        /** Entries of this worker's drain (capacity reused). */
        std::vector<DrainEntry> drain_scratch;
        /** Worker-local scratch; nothing here is freed before the lane. */
        SlabArena arena;
    };
    static_assert(alignof(WorkerLane) == 64,
                  "lanes must start on a cacheline");
    static_assert(sizeof(WorkerLane) % 64 == 0,
                  "adjacent lanes must not share a cacheline");

    /** Lock pool_mu_ for a setter; fatal while a run is live. */
    std::lock_guard<std::mutex> lockIdle(const char *what);

    /**
     * Schedule one drained message into @p ch's destination (panicking
     * if it lands behind that partition's clock) and lower the
     * destination's calendar entry to @p when.
     */
    void deliver(const Channel &ch, SimTime when, EventFn &&fn);

    /**
     * Worker @p w's share of the window end: deliver, in (channel,
     * peer, record) order, the parity-@p p messages every lane posted
     * to @p w's partitions and, coupled, every peer's endedBatch.
     */
    void drain(size_t w, uint32_t p);

    /**
     * Start of the next window that can contain work given the
     * earliest pending time: @p t itself when work exists in [t, t+q);
     * otherwise @p earliest snapped down to the quantum grid, clamped
     * to [@p t, @p until].
     */
    static SimTime windowForEarliest(SimTime earliest, SimTime t,
                                     SimTime q, SimTime until);

    // --- next-event calendars ---

    /** Re-queue every owned partition in its lane (run entry). */
    void rebuildCalendars();

    /**
     * Advance the partitions of @p lane queued before @p bound, re-queue
     * each at its next event, and return the lane's earliest pending
     * time (the calendar top).
     */
    SimTime advanceLane(WorkerLane &lane, SimTime bound);

    // --- the window loop ---

    /**
     * The one run driver behind runSequential, runParallel and
     * runCoupled: fuse the partitions onto @p workers lanes, find the
     * first window with work (entry step), then run workerBody on every
     * worker until @p until.  @p entry names the public entry point in
     * diagnostics.  Returns false only when a coupled exchange
     * abandoned the run.
     */
    bool runWindows(SimTime until, size_t workers, const char *entry);

    /**
     * Run entry: reset every lane to window 0, register the channel
     * posts made outside a run on their source's lane, and return the
     * earliest pending time this process owns.
     */
    SimTime enterRun();

    /** Window loop of fused worker @p w (worker 0 = calling thread). */
    void workerBody(size_t w);

    /**
     * Worker @p w's end of the run's @p n-th window (n = 0: the coupled
     * entry step, whose lone worker publishes nothing to wait on):
     * publish @p lane_min with its posts, fold every worker's
     * publication (coupled: the slot exchange) into @p earliest, and
     * drain.  False when a coupled exchange gave up.
     */
    bool windowEnd(size_t w, uint32_t n, SimTime lane_min, SimTime bound,
                   SimTime *earliest);

    /**
     * Publish @p lane's @p n-th window with @p lane_min and open its
     * next window.
     */
    void publish(WorkerLane &lane, uint32_t n, SimTime lane_min) const;

    /** Forget @p lane's posts: its open window has none yet. */
    static void clearPosts(WorkerLane &lane);

    /** Wait (spin, then park) until @p slot has published @p n windows. */
    void awaitWindow(WindowSlot &slot, uint32_t n) const;

    /** Fuse partitions onto @p workers with lptAssign over weights_. */
    void assignPartitions(size_t workers);

    /**
     * Resolve worker -> CPU placement and oversubscription for a
     * @p workers fusion (see setWorkerPinning/setWorkerCpus).
     */
    void placeWorkers(size_t workers);

    /** Grow lanes_ to at least @p workers lanes (never shrinks). */
    void ensureLanes(size_t workers);

    /** @p ch got its first post of @p lane's open window. */
    void markChannelDirty(WorkerLane &lane, const Channel &ch);
    void growLaneDirty(WorkerLane &lane);

    void ensureWorkerPool(size_t pool_threads);
    /** Pool thread @p worker_id, spawned after generation @p seen. */
    void workerLoop(size_t worker_id, uint32_t seen);

    // --- coupled engine internals ---

    /** Inbound state of one peer process. */
    struct PeerState {
        uint32_t rank = 0;
        Transport *tr = nullptr;
        bool hello_seen = false;
        WireHello hello;

        /**
         * Inbound MSG records by the parity of the exchange they are
         * stamped with, back to back as each crossed the ring
         * (WireMsgHdr + payload), for drain() to decode in place.  A
         * peer runs at most one window ahead, so polling during
         * exchange n stages records of n and n + 1 only; the window
         * end drains and clears exactly exchange n's batch (capacity
         * kept).
         */
        std::vector<uint8_t> batch[2];
    };

    /**
     * Coupled entry step: HELLO once, then a window 0 end whose
     * exchange folds the group's earliest pending time into @p global
     * and whose drain delivers the posts held since the last run.
     */
    bool coupledEntry(SimTime *global);

    /**
     * Earliest future work this process knows about (contrib fold):
     * @p local, the owned partitions' earliest pending event and posted
     * message, folded with unflushed outbound records.
     */
    SimTime coupledContrib(SimTime local) const;

    /** Drain one peer's ring until empty, staging records by window. */
    void pollPeer(size_t pi);
    void pollAllPeers();

    /**
     * Push one wire record to peer @p pi; on a full ring, drain inbound
     * and ring this rank's doorbell, so a peer parked on it drains the
     * ring at once.
     */
    bool coupledSend(size_t pi, const void *bytes, uint32_t n);

    /** Serialize and send every out-dirty channel's buffered records. */
    bool flushOutgoing();

    /**
     * Wait until @p ready holds, parked on @p ps's doorbell and
     * draining inbound rings whenever the peer's ring holds records;
     * false when @p ps aborted or stayed silent past the wait budget.
     */
    bool awaitPeer(PeerState &ps, const std::function<bool()> &ready,
                   const char *what);

    /**
     * One window's exchange: flush outbound, publish this rank's slot,
     * wait for every peer's publication of the same exchange, fold its
     * contribution and stage its records (drain() delivers them).
     * @p global receives the group-wide earliest-pending fold.
     */
    bool coupledExchange(SimTime bound, SimTime contrib, SimTime *global);

    /** Peer @p ps's records of the exchange that just ended. */
    std::vector<uint8_t> &
    endedBatch(PeerState &ps) const
    {
        return ps.batch[(sync_seq_ - 1) & 1];
    }

    bool exchangeHello();
    void abandonCoupled();

    std::vector<std::unique_ptr<Simulator>> parts_;
    std::vector<std::unique_ptr<Channel>> channels_;
    std::vector<double> weights_;
    SimTime min_channel_latency_ = SimTime::max();
    bool skip_idle_ = true;
    uint64_t quanta_ = 0;
    size_t threads_ = 0; ///< setParallelism cap; 0 = one per allowed CPU

    // Per-run stat deltas (see accessors above).
    uint64_t last_run_quanta_ = 0;
    uint64_t last_run_events_ = 0;

    // Worker pool: min(P, parallelism()) - 1 pool threads (the caller
    // is worker 0), created on first use, grown on demand, reused for
    // every subsequent run and joined in the destructor.  A bump of
    // pool_generation_ hands a run (or the shutdown) to every pool
    // thread, and workers_running_ counts them back in; both hand off
    // through parkUntil, with the parked counts beside them.
    // pool_mu_ guards only run_active_ and the setters (lockIdle).
    std::vector<std::thread> pool_;
    std::mutex pool_mu_;
    std::atomic<uint32_t> pool_generation_{0};
    std::atomic<uint32_t> pool_parked_{0};
    std::atomic<uint32_t> workers_running_{0};
    std::atomic<uint32_t> caller_parked_{0};
    bool pool_shutdown_ = false;
    bool run_active_ = false;

    // Fusion state of the in-flight run.  Written before workers are
    // released (the generation bump) and only read during the run, except
    // the WorkerLanes, which each worker writes for itself; siblings
    // read a lane's slot after acquiring its window count.
    std::vector<std::vector<size_t>> worker_parts_; ///< worker -> fused set
    std::vector<uint32_t> worker_of_;               ///< partition -> worker
    std::unique_ptr<WorkerLane[]> lanes_; ///< per-worker hot state
    size_t lane_count_ = 0;               ///< allocated (never shrinks)
    size_t par_workers_ = 0;              ///< lanes of the last run

    // Worker placement (see setWorkerPinning/setWorkerCpus).
    enum class PinMode { Auto, Off, Explicit };
    PinMode pin_mode_ = PinMode::Auto;
    std::vector<int> pin_cpus_;   ///< Explicit worker -> cpu request
    std::vector<int> worker_cpu_; ///< resolved placement of last fusion
    bool last_oversubscribed_ = false;
    bool clamp_warned_ = false;

    // Window parameters of the in-flight run, written before workers
    // are released.  Every worker then walks the same window sequence
    // from run_t_ on its own.
    SimTime run_t_;
    SimTime par_until_;
    SimTime par_q_;
    uint32_t spin_budget_ = 0; ///< relaxations before a waiter parks
    bool run_ok_ = true; ///< false once a coupled exchange gave up

    // Coupled-mode state (inert for uncoupled sets).
    bool coupled_ = false;
    bool hello_done_ = false;
    bool coupled_abandoned_ = false;
    uint32_t self_rank_ = 0;
    std::vector<uint32_t> owner_of_;   ///< partition -> owning rank
    std::vector<PeerState> peers_;     ///< rank order, deterministic
    std::vector<uint32_t> peer_of_rank_; ///< rank -> index in peers_
    RankSlot *self_slot_ = nullptr;    ///< this rank's publication slot
    uint64_t sync_seq_ = 0;            ///< exchanges completed
    std::vector<uint32_t> out_dirty_;  ///< Out channels with buffered records
    std::vector<uint8_t> recv_scratch_;
    CoupledStats coupled_stats_;
};

} // namespace fame
} // namespace diablo

#endif // DIABLO_FAME_PARTITION_HH_
