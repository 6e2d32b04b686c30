#include "fame/partition.hh"

#include <algorithm>
#include <cstring>

#include <sched.h>

#include "core/cpu_topology.hh"
#include "core/interrupt.hh"
#include "core/log.hh"
#include "core/shm.hh"

namespace diablo {
namespace fame {

void
PartitionSet::Channel::validatePost(SimTime when) const
{
    // Conservative contract, checked at the source: a post below
    // now + min_latency means the wiring advertised more lookahead than
    // the model really has.  Catch it here, where the offending channel
    // and times are known, instead of as a drain-time causality panic
    // (or worse, a message landing exactly on the destination clock and
    // silently executing one quantum late).  Shared by post and
    // postRecord so the in-process and cross-process paths fail with
    // one diagnostic.
    const SimTime now = owner_->parts_[src_]->now();
    if (when < now + min_latency_) {
        panic("PartitionSet: channel %s: post(when=%s) violates "
              "conservative contract: src partition %zu clock %s + "
              "min latency %s (causality violation)",
              name_.c_str(), when.str().c_str(), src_,
              now.str().c_str(), min_latency_.str().c_str());
    }
}

void
PartitionSet::Channel::post(SimTime when, EventFn fn)
{
    validatePost(when);
    if (remote_out_) {
        panic("PartitionSet: channel %s: closure post on a channel whose "
              "destination partition is owned by another process (the "
              "wiring layer must use the record path)",
              name_.c_str());
    }
    // Posts run in source-partition events, so exactly one worker —
    // the one the source partition is fused onto — ever posts on this
    // channel (and touches this lane) within a window.
    WorkerLane &lane = owner_->lanes_[owner_->worker_of_[src_]];
    std::vector<Msg> &buf = pending_[lane.parity];
    if (buf.empty()) {
        owner_->markChannelDirty(lane, *this); // first post this window
    }
    lane.posted_min = std::min(lane.posted_min, when);
    buf.push_back(Msg{when, std::move(fn)});
}

void
PartitionSet::markChannelDirty(WorkerLane &lane, const Channel &ch)
{
    if (lane.dirty_count == lane.dirty_cap[lane.parity]) {
        growLaneDirty(lane);
    }
    lane.slot.dirty[lane.parity][lane.dirty_count++] =
        DirtyEntry{ch.index_, worker_of_[ch.dst_]};
}

void
PartitionSet::growLaneDirty(WorkerLane &lane)
{
    // Worst case every channel goes dirty in one window, so sizing to
    // the channel count makes growth a once-per-topology event.  The
    // old storage is abandoned inside the lane's arena (bytes, not
    // allocations, are the cost, and only on growth).  Only the open
    // parity's list moves, and no sibling reads that one until this
    // window is published.
    const uint32_t p = lane.parity;
    const uint32_t cap =
        std::max({lane.dirty_cap[p] * 2,
                  static_cast<uint32_t>(channels_.size()), 8u});
    auto *fresh = static_cast<DirtyEntry *>(
        lane.arena.allocate(cap * sizeof(DirtyEntry), alignof(DirtyEntry)));
    if (lane.dirty_count != 0) {
        std::memcpy(fresh, lane.slot.dirty[p],
                    lane.dirty_count * sizeof(DirtyEntry));
    }
    lane.slot.dirty[p] = fresh;
    lane.dirty_cap[p] = cap;
}

PartitionSet::PartitionSet(size_t n)
{
    if (n == 0) {
        fatal("PartitionSet: need at least one partition");
    }
    parts_.reserve(n);
    for (size_t i = 0; i < n; ++i) {
        parts_.push_back(std::make_unique<Simulator>());
    }
    weights_.assign(n, 1.0);
    // A valid 1-worker fusion exists from birth, so Channel::post finds
    // a lane even before the first run sets up its own fusion.
    assignPartitions(1);
}

void
PartitionSet::ensureLanes(size_t workers)
{
    if (workers <= lane_count_) {
        return;
    }
    // Lanes are rebuilt wholesale: run entry rebuilds every calendar
    // and re-registers the channel posts made since the last run, so
    // nothing in the old lanes is worth migrating.
    lanes_ = std::make_unique<WorkerLane[]>(workers);
    lane_count_ = workers;
}

PartitionSet::~PartitionSet()
{
    // Like a run's parameters, the flag is written before the bump.
    pool_shutdown_ = true;
    pool_generation_.fetch_add(1, std::memory_order_seq_cst);
    wakeParked(pool_generation_, pool_parked_);
    for (auto &w : pool_) {
        w.join();
    }
    // Drain every queue before any Simulator is destroyed: a pending
    // cross-partition delivery in partition i's queue can own a packet
    // whose recycling pool is attached to partition j, so no queue may
    // still hold packets once the first pool dies.  (channels_ is
    // declared after parts_ and already destructs first, covering
    // messages still buffered in flight.)
    for (auto &p : parts_) {
        p->discardPendingEvents();
    }
}

PartitionSet::Channel &
PartitionSet::makeChannel(size_t src, size_t dst, SimTime min_latency,
                          std::string name)
{
    if (src >= parts_.size() || dst >= parts_.size()) {
        fatal("PartitionSet: channel endpoints out of range");
    }
    if (coupled_) {
        fatal("PartitionSet: makeChannel after enableCoupled (channel "
              "classification is fixed at coupling time)");
    }
    if (min_latency <= SimTime()) {
        fatal("PartitionSet: channel latency must be positive "
              "(conservative lookahead)");
    }
    auto ch = std::make_unique<Channel>();
    ch->owner_ = this;
    ch->src_ = src;
    ch->dst_ = dst;
    ch->index_ = static_cast<uint32_t>(channels_.size());
    ch->min_latency_ = min_latency;
    ch->name_ = name.empty()
                    ? strprintf("ch%zu(%zu->%zu)", channels_.size(), src,
                                dst)
                    : std::move(name);
    min_channel_latency_ = std::min(min_channel_latency_, min_latency);
    channels_.push_back(std::move(ch));
    return *channels_.back();
}

std::lock_guard<std::mutex>
PartitionSet::lockIdle(const char *what)
{
    pool_mu_.lock();
    if (run_active_) {
        fatal("PartitionSet: %s while a parallel run is live", what);
    }
    return std::lock_guard<std::mutex>(pool_mu_, std::adopt_lock);
}

void
PartitionSet::setParallelism(size_t n)
{
    const std::lock_guard<std::mutex> lk = lockIdle("setParallelism");
    if (n > parts_.size()) {
        // Extra workers could never own a partition; accepting the
        // request silently used to make parallelism() lie to tooling.
        if (!clamp_warned_) {
            log::warn("PartitionSet: parallelism %zu exceeds partition "
                      "count %zu; clamping to %zu",
                      n, parts_.size(), parts_.size());
            clamp_warned_ = true;
        }
        n = parts_.size();
    }
    threads_ = n;
}

void
PartitionSet::setWorkerPinning(bool enable)
{
    const std::lock_guard<std::mutex> lk = lockIdle("setWorkerPinning");
    pin_mode_ = enable ? PinMode::Auto : PinMode::Off;
    pin_cpus_.clear();
}

void
PartitionSet::setWorkerCpus(std::vector<int> cpus)
{
    const std::lock_guard<std::mutex> lk = lockIdle("setWorkerCpus");
    // Ask the kernel, not the caller's mask: a caller pinned to one CPU
    // may still hand its workers the other CPUs of its cpuset.
    const SavedAffinity home = saveCurrentThreadAffinity();
    for (int c : cpus) {
        if (!pinCurrentThreadToCpu(c)) {
            fatal("PartitionSet: setWorkerCpus: the kernel refuses to pin "
                  "a thread to cpu %d",
                  c);
        }
    }
    restoreCurrentThreadAffinity(home);
    pin_cpus_ = std::move(cpus);
    pin_mode_ = PinMode::Explicit;
}

size_t
PartitionSet::parallelism() const
{
    return threads_ != 0 ? threads_ : allowedCpus().size();
}

void
PartitionSet::setPartitionWeight(size_t i, double w)
{
    if (i >= parts_.size()) {
        fatal("PartitionSet: setPartitionWeight(%zu): out of range", i);
    }
    if (!(w > 0.0)) {
        fatal("PartitionSet: partition weight must be positive");
    }
    weights_[i] = w;
}

void
PartitionSet::assignPartitions(size_t workers)
{
    // The placement rule process ranks use too.  Results never depend
    // on the assignment; only wall-clock does.
    worker_of_ = lptAssign(weights_, static_cast<uint32_t>(workers));
    worker_parts_.resize(workers);
    for (auto &wp : worker_parts_) {
        wp.clear();
    }
    for (size_t p = 0; p < parts_.size(); ++p) {
        worker_parts_[worker_of_[p]].push_back(p);
    }
    ensureLanes(workers);
    placeWorkers(workers);
}

void
PartitionSet::placeWorkers(size_t workers)
{
    // The run's CPU set is the explicit list, else the calling thread's
    // affinity mask; worker w takes its w-th CPU.  A solo run has
    // nobody to wait for, so it needs no mask.
    worker_cpu_.assign(workers, -1);
    size_t cpus = workers;
    if (pin_mode_ == PinMode::Explicit) {
        std::copy_n(pin_cpus_.begin(), std::min(workers, pin_cpus_.size()),
                    worker_cpu_.begin());
        std::vector<int> distinct = pin_cpus_;
        std::sort(distinct.begin(), distinct.end());
        cpus = std::unique(distinct.begin(), distinct.end()) -
               distinct.begin();
    } else if (workers > 1) {
        const std::vector<int> allowed = allowedCpus();
        cpus = allowed.size();
        if (pin_mode_ == PinMode::Auto && workers <= cpus) {
            std::copy_n(allowed.begin(), workers, worker_cpu_.begin());
        }
    }
    last_oversubscribed_ = workers > 1 && workers > cpus;
    for (size_t w = 0; w < workers; ++w) {
        lanes_[w].cpu = worker_cpu_[w];
    }
}

inline void
PartitionSet::deliver(const Channel &ch, SimTime when, EventFn &&fn)
{
    Simulator &dst = *parts_[ch.dst_];
    if (when < dst.now()) {
        // Receiver-side lookahead check: the sender's conservative
        // contract was violated (or, across processes, its clock
        // diverged).
        panic("PartitionSet: channel %s: causality violation "
              "(message at %s behind partition clock %s)",
              ch.name_.c_str(), when.str().c_str(),
              dst.now().str().c_str());
    }
    dst.scheduleAt(when, std::move(fn));
    // The destination may have been queued later (or idle).  Its worker
    // is the one draining, before its own next window.
    lanes_[worker_of_[ch.dst_]].calendar.lower(
        static_cast<uint32_t>(ch.dst_), when);
}

namespace {

/** Header of the WireMsgHdr + payload record starting at @p rec. */
WireMsgHdr
msgHeader(const uint8_t *rec)
{
    WireMsgHdr hdr;
    std::memcpy(&hdr, rec, sizeof(hdr));
    return hdr;
}

} // namespace

void
PartitionSet::drain(size_t w, uint32_t p)
{
    // One merged drain for every engine: the parity-p channels any lane
    // posted to worker w's partitions (whole pending_ buffers) and,
    // coupled, each peer's batch of the exchange that just ended
    // (individual wire records), in (channel, peer, record) order.
    // Channel order makes each destination queue's insertion sequence —
    // and so same-timestamp tie-breaking — independent of the fusion and
    // of which process a message came from.  A channel is local-dirty
    // xor inbound (its source is owned xor foreign), so the two entry
    // kinds never interleave within one channel.
    std::vector<DrainEntry> &entries = lanes_[w].drain_scratch;
    entries.clear();
    for (size_t v = 0; v < par_workers_; ++v) {
        const WindowSlot &slot = lanes_[v].slot;
        for (uint32_t i = 0; i < slot.dirty_count[p]; ++i) {
            const DirtyEntry &d = slot.dirty[p][i];
            if (d.worker == w) {
                entries.push_back(DrainEntry{d.channel, kLocalDrain, 0});
            }
        }
    }
    for (size_t pi = 0; pi < peers_.size(); ++pi) {
        const std::vector<uint8_t> &data = endedBatch(peers_[pi]);
        for (size_t off = 0; off < data.size();) {
            const WireMsgHdr hdr = msgHeader(data.data() + off);
            entries.push_back(
                DrainEntry{hdr.channel, static_cast<uint32_t>(pi), off});
            off += sizeof(hdr) + hdr.len;
        }
    }
    std::sort(entries.begin(), entries.end());
    for (const DrainEntry &e : entries) {
        Channel &ch = *channels_[e.channel];
        if (e.peer == kLocalDrain) {
            for (auto &msg : ch.pending_[p]) {
                deliver(ch, msg.when, std::move(msg.fn));
            }
            // clear() keeps capacity: steady-state traffic re-posts
            // into the same storage with no allocator round trips.
            ch.pending_[p].clear();
            continue;
        }
        if (ch.cls_ != Channel::Cls::In) {
            panic("PartitionSet: coupled: rank %u sent a record on "
                  "channel %s, whose destination it owns itself",
                  peers_[e.peer].rank, ch.name_.c_str());
        }
        const uint8_t *rec = endedBatch(peers_[e.peer]).data() + e.off;
        const WireMsgHdr hdr = msgHeader(rec);
        const SimTime when = SimTime::ps(hdr.when_ps);
        deliver(ch, when,
                ch.decoder_(*parts_[ch.dst_], when, rec + sizeof(hdr),
                            hdr.len));
    }
    for (auto &ps : peers_) {
        endedBatch(ps).clear(); // keeps capacity
    }
}

SimTime
PartitionSet::nextPendingTime() const
{
    SimTime earliest = SimTime::max();
    for (auto &p : parts_) {
        earliest = std::min(earliest, p->nextEventTime());
    }
    for (const auto &ch : channels_) {
        for (const auto &buf : ch->pending_) {
            for (const auto &msg : buf) {
                earliest = std::min(earliest, msg.when);
            }
        }
    }
    return earliest;
}

SimTime
PartitionSet::windowForEarliest(SimTime earliest, SimTime t, SimTime q,
                                SimTime until)
{
    if (earliest >= until) {
        return until; // nothing left before the horizon
    }
    if (earliest < t + q) {
        return t; // current window has work; no skip
    }
    // Snap down to the quantum grid so the skipped run executes the
    // exact same window sequence a patient unskipped run would.
    const SimTime snapped = earliest - (earliest % q);
    return std::max(t, snapped);
}

void
PartitionSet::rebuildCalendars()
{
    // Run entry: events may have been scheduled into (or cancelled
    // from) any partition since the last run, so every queued time is
    // recomputed.  Partitions another process owns are never queued.
    for (size_t w = 0; w < par_workers_; ++w) {
        WorkerLane &lane = lanes_[w];
        lane.calendar.clear(parts_.size());
        for (size_t p : worker_parts_[w]) {
            if (partitionOwned(p)) {
                lane.calendar.push(static_cast<uint32_t>(p),
                                   parts_[p]->nextEventTime());
            }
        }
    }
}

SimTime
PartitionSet::advanceLane(WorkerLane &lane, SimTime bound)
{
    // Partitions are independent within a quantum (cross-partition
    // traffic waits in channels until the drain), so running only the
    // due ones, earliest first, executes exactly what a sweep would.
    // Each is re-queued in place at its new next event, which is at or
    // past the bound, so it sinks below every partition still due.
    while (lane.calendar.topTime() < bound) {
        Simulator &p = *parts_[lane.calendar.topPartition()];
        p.runBefore(bound);
        lane.calendar.retimeTop(p.nextEventTime());
    }
    return lane.calendar.topTime();
}

namespace {

/**
 * Relaxations a window waiter spins (~100 µs) before it parks.  It
 * re-checks after every one: a sibling is usually well under a µs
 * behind, and a backoff would overshoot that wait by a whole window.
 */
constexpr uint32_t kWindowSpinBudget = 4096;

/** True once a slot count @p seen covers @p n (wraps at 2^32). */
bool
reached(uint32_t seen, uint32_t n)
{
    return static_cast<int32_t>(seen - n) >= 0;
}

} // namespace

void
PartitionSet::clearPosts(WorkerLane &lane)
{
    lane.posted_min = SimTime::max();
    lane.dirty_count = 0;
}

void
PartitionSet::publish(WorkerLane &lane, uint32_t n, SimTime lane_min) const
{
    WindowSlot &slot = lane.slot;
    const uint32_t p = lane.parity;
    slot.earliest[p] = std::min(lane_min, lane.posted_min);
    slot.dirty_count[p] = lane.dirty_count;
    if (par_workers_ > 1) {
        // A lone worker has nobody to tell, and skips the fence.
        slot.published.store(n, std::memory_order_seq_cst);
        wakeParked(slot.published, slot.parked);
    }
    // Open the next window on the other parity.  Siblings drained its
    // buffers at the end of the previous window, before publishing this
    // one, and posts into them start only after this window's wait.
    lane.parity = p ^ 1u;
    clearPosts(lane);
}

void
PartitionSet::awaitWindow(WindowSlot &slot, uint32_t n) const
{
    parkUntil(
        slot.published, [n](uint32_t seen) { return reached(seen, n); },
        slot.parked, spin_budget_, 0);
}

bool
PartitionSet::windowEnd(size_t w, uint32_t n, SimTime lane_min,
                        SimTime bound, SimTime *earliest)
{
    // Every worker runs this, and none runs anything alone.  Future work
    // can live in only two places — a partition's queue or a message
    // posted this window — and each lane publishes the minimum of both
    // for its share, so folding the publications replaces any scan.
    // Every worker folds the same values into the same next window.  A
    // coupled group folds across processes in its slot exchange.
    WorkerLane &lane = lanes_[w];
    const uint32_t p = lane.parity;
    publish(lane, n, lane_min);
    SimTime e = SimTime::max();
    for (size_t v = 0; v < par_workers_; ++v) {
        WindowSlot &slot = lanes_[v].slot;
        if (v != w) {
            awaitWindow(slot, n);
        }
        e = std::min(e, slot.earliest[p]);
    }
    if (coupled_ && !coupledExchange(bound, coupledContrib(e), &e)) {
        return false;
    }
    drain(w, p);
    *earliest = e;
    return true;
}

void
PartitionSet::workerBody(size_t w)
{
    WorkerLane &lane = lanes_[w];
    const SimTime q = par_q_;
    const SimTime until = par_until_;
    uint64_t windows = 0;
    for (SimTime t = run_t_; t < until;) {
        // A lane with nothing due before the bound advances nothing:
        // the window costs one heap peek and one publication.
        const SimTime bound = std::min(t + q, until);
        SimTime earliest;
        if (!windowEnd(w, static_cast<uint32_t>(windows + 1),
                       advanceLane(lane, bound), bound, &earliest)) {
            run_ok_ = false; // coupled runs have one worker
            break;
        }
        ++windows;
        t = skip_idle_ ? windowForEarliest(earliest, bound, q, until)
                       : bound;
    }
    if (w == 0) {
        quanta_ += windows;
    }
}

void
PartitionSet::ensureWorkerPool(size_t pool_threads)
{
    // Grow on demand, never shrink: an idle pooled worker costs one
    // parked thread, re-spawning costs a clone() per run.  A new thread
    // joins the run whose generation bump precedes its spawn.
    const uint32_t seen =
        pool_generation_.load(std::memory_order_relaxed) - 1;
    while (pool_.size() < pool_threads) {
        const size_t worker_id = pool_.size() + 1; // caller is worker 0
        pool_.emplace_back(
            [this, worker_id, seen] { workerLoop(worker_id, seen); });
    }
}

void
PartitionSet::workerLoop(size_t worker_id, uint32_t seen)
{
    // The thread's inherited mask — the caller's, unpinned (see
    // runWindows) — is home base: runs whose placement pins this
    // worker narrow it, runs that don't restore it.
    const SavedAffinity home = saveCurrentThreadAffinity();
    bool pinned = false;
    for (;;) {
        // Idle between runs for as long as the caller likes: park at
        // once.  The pool writes a run's parameters (and the shutdown
        // flag) before the generation bump, and this thread reads them
        // only after it sees the bump.
        parkUntil(
            pool_generation_, [seen](uint32_t g) { return g != seen; },
            pool_parked_, 0, 0);
        seen = pool_generation_.load(std::memory_order_acquire);
        if (pool_shutdown_) {
            return;
        }
        // A run fusing fewer workers than the pool holds leaves the
        // extra threads out of the window loop; they still check in
        // below, so no thread lags into the next run's parameters.
        if (worker_id < par_workers_) {
            const int cpu = lanes_[worker_id].cpu;
            if (cpu >= 0) {
                pinned = pinCurrentThreadToCpu(cpu);
            } else if (pinned) {
                restoreCurrentThreadAffinity(home);
                pinned = false;
            }
            workerBody(worker_id);
        }
        // The last thread's decrement (acq_rel, and seq_cst for
        // wakeParked's pairing) releases the run's writes to the caller
        // that reads zero.
        if (workers_running_.fetch_sub(1, std::memory_order_seq_cst) == 1) {
            wakeParked(workers_running_, caller_parked_);
        }
    }
}

SimTime
PartitionSet::enterRun()
{
    for (size_t w = 0; w < par_workers_; ++w) {
        WorkerLane &lane = lanes_[w];
        lane.slot.published.store(0, std::memory_order_relaxed);
        lane.parity = 0;
        clearPosts(lane);
    }
    // Posts made since the last run wait in the buffer of their source
    // lane's parity then, and that lane may belong to another fusion:
    // move them to buffer 0 and register them as posts of the source
    // lane's open window, which every lane now starts on parity 0.
    for (auto &chp : channels_) {
        Channel &ch = *chp;
        if (ch.pending_[0].empty()) {
            std::swap(ch.pending_[0], ch.pending_[1]);
        }
        if (ch.pending_[0].empty()) {
            continue;
        }
        WorkerLane &lane = lanes_[worker_of_[ch.src_]];
        markChannelDirty(lane, ch);
        for (const auto &msg : ch.pending_[0]) {
            lane.posted_min = std::min(lane.posted_min, msg.when);
        }
    }
    SimTime earliest = SimTime::max();
    for (size_t w = 0; w < par_workers_; ++w) {
        earliest = std::min({earliest, lanes_[w].calendar.topTime(),
                             lanes_[w].posted_min});
    }
    return earliest;
}

bool
PartitionSet::runWindows(SimTime until, size_t workers, const char *entry)
{
    const SimTime q = quantum();
    {
        std::lock_guard<std::mutex> lk(pool_mu_);
        if (run_active_) {
            fatal("PartitionSet: %s re-entered while a run's workers are "
                  "live",
                  entry);
        }
        run_active_ = true;
    }
    par_workers_ = workers;
    assignPartitions(workers);
    rebuildCalendars();
    const uint64_t start_quanta = quanta_;
    const uint64_t start_events = totalExecutedEvents();
    par_q_ = q;
    par_until_ = until;
    run_ok_ = true;
    // Spinning only pays when every worker owns a core; on an
    // oversubscribed host each spin slot burns the scheduler quantum
    // the sibling worker needs, so park immediately.
    spin_budget_ = last_oversubscribed_ ? 0 : kWindowSpinBudget;

    // Entry step: the earliest pending time anywhere in the model, so
    // every call rediscovers the same window sequence from t = 0.  The
    // calendars and held channel posts give this process's share; a
    // coupled group folds the shares in an entry slot exchange.
    SimTime earliest = enterRun();
    if (coupled_) {
        run_ok_ = coupledEntry(&earliest);
    }
    run_t_ = SimTime();
    if (!run_ok_) {
        run_t_ = until;
    } else if (skip_idle_) {
        run_t_ = windowForEarliest(earliest, run_t_, q, until);
    }

    if (run_t_ < until) {
        if (workers > 1) {
            // Every parameter of the run is written above, before the
            // bump; a pool thread reads them only after it sees it.
            // Every pool thread, spawned below or not, checks in once.
            workers_running_.store(
                static_cast<uint32_t>(std::max(pool_.size(), workers - 1)),
                std::memory_order_relaxed);
            pool_generation_.fetch_add(1, std::memory_order_seq_cst);
            wakeParked(pool_generation_, pool_parked_);
            // Spawn missing pool threads only after the generation and
            // running count are published (a new thread joins this
            // run at once), and before worker 0 pins, so each inherits
            // the caller's mask.
            ensureWorkerPool(workers - 1);
        }
        // The caller doubles as worker 0: borrow its affinity for the
        // run when the placement pinned worker 0, and hand it back on
        // exit regardless of how the run went.
        SavedAffinity home;
        bool pinned0 = false;
        if (lanes_[0].cpu >= 0) {
            home = saveCurrentThreadAffinity();
            pinned0 = pinCurrentThreadToCpu(lanes_[0].cpu);
        }
        workerBody(0);
        if (workers > 1) {
            // The pool ends the run's last window with worker 0, so the
            // check-in is a window barrier's wait.
            parkUntil(
                workers_running_, [](uint32_t n) { return n == 0; },
                caller_parked_, spin_budget_, 0);
        }
        if (pinned0) {
            restoreCurrentThreadAffinity(home);
        }
    }
    {
        std::lock_guard<std::mutex> lk(pool_mu_);
        run_active_ = false;
    }
    last_run_quanta_ = quanta_ - start_quanta;
    last_run_events_ = totalExecutedEvents() - start_events;
    return run_ok_;
}

void
PartitionSet::runSequential(SimTime until)
{
    runWindows(until, 1, "runSequential");
}

void
PartitionSet::runParallel(SimTime until)
{
    runWindows(until, std::min(parts_.size(), parallelism()),
               "runParallel");
}

// --- cross-process coupled engine -----------------------------------

namespace {

/**
 * Abandonment budgets for one coupled wait: a healthy peer answers a
 * barrier in microseconds, so a long silence means it died (crash, OOM
 * kill) — give up and unwind instead of hanging the group.  Once an
 * interrupt is pending the budget collapses: the operator asked to
 * stop, and a dead peer must not delay the partial artifact.
 */
constexpr int64_t kCoupledWaitBudgetNs = 60LL * 1000 * 1000 * 1000;
constexpr int64_t kCoupledInterruptedBudgetNs = 2LL * 1000 * 1000 * 1000;

/**
 * One coupled wait parks for at most this slice; waits loop with
 * liveness checks between slices until the budget above runs out.
 */
constexpr int64_t kCoupledWaitSliceNs = 20 * 1000 * 1000;

int64_t
coupledWaitBudgetNs()
{
    return core::interruptRequested() ? kCoupledInterruptedBudgetNs
                                      : kCoupledWaitBudgetNs;
}

/**
 * Relaxations a coupled wait on @p peer spins before it parks: a window
 * wait's budget while the peer last published from another CPU, none
 * when it shares this one — spinning there only burns the time slice
 * the peer needs to publish.  A peer's wake-to-run latency can exceed a
 * short spin, and a spin it outlasts makes both ranks park on every
 * window from then on.
 */
uint32_t
coupledSpins(const RankSlot &peer)
{
    return peer.cpu.load(std::memory_order_relaxed) == sched_getcpu()
               ? 0
               : kWindowSpinBudget;
}

uint64_t
fnv1a(const void *bytes, size_t n, uint64_t h = 1469598103934665603ULL)
{
    const auto *p = static_cast<const uint8_t *>(bytes);
    for (size_t i = 0; i < n; ++i) {
        h = (h ^ p[i]) * 1099511628211ULL;
    }
    return h;
}

} // namespace

void
PartitionSet::setChannelDecoder(Channel &ch, RecordDecoder decoder)
{
    if (!decoder) {
        fatal("PartitionSet: setChannelDecoder(%s): null decoder",
              ch.name_.c_str());
    }
    ch.decoder_ = std::move(decoder);
}

void
PartitionSet::postRecord(Channel &ch, SimTime when, const void *bytes,
                         uint32_t len)
{
    ch.validatePost(when);
    if (ch.cls_ == Channel::Cls::Out) {
        // Destination owned by a peer process: buffer the record in
        // its wire layout (WireMsgHdr + payload), which it keeps
        // through the ring into the peer's batch; the window end's
        // exchange flushes every out-dirty channel in index order.  The buffer
        // keeps its capacity across windows like pending_ does.
        if (ch.out_pending_.empty()) {
            out_dirty_.push_back(ch.index_);
        }
        WireMsgHdr hdr;
        hdr.channel = ch.index_;
        hdr.len = len;
        hdr.window = static_cast<uint32_t>(sync_seq_);
        hdr.when_ps = when.toPs();
        const size_t off = ch.out_pending_.size();
        ch.out_pending_.resize(off + sizeof(hdr) + len);
        std::memcpy(ch.out_pending_.data() + off, &hdr, sizeof(hdr));
        std::memcpy(ch.out_pending_.data() + off + sizeof(hdr), bytes, len);
        ch.out_min_ = std::min(ch.out_min_, when);
        return;
    }
    if (coupled_ && ch.cls_ != Channel::Cls::Local) {
        panic("PartitionSet: channel %s: record posted from a partition "
              "this process does not own (classification %s)",
              ch.name_.c_str(),
              ch.cls_ == Channel::Cls::In ? "inbound" : "foreign");
    }
    // Local (or uncoupled) delivery: materialize through the decoder
    // and post like any closure — identical queue position, so the
    // record path is bit-compatible with hand-posted deliveries.
    if (!ch.decoder_) {
        panic("PartitionSet: channel %s: postRecord without a decoder",
              ch.name_.c_str());
    }
    Simulator &dst = *parts_[ch.dst_];
    ch.post(when, ch.decoder_(dst, when, bytes, len));
}

void
PartitionSet::enableCoupled(const CoupledOptions &opts)
{
    if (coupled_) {
        fatal("PartitionSet: enableCoupled called twice");
    }
    if (opts.owner_of.size() != parts_.size()) {
        fatal("PartitionSet: enableCoupled: owner map covers %zu "
              "partitions, set has %zu",
              opts.owner_of.size(), parts_.size());
    }
    uint32_t max_rank = opts.self_rank;
    for (uint32_t r : opts.owner_of) {
        max_rank = std::max(max_rank, r);
    }
    peer_of_rank_.assign(max_rank + 1, UINT32_MAX);
    for (const auto &[rank, tr] : opts.peers) {
        if (rank == opts.self_rank || rank > max_rank || tr == nullptr) {
            fatal("PartitionSet: enableCoupled: bad peer entry (rank %u)",
                  rank);
        }
        if (peer_of_rank_[rank] != UINT32_MAX) {
            fatal("PartitionSet: enableCoupled: duplicate peer rank %u",
                  rank);
        }
        peer_of_rank_[rank] = static_cast<uint32_t>(peers_.size());
        PeerState ps;
        ps.rank = rank;
        ps.tr = tr;
        peers_.push_back(std::move(ps));
    }
    if (peers_.empty()) {
        fatal("PartitionSet: enableCoupled: rank %u has no peer transport",
              opts.self_rank);
    }
    // Every transport of a rank publishes through the rank's one slot.
    self_slot_ = &peers_.front().tr->selfSlot();
    owner_of_ = opts.owner_of;
    self_rank_ = opts.self_rank;

    size_t owned = 0;
    for (size_t p = 0; p < parts_.size(); ++p) {
        if (owner_of_[p] == self_rank_) {
            ++owned;
        } else if (peer_of_rank_[owner_of_[p]] == UINT32_MAX) {
            fatal("PartitionSet: enableCoupled: partition %zu is owned "
                  "by rank %u but no transport to that rank was given",
                  p, owner_of_[p]);
        }
    }
    if (owned == 0) {
        fatal("PartitionSet: enableCoupled: rank %u owns no partitions",
              self_rank_);
    }

    for (auto &chp : channels_) {
        Channel &ch = *chp;
        const bool src_owned = owner_of_[ch.src_] == self_rank_;
        const bool dst_owned = owner_of_[ch.dst_] == self_rank_;
        ch.cls_ = src_owned
                      ? (dst_owned ? Channel::Cls::Local
                                   : Channel::Cls::Out)
                      : (dst_owned ? Channel::Cls::In
                                   : Channel::Cls::Foreign);
        ch.remote_out_ = ch.cls_ == Channel::Cls::Out;
        if (ch.cls_ == Channel::Cls::In && !ch.decoder_) {
            fatal("PartitionSet: enableCoupled: inbound channel %s has "
                  "no decoder; its records could never materialize",
                  ch.name_.c_str());
        }
    }

    recv_scratch_.resize(SpscRecordRing::kMaxRecordBytes);
    coupled_ = true;
}

SimTime
PartitionSet::coupledContrib(SimTime local) const
{
    // Everything this process knows that could fire in a future
    // window: owned partitions' next events and local channel messages
    // not yet drained (both in @p local), and outbound records not yet
    // flushed.  Peers report the same for their shares; the fold of all
    // contributions equals the full nextPendingTime() scan exactly.
    SimTime m = local;
    for (uint32_t idx : out_dirty_) {
        m = std::min(m, channels_[idx]->out_min_);
    }
    return m;
}

void
PartitionSet::pollPeer(size_t pi)
{
    PeerState &ps = peers_[pi];
    const auto window = static_cast<uint32_t>(sync_seq_);
    for (;;) {
        const uint32_t n = ps.tr->tryRecv(
            recv_scratch_.data(),
            static_cast<uint32_t>(recv_scratch_.size()));
        if (n == 0) {
            return;
        }
        coupled_stats_.bytes_recv += n;
        uint32_t kind = 0;
        if (n < sizeof(kind)) {
            panic("PartitionSet: coupled: runt record (%u bytes) from "
                  "rank %u",
                  n, ps.rank);
        }
        std::memcpy(&kind, recv_scratch_.data(), sizeof(kind));
        switch (kind) {
        case kWireHello: {
            if (n != sizeof(WireHello)) {
                panic("PartitionSet: coupled: HELLO of %u bytes from "
                      "rank %u (want %zu)",
                      n, ps.rank, sizeof(WireHello));
            }
            std::memcpy(&ps.hello, recv_scratch_.data(),
                        sizeof(WireHello));
            ps.hello_seen = true;
            break;
        }
        case kWireMsg: {
            if (n < sizeof(WireMsgHdr)) {
                panic("PartitionSet: coupled: truncated MSG header from "
                      "rank %u",
                      ps.rank);
            }
            const WireMsgHdr hdr = msgHeader(recv_scratch_.data());
            if (n != sizeof(hdr) + hdr.len ||
                hdr.channel >= channels_.size()) {
                panic("PartitionSet: coupled: malformed MSG from rank "
                      "%u (channel %u, len %u, record %u)",
                      ps.rank, hdr.channel, hdr.len, n);
            }
            if (hdr.window != window && hdr.window != window + 1) {
                panic("PartitionSet: coupled protocol error: rank %u "
                      "sent a record of window %u during exchange %u",
                      ps.rank, hdr.window, window);
            }
            // Staged as it arrived: drain() decodes this same layout.
            std::vector<uint8_t> &data = ps.batch[hdr.window & 1];
            data.insert(data.end(), recv_scratch_.data(),
                        recv_scratch_.data() + n);
            ++coupled_stats_.msgs_recv;
            break;
        }
        default:
            panic("PartitionSet: coupled: unknown record kind %u from "
                  "rank %u",
                  kind, ps.rank);
        }
    }
}

void
PartitionSet::pollAllPeers()
{
    for (size_t pi = 0; pi < peers_.size(); ++pi) {
        pollPeer(pi);
    }
}

bool
PartitionSet::coupledSend(size_t pi, const void *bytes, uint32_t n)
{
    PeerState &ps = peers_[pi];
    int64_t waited_ns = 0;
    while (!ps.tr->trySend(bytes, n)) {
        // Ring full: the peer is behind consuming us.  Drain our own
        // inbound rings while stalled — a blocked producer that keeps
        // consuming means some process in the group always makes
        // progress, so a full ring cycle can never deadlock.
        pollAllPeers();
        if (ps.tr->peerAborted()) {
            return false;
        }
        // The peer may be parked on this rank's doorbell, waiting for a
        // publication that cannot come until it drains the ring.
        self_slot_->ring();
        if (!ps.tr->waitForSpace(n, coupledSpins(ps.tr->peerSlot()),
                                 kCoupledWaitSliceNs)) {
            waited_ns += kCoupledWaitSliceNs;
            if (waited_ns >= coupledWaitBudgetNs()) {
                log::warn("PartitionSet: coupled: rank %u stopped "
                          "consuming (%lld ms); abandoning run",
                          ps.rank,
                          static_cast<long long>(waited_ns / 1000000));
                return false;
            }
        }
    }
    coupled_stats_.bytes_sent += n;
    return true;
}

bool
PartitionSet::flushOutgoing()
{
    // Index order, like every drain: the receiving process schedules
    // records in the order they arrive per channel, so the sender must
    // emit channels deterministically.
    std::sort(out_dirty_.begin(), out_dirty_.end());
    for (uint32_t idx : out_dirty_) {
        Channel &ch = *channels_[idx];
        const uint32_t pi = peer_of_rank_[owner_of_[ch.dst_]];
        const std::vector<uint8_t> &out = ch.out_pending_;
        for (size_t off = 0; off < out.size();) {
            const uint32_t n = static_cast<uint32_t>(
                sizeof(WireMsgHdr) + msgHeader(out.data() + off).len);
            if (!coupledSend(pi, out.data() + off, n)) {
                return false;
            }
            ++coupled_stats_.msgs_sent;
            off += n;
        }
        ch.out_pending_.clear(); // keeps capacity
        ch.out_min_ = SimTime::max();
    }
    out_dirty_.clear();
    return true;
}

bool
PartitionSet::awaitPeer(PeerState &ps, const std::function<bool()> &ready,
                        const char *what)
{
    RankSlot &slot = ps.tr->peerSlot();
    int64_t waited_ns = 0;
    while (!ready()) {
        if (ps.tr->peerAborted()) {
            return false;
        }
        // Records on the peer's ring end the wait too: a peer stalled on
        // a full ring rings its doorbell and cannot publish until this
        // rank drains it.
        const bool woke = parkUntil(
            slot.doorbell,
            [&](uint32_t) {
                return ready() || ps.tr->peerAborted() ||
                       ps.tr->inboundPending();
            },
            slot.parked, coupledSpins(slot), kCoupledWaitSliceNs);
        pollAllPeers();
        if (!woke && !ready()) {
            waited_ns += kCoupledWaitSliceNs;
            if (waited_ns >= coupledWaitBudgetNs()) {
                log::warn("PartitionSet: coupled: rank %u silent awaiting "
                          "%s (%lld ms); abandoning run",
                          ps.rank, what,
                          static_cast<long long>(waited_ns / 1000000));
                return false;
            }
        }
    }
    return true;
}

bool
PartitionSet::coupledExchange(SimTime bound, SimTime contrib,
                              SimTime *global)
{
    // A window's records go on the rings before its publication, so a
    // peer that sees the publication (acquire) sees all of them.
    if (!flushOutgoing()) {
        return false;
    }
    const auto window = static_cast<uint32_t>(sync_seq_);
    self_slot_->publish(window, bound.toPs(), contrib.toPs(),
                        sched_getcpu());
    coupled_stats_.sync_sent += peers_.size();
    SimTime g = contrib;
    for (size_t pi = 0; pi < peers_.size(); ++pi) {
        PeerState &ps = peers_[pi];
        const RankSlot &slot = ps.tr->peerSlot();
        if (slot.covers(window)) {
            // Free-run: the peer already published this window, so the
            // "wait" costs one load and no synchronization at all.
            ++coupled_stats_.waits_elided;
        } else {
            ++coupled_stats_.waits_blocked;
            if (!awaitPeer(
                    ps, [&slot, window] { return slot.covers(window); },
                    "a barrier")) {
                return false;
            }
        }
        ++coupled_stats_.sync_recv;
        const int64_t peer_bound = slot.bound_ps[window & 1];
        if (peer_bound != bound.toPs()) {
            // Both sides computed this window bound from the same
            // global fold; divergence means the lockstep (and with it
            // the determinism contract) is broken — stop loudly.
            panic("PartitionSet: coupled window divergence at exchange "
                  "%llu: rank %u bound %lld ps, local bound %lld ps",
                  static_cast<unsigned long long>(sync_seq_), ps.rank,
                  static_cast<long long>(peer_bound),
                  static_cast<long long>(bound.toPs()));
        }
        g = std::min(g, SimTime::ps(slot.contrib_ps[window & 1]));
        // Stage the window's records; those of the peer's next window,
        // if it already ran ahead, stay staged for the next exchange.
        pollPeer(pi);
    }
    ++sync_seq_;
    *global = g;
    return true;
}

bool
PartitionSet::exchangeHello()
{
    WireHello mine;
    mine.self_rank = self_rank_;
    mine.partitions = static_cast<uint32_t>(parts_.size());
    mine.channels = static_cast<uint32_t>(channels_.size());
    mine.quantum_ps = quantum().toPs();
    mine.owner_hash =
        fnv1a(owner_of_.data(), owner_of_.size() * sizeof(uint32_t));
    for (size_t pi = 0; pi < peers_.size(); ++pi) {
        if (!coupledSend(pi, &mine, sizeof(mine))) {
            return false;
        }
    }
    // A peer parked on this rank's doorbell waits for the HELLO too.
    self_slot_->ring();
    for (size_t pi = 0; pi < peers_.size(); ++pi) {
        PeerState &ps = peers_[pi];
        if (!awaitPeer(ps, [&ps] { return ps.hello_seen; }, "HELLO")) {
            return false;
        }
        const WireHello &h = ps.hello;
        // A mismatch is a launcher bug (the processes built different
        // models), not a runtime condition: fail fast and loudly.
        if (h.magic != mine.magic || h.version != mine.version) {
            fatal("PartitionSet: coupled: rank %u spoke a different "
                  "protocol (magic %llx version %u)",
                  ps.rank, static_cast<unsigned long long>(h.magic),
                  h.version);
        }
        if (h.self_rank != ps.rank) {
            fatal("PartitionSet: coupled: transport to rank %u is "
                  "wired to rank %u (launcher ring mix-up)",
                  ps.rank, h.self_rank);
        }
        if (h.partitions != mine.partitions ||
            h.channels != mine.channels ||
            h.quantum_ps != mine.quantum_ps ||
            h.owner_hash != mine.owner_hash) {
            fatal("PartitionSet: coupled: rank %u built a different "
                  "model (partitions %u/%u, channels %u/%u, quantum "
                  "%lld/%lld ps, owner hash %llx/%llx)",
                  ps.rank, h.partitions, mine.partitions, h.channels,
                  mine.channels, static_cast<long long>(h.quantum_ps),
                  static_cast<long long>(mine.quantum_ps),
                  static_cast<unsigned long long>(h.owner_hash),
                  static_cast<unsigned long long>(mine.owner_hash));
        }
    }
    return true;
}

void
PartitionSet::abandonCoupled()
{
    for (auto &ps : peers_) {
        ps.tr->abort();
    }
    coupled_abandoned_ = true;
}

bool
PartitionSet::coupledEntry(SimTime *global)
{
    if (!hello_done_) {
        if (!exchangeHello()) {
            return false;
        }
        hello_done_ = true;
    }
    // The entry exchange ends a window 0 like any other window end, so
    // the peers' entry records and this process's posts held since the
    // last run are delivered before the first window.  Its sentinel
    // bound (-1) doubles as a lockstep check: peers must be at their
    // entry too.
    return windowEnd(0, 0, lanes_[0].calendar.topTime(), SimTime::ps(-1),
                     global);
}

bool
PartitionSet::runCoupled(SimTime until)
{
    if (!coupled_) {
        fatal("PartitionSet: runCoupled without enableCoupled");
    }
    if (coupled_abandoned_) {
        return false;
    }
    // Single in-process worker: the coupled engine's intra-process
    // concurrency is the peer processes.  Its calendar holds only the
    // owned partitions; ghosts are never advanced.
    if (!runWindows(until, 1, "runCoupled")) {
        abandonCoupled();
        return false;
    }
    return true;
}

std::vector<uint32_t>
PartitionSet::lptAssign(const std::vector<double> &weights,
                        uint32_t nprocs)
{
    if (nprocs == 0 || weights.empty()) {
        fatal("PartitionSet: lptAssign: empty input");
    }
    std::vector<size_t> order(weights.size());
    for (size_t i = 0; i < order.size(); ++i) {
        order[i] = i;
    }
    std::stable_sort(order.begin(), order.end(),
                     [&weights](size_t a, size_t b) {
                         return weights[a] > weights[b];
                     });
    std::vector<double> load(nprocs, 0.0);
    std::vector<uint32_t> owner(weights.size(), 0);
    for (size_t p : order) {
        uint32_t best = 0;
        for (uint32_t r = 1; r < nprocs; ++r) {
            if (load[r] < load[best]) {
                best = r;
            }
        }
        owner[p] = best;
        load[best] += weights[p];
    }
    // Relabel ranks in first-appearance order over partition indices:
    // rank 0 always owns partition 0 (the launcher keeps the client
    // rack — and with it the latency samples — in the parent process).
    std::vector<uint32_t> relabel(nprocs, UINT32_MAX);
    uint32_t next = 0;
    for (uint32_t r : owner) {
        if (relabel[r] == UINT32_MAX) {
            relabel[r] = next++;
        }
    }
    for (uint32_t r = 0; r < nprocs; ++r) {
        if (relabel[r] == UINT32_MAX) {
            relabel[r] = next++;
        }
    }
    for (uint32_t &r : owner) {
        r = relabel[r];
    }
    return owner;
}

uint64_t
PartitionSet::totalExecutedEvents() const
{
    uint64_t n = 0;
    for (const auto &p : parts_) {
        n += p->executedEvents();
    }
    return n;
}

} // namespace fame
} // namespace diablo
