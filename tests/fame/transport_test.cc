/**
 * @file
 * Transport-layer and coupled-engine tests: the SPSC-ring transports
 * that carry cross-process channel traffic, the bit-identity contract
 * of runCoupled against the sequential reference, and the conservative
 * contract's teeth — a message timestamped inside the peer's sync
 * horizon must die loudly, naming the channel, on both the in-process
 * record path (post-time check) and the shm wire path (receiver-side
 * drain check against forged records).
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "fame/partition.hh"
#include "fame/transport.hh"

namespace diablo {
namespace fame {
namespace {

using namespace diablo::time_literals;

// ---------------------------------------------------------------- rings

TEST(Transport, InProcPairIsFifoBothWays)
{
    auto pair = makeInProcTransportPair();
    Transport &a = *pair.first;
    Transport &b = *pair.second;

    for (uint32_t i = 0; i < 8; ++i) {
        const uint64_t rec = 0x1000 + i;
        ASSERT_TRUE(a.trySend(&rec, sizeof(rec)));
    }
    for (uint32_t i = 0; i < 8; ++i) {
        uint64_t rec = 0;
        ASSERT_EQ(b.tryRecv(&rec, sizeof(rec)), sizeof(rec));
        EXPECT_EQ(rec, 0x1000 + i);
    }
    uint64_t rec = 0;
    EXPECT_EQ(b.tryRecv(&rec, sizeof(rec)), 0u); // drained

    // Reverse direction is an independent ring.
    const uint64_t back = 0xBEEF;
    ASSERT_TRUE(b.trySend(&back, sizeof(back)));
    rec = 0;
    ASSERT_EQ(a.tryRecv(&rec, sizeof(rec)), sizeof(rec));
    EXPECT_EQ(rec, 0xBEEF);
}

TEST(Transport, FullRingRejectsUntilPeerDrains)
{
    // Minimum-size rings so a handful of records fills one.
    auto pair = makeInProcTransportPair(/*ring_capacity=*/4096);
    Transport &a = *pair.first;
    Transport &b = *pair.second;

    uint8_t payload[512] = {0};
    int pushed = 0;
    while (a.trySend(payload, sizeof(payload))) {
        ++pushed;
        ASSERT_LT(pushed, 64) << "4 KiB ring never reported full";
    }
    EXPECT_GT(pushed, 0);
    EXPECT_FALSE(a.waitForSpace(sizeof(payload), /*spin=*/16,
                                /*timeout_ns=*/1000 * 1000));

    uint8_t out[512];
    ASSERT_EQ(b.tryRecv(out, sizeof(out)), sizeof(payload));
    EXPECT_TRUE(a.trySend(payload, sizeof(payload)));
}

TEST(Transport, AbortIsStickyAndVisibleOnBothSides)
{
    auto pair = makeInProcTransportPair();
    EXPECT_FALSE(pair.first->peerAborted());
    EXPECT_FALSE(pair.second->peerAborted());
    pair.first->abort();
    EXPECT_TRUE(pair.second->peerAborted());
    EXPECT_TRUE(pair.first->peerAborted());
    // Draining still works after abort (a dying peer's last batch).
    const uint64_t rec = 7;
    ASSERT_TRUE(pair.first->trySend(&rec, sizeof(rec)));
    uint64_t out = 0;
    EXPECT_EQ(pair.second->tryRecv(&out, sizeof(out)), sizeof(out));
}

TEST(Transport, WaitForDataSeesArrivalFromAnotherThread)
{
    auto pair = makeInProcTransportPair();
    std::thread producer([tr = pair.first.get()] {
        const uint64_t rec = 42;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        ASSERT_TRUE(tr->trySend(&rec, sizeof(rec)));
    });
    bool got = false;
    for (int i = 0; i < 1000 && !got; ++i) {
        got = pair.second->waitForData(/*spin=*/64,
                                       /*timeout_ns=*/2 * 1000 * 1000);
    }
    producer.join();
    EXPECT_TRUE(got);
    uint64_t out = 0;
    EXPECT_EQ(pair.second->tryRecv(&out, sizeof(out)), sizeof(out));
    EXPECT_EQ(out, 42u);
}

TEST(Transport, GroupSegmentCarriesRecordsBetweenEndpoints)
{
    // The real multi-process plumbing, minus the fork: a file-backed
    // segment, placement-initialized, with both ends of one ring pair
    // mapped in this process.
    ShmGroupLayout layout;
    layout.nprocs = 2;
    layout.ring_capacity = 1u << 14;
    const std::string path = testing::TempDir() + "diablo_group_" +
                             std::to_string(getpid()) + ".shm";
    std::remove(path.c_str());
    ShmSegment seg = ShmSegment::create(path, layout.totalBytes());
    ASSERT_TRUE(seg.valid());
    initGroupSegment(seg.data(), layout);

    auto t0 = groupTransport(seg.data(), layout, /*self=*/0, /*peer=*/1);
    auto t1 = groupTransport(seg.data(), layout, /*self=*/1, /*peer=*/0);
    const uint64_t rec = 0xD1AB10;
    ASSERT_TRUE(t0->trySend(&rec, sizeof(rec)));
    uint64_t out = 0;
    ASSERT_EQ(t1->tryRecv(&out, sizeof(out)), sizeof(out));
    EXPECT_EQ(out, 0xD1AB10u);

    ShmGroupControl *ctl = groupControl(seg.data(), layout);
    EXPECT_FALSE(ctl->anyInterrupted());
    ctl->markInterrupted(1);
    EXPECT_TRUE(ctl->anyInterrupted());
    seg.unlinkFile();
}

TEST(Transport, WireRecordLayoutIsStable)
{
    // The wire structs are copied byte-wise through shared rings; a
    // size change is a protocol change and must be deliberate.
    EXPECT_EQ(sizeof(WireHello), 48u);
    EXPECT_EQ(sizeof(WireMsgHdr), 24u);
    EXPECT_EQ(sizeof(WireSync), 32u);
}

// --------------------------------------------- process placement (LPT)

TEST(PartitionSet, LptAssignBalancesAndRankZeroOwnsPartitionZero)
{
    const auto owner = PartitionSet::lptAssign({1.0, 3.0, 2.0, 1.0}, 2);
    ASSERT_EQ(owner.size(), 4u);
    // Rank 0 always owns partition 0 (the launcher keeps the client
    // rack in the parent), and both ranks get work.
    EXPECT_EQ(owner[0], 0u);
    const std::vector<uint32_t> expect = {0, 1, 0, 1};
    EXPECT_EQ(owner, expect);
    // Deterministic: every process recomputes the same map.
    EXPECT_EQ(PartitionSet::lptAssign({1.0, 3.0, 2.0, 1.0}, 2), owner);
}

// ------------------------------------------ coupled engine bit-identity

/**
 * RingWorkload (partition_test.cc) rebuilt on byte records: tokens hop
 * partition i -> i+1 as POD TokenRec payloads through postRecord and a
 * per-channel decoder, so the exact cross-process codec path runs in
 * both the sequential reference and the coupled engines.  The checksum
 * mixes arrival times order-sensitively per partition.
 */
struct RecordWorkload {
    struct TokenRec {
        uint64_t token;
        int32_t ttl;
        uint32_t pad = 0;
    };

    RecordWorkload(PartitionSet &ps, SimTime hop_latency, int fanout = 2)
        : ps(ps), fanout(fanout), hop(hop_latency)
    {
        const size_t n = ps.size();
        counters.assign(n, 0);
        checksums.assign(n, 0);
        channels.resize(n);
        for (size_t i = 0; i < n; ++i) {
            const size_t dst = (i + 1) % n;
            channels[i] = &ps.makeChannel(i, dst, hop_latency,
                                          "hop." + std::to_string(i));
            ps.setChannelDecoder(
                *channels[i],
                [this, dst](Simulator &, SimTime, const void *bytes,
                            uint32_t len) -> EventFn {
                    EXPECT_EQ(len, sizeof(TokenRec));
                    TokenRec rec;
                    std::memcpy(&rec, bytes, sizeof(rec));
                    return EventFn([this, dst, rec] {
                        onToken(dst, rec.token, rec.ttl);
                    });
                });
        }
    }

    void
    inject(size_t part, uint64_t token, int ttl)
    {
        ps.partition(part).schedule(SimTime(), [this, part, token, ttl] {
            onToken(part, token, ttl);
        });
    }

    void
    onToken(size_t part, uint64_t token, int ttl)
    {
        Simulator &sim = ps.partition(part);
        counters[part]++;
        checksums[part] = checksums[part] * 1000003 +
                          static_cast<uint64_t>(sim.now().toPs()) + token;
        if (ttl <= 0) {
            return;
        }
        for (int f = 0; f < fanout; ++f) {
            const uint64_t child = token * 7 + static_cast<uint64_t>(f);
            const SimTime when =
                sim.now() + hop + SimTime::ns(child % 97);
            TokenRec rec{child, ttl - 1};
            ps.postRecord(*channels[part], when, &rec, sizeof(rec));
        }
    }

    PartitionSet &ps;
    std::vector<PartitionSet::Channel *> channels;
    std::vector<uint64_t> counters;
    std::vector<uint64_t> checksums;
    int fanout;
    SimTime hop;
};

struct CoupledOutcome {
    std::vector<uint64_t> counters;
    std::vector<uint64_t> checksums;
    std::vector<uint64_t> executed;
    uint64_t quanta = 0;
};

/** Sequential reference over the full model, record path included. */
CoupledOutcome
runRecordReference(size_t parts, const std::vector<SimTime> &untils)
{
    PartitionSet ps(parts);
    RecordWorkload w(ps, 1_us);
    for (size_t i = 0; i < parts; ++i) {
        w.inject(i, 1000 + i, 8);
    }
    for (SimTime until : untils) {
        ps.runSequential(until);
    }
    CoupledOutcome out;
    out.counters = w.counters;
    out.checksums = w.checksums;
    for (size_t i = 0; i < parts; ++i) {
        out.executed.push_back(ps.partition(i).executedEvents());
    }
    out.quanta = ps.quantaExecuted();
    return out;
}

/**
 * Two full copies of the model on two threads, coupled over an
 * in-process transport pair, each running only its owned partitions —
 * the per-partition results are read from the owner's copy, exactly as
 * the multiprocess launcher merges artifacts.
 */
CoupledOutcome
runRecordCoupled(size_t parts, const std::vector<SimTime> &untils,
                 bool *ok_out)
{
    const std::vector<uint32_t> owner =
        PartitionSet::lptAssign(std::vector<double>(parts, 1.0), 2);
    auto pair = makeInProcTransportPair();

    PartitionSet set_a(parts);
    PartitionSet set_b(parts);
    RecordWorkload wa(set_a, 1_us);
    RecordWorkload wb(set_b, 1_us);
    for (size_t i = 0; i < parts; ++i) {
        wa.inject(i, 1000 + i, 8);
        wb.inject(i, 1000 + i, 8);
    }

    PartitionSet::CoupledOptions oa;
    oa.self_rank = 0;
    oa.owner_of = owner;
    oa.peers = {{1u, pair.first.get()}};
    set_a.enableCoupled(oa);

    PartitionSet::CoupledOptions ob;
    ob.self_rank = 1;
    ob.owner_of = owner;
    ob.peers = {{0u, pair.second.get()}};
    set_b.enableCoupled(ob);

    bool ok_b = true;
    std::thread peer([&] {
        for (SimTime until : untils) {
            ok_b = set_b.runCoupled(until) && ok_b;
        }
    });
    bool ok_a = true;
    for (SimTime until : untils) {
        ok_a = set_a.runCoupled(until) && ok_a;
    }
    peer.join();
    *ok_out = ok_a && ok_b;

    // Both engines sent and received traffic; the ledgers must agree.
    EXPECT_GT(set_a.coupledStats().sync_sent, 0u);
    EXPECT_GT(set_a.coupledStats().msgs_sent, 0u);
    EXPECT_GT(set_b.coupledStats().msgs_sent, 0u);
    EXPECT_EQ(set_a.coupledStats().msgs_sent,
              set_b.coupledStats().msgs_recv);
    EXPECT_EQ(set_b.coupledStats().msgs_sent,
              set_a.coupledStats().msgs_recv);
    EXPECT_EQ(set_a.coupledStats().bytes_sent,
              set_b.coupledStats().bytes_recv);
    // Exact wire bytes: one HELLO, then every MSG as its header plus
    // the payload, then the SYNCs — a second layout or an extra header
    // on the wire breaks this.
    for (const PartitionSet *ps : {&set_a, &set_b}) {
        const PartitionSet::CoupledStats &cs = ps->coupledStats();
        EXPECT_EQ(cs.bytes_sent,
                  sizeof(WireHello) +
                      cs.msgs_sent * (sizeof(WireMsgHdr) +
                                      sizeof(RecordWorkload::TokenRec)) +
                      cs.sync_sent * sizeof(WireSync));
    }
    // Lockstep: both sides executed the identical window sequence.
    EXPECT_EQ(set_a.quantaExecuted(), set_b.quantaExecuted());

    CoupledOutcome out;
    for (size_t i = 0; i < parts; ++i) {
        const RecordWorkload &w = owner[i] == 0 ? wa : wb;
        PartitionSet &ps = owner[i] == 0 ? set_a : set_b;
        out.counters.push_back(w.counters[i]);
        out.checksums.push_back(w.checksums[i]);
        out.executed.push_back(ps.partition(i).executedEvents());
    }
    out.quanta = set_a.quantaExecuted();
    return out;
}

TEST(CoupledEngine, BitIdenticalToSequentialReference)
{
    const std::vector<SimTime> untils = {SimTime::ms(2)};
    const CoupledOutcome ref = runRecordReference(4, untils);
    for (uint64_t c : ref.counters) {
        EXPECT_GT(c, 0u); // traffic crossed every partition
    }
    bool ok = false;
    const CoupledOutcome mp = runRecordCoupled(4, untils, &ok);
    ASSERT_TRUE(ok);
    EXPECT_EQ(ref.counters, mp.counters);
    EXPECT_EQ(ref.checksums, mp.checksums);
    EXPECT_EQ(ref.executed, mp.executed);
    EXPECT_EQ(ref.quanta, mp.quanta);
}

TEST(CoupledEngine, DriveLoopWindowsStayAligned)
{
    // The launcher drives runCoupled in outer windows; each call's
    // entry SYNC exchange must rediscover the same global window
    // sequence the one-shot sequential run executes.
    const std::vector<SimTime> untils = {SimTime::us(300), SimTime::ms(1),
                                         SimTime::ms(2)};
    const CoupledOutcome ref =
        runRecordReference(4, {SimTime::ms(2)});
    bool ok = false;
    const CoupledOutcome mp = runRecordCoupled(4, untils, &ok);
    ASSERT_TRUE(ok);
    EXPECT_EQ(ref.counters, mp.counters);
    EXPECT_EQ(ref.checksums, mp.checksums);
    EXPECT_EQ(ref.executed, mp.executed);
}

TEST(CoupledEngine, AbortedPeerAbandonsInsteadOfHanging)
{
    // A peer that dies before HELLO must not wedge the survivor: the
    // aborted transport turns runCoupled into a false return.
    auto pair = makeInProcTransportPair();
    PartitionSet ps(2);
    auto &ch = ps.makeChannel(0, 1, 10_us, "trunk.dead");
    ps.setChannelDecoder(ch, [](Simulator &, SimTime, const void *,
                                uint32_t) -> EventFn {
        return EventFn([] {});
    });
    PartitionSet::CoupledOptions o;
    o.self_rank = 1;
    o.owner_of = {0, 1};
    o.peers = {{0u, pair.second.get()}};
    ps.enableCoupled(o);
    pair.first->abort(); // the "peer" dies
    EXPECT_FALSE(ps.runCoupled(SimTime::us(50)));
    // Abandonment is sticky: later windows fail fast too.
    EXPECT_FALSE(ps.runCoupled(SimTime::us(100)));
}

// ----------------------------------- conservative-contract death tests

/** FNV-1a, matching the owner-hash fold in the HELLO handshake. */
uint64_t
fnv1a(const void *bytes, size_t n)
{
    const auto *p = static_cast<const uint8_t *>(bytes);
    uint64_t h = 1469598103934665603ULL;
    for (size_t i = 0; i < n; ++i) {
        h = (h ^ p[i]) * 1099511628211ULL;
    }
    return h;
}

TEST(CoupledEngineDeathTest, PostRecordBelowLookaheadNamesChannel)
{
    // In-process path: the record post (what ChannelLink's record hook
    // calls) is validated against the source clock at post time with
    // the channel named — same contract as Channel::post.
    PartitionSet ps(2);
    auto &ch = ps.makeChannel(0, 1, 10_us, "tor0.trunk");
    ps.setChannelDecoder(ch, [](Simulator &, SimTime, const void *,
                                uint32_t) -> EventFn {
        return EventFn([] {});
    });
    uint64_t payload = 1;
    ps.partition(0).schedule(5_us, [&] {
        // now + 3 us < now + 10 us lookahead: lies about the latency.
        ps.postRecord(ch, SimTime::us(8), &payload, sizeof(payload));
    });
    EXPECT_DEATH(ps.runSequential(SimTime::us(100)),
                 "channel tor0.trunk.*violates conservative contract");
}

TEST(CoupledEngineDeathTest, PostRecordOnForeignSourcePanics)
{
    // Posting a record whose source partition belongs to a peer would
    // duplicate that peer's traffic; the classification check refuses.
    auto pair = makeInProcTransportPair();
    PartitionSet ps(2);
    auto &ch = ps.makeChannel(0, 1, 10_us, "trunk.in");
    ps.setChannelDecoder(ch, [](Simulator &, SimTime, const void *,
                                uint32_t) -> EventFn {
        return EventFn([] {});
    });
    PartitionSet::CoupledOptions o;
    o.self_rank = 1;
    o.owner_of = {0, 1};
    o.peers = {{0u, pair.second.get()}};
    ps.enableCoupled(o);
    uint64_t payload = 1;
    EXPECT_DEATH(
        ps.postRecord(ch, SimTime::us(10), &payload, sizeof(payload)),
        "record posted from a partition this process does not own");
}

/**
 * Receiver-side horizon check: play rank 0 by hand over @p forger,
 * pre-loading a protocol-correct HELLO, the entry SYNC, then a MSG
 * timestamped *behind* the clock the victim's own event will have
 * established, closed by a window SYNC.  The victim's drain must die
 * naming the channel rather than deliver into its past.
 */
void
runForgedWireScenario(Transport *victim_tr, Transport *forger)
{
    PartitionSet ps(2);
    auto &ch = ps.makeChannel(0, 1, 10_us, "trunk.forged");
    ps.setChannelDecoder(ch, [](Simulator &, SimTime, const void *,
                                uint32_t) -> EventFn {
        return EventFn([] {});
    });
    ps.partition(1).schedule(9_us, [] {}); // advances the victim clock
    PartitionSet::CoupledOptions o;
    o.self_rank = 1;
    o.owner_of = {0, 1};
    o.peers = {{0u, victim_tr}};
    ps.enableCoupled(o);

    WireHello hello;
    hello.self_rank = 0;
    hello.partitions = 2;
    hello.channels = 1;
    hello.quantum_ps = SimTime::us(10).toPs();
    const uint32_t owners[2] = {0, 1};
    hello.owner_hash = fnv1a(owners, sizeof(owners));
    ASSERT_TRUE(forger->trySend(&hello, sizeof(hello)));

    WireSync entry;
    entry.seq = 0;
    entry.bound_ps = -1; // entry-barrier sentinel
    entry.contrib_ps = 0;
    ASSERT_TRUE(forger->trySend(&entry, sizeof(entry)));

    struct {
        WireMsgHdr hdr;
        uint64_t payload;
    } msg;
    msg.hdr.channel = 0;
    msg.hdr.len = sizeof(msg.payload);
    msg.hdr.when_ps = SimTime::us(1).toPs(); // behind the 9 us clock
    msg.payload = 0xDEAD;
    ASSERT_TRUE(forger->trySend(&msg, sizeof(msg)));

    WireSync window;
    window.seq = 1;
    window.bound_ps = SimTime::us(10).toPs();
    window.contrib_ps = SimTime::us(20).toPs();
    ASSERT_TRUE(forger->trySend(&window, sizeof(window)));

    ps.runCoupled(SimTime::us(10)); // dies draining window 1
}

TEST(CoupledEngineDeathTest, ForgedMessageBehindClockDiesInProc)
{
    EXPECT_DEATH(
        {
            auto pair = makeInProcTransportPair();
            runForgedWireScenario(pair.first.get(), pair.second.get());
        },
        "channel trunk.forged.*causality violation");
}

TEST(CoupledEngineDeathTest, ForgedMessageBehindClockDiesOverShm)
{
    // Same forged conversation through a real file-backed group
    // segment: the shm wire path performs the identical check.
    EXPECT_DEATH(
        {
            ShmGroupLayout layout;
            layout.nprocs = 2;
            layout.ring_capacity = 1u << 14;
            const std::string path = testing::TempDir() +
                                     "diablo_forged_" +
                                     std::to_string(getpid()) + ".shm";
            std::remove(path.c_str());
            ShmSegment seg =
                ShmSegment::create(path, layout.totalBytes());
            initGroupSegment(seg.data(), layout);
            auto victim = groupTransport(seg.data(), layout, 1, 0);
            auto forger = groupTransport(seg.data(), layout, 0, 1);
            seg.unlinkFile();
            runForgedWireScenario(victim.get(), forger.get());
        },
        "channel trunk.forged.*causality violation");
}

} // namespace
} // namespace fame
} // namespace diablo
