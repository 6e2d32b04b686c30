/**
 * @file
 * End-to-end tests of the multiprocess engine launcher: a --processes 2
 * or 3 incast must produce a byte-identical fingerprint to the
 * in-process sequential run (with and without a fault plan), SIGTERM to
 * the leader must forward to the engine children and finalize an
 * interrupted partial artifact with the interrupted exit code, a child
 * rank must die with a killed leader, a leader must stop within seconds
 * of a killed child rank, and the mode's argument validation must
 * reject the unsupported combinations loudly instead of silently
 * degrading.
 */

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>

#include "analysis/artifact.hh"
#include "core/interrupt.hh"
#include "tools/tool_test_util.hh"

namespace {

using namespace std::chrono_literals;

using diablo::test::fingerprintOf;
using diablo::test::runCmd;
using diablo::test::slurp;
using diablo::test::spawnRun;
using diablo::test::waitExit;

std::string
tmpPath(const std::string &name)
{
    return diablo::test::tmpPath("diablo_mp_", name);
}

/** The report line of @p text that starts with @p prefix ("" if none). */
std::string
reportLine(const std::string &text, const std::string &prefix)
{
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind(prefix, 0) == 0) {
            return line;
        }
    }
    return "";
}

/** The CI smoke scenario: 4 racks so the LPT split has real work on
 *  both ranks, small enough to finish in about a second. */
const char kMpIncast[] =
    " incast incast.servers=8 incast.racks=4 incast.iterations=5";

const char kFaultPlan[] =
    " fault.0.kind=trunk_down fault.0.at_us=200000 fault.0.rack=1"
    " fault.0.plane=0 fault.1.kind=trunk_up fault.1.at_us=900000"
    " fault.1.rack=1 fault.1.plane=0";

/** Counter @p key of the artifact's counter group @p group; -1 if absent. */
long long
groupCounter(const std::string &doc, const std::string &group,
             const std::string &key)
{
    const size_t at = doc.find("\"" + group + "\": {");
    if (at == std::string::npos) {
        return -1;
    }
    const std::string field = "\"" + key + "\": ";
    const size_t k = doc.find(field, at);
    if (k == std::string::npos || k > doc.find('}', at)) {
        return -1;
    }
    return std::strtoll(doc.c_str() + k + field.size(), nullptr, 10);
}

/**
 * Run @p extra (a CLI fault plan, or nothing) on the sequential engine
 * and on @p processes engine processes, and expect equal fingerprints.
 * A plan must bite: a plan both runs dropped would still match.
 */
void
expectCrossProcessFingerprintMatch(const std::string &tag,
                                   const std::string &extra,
                                   int processes = 2)
{
    const std::string procs = std::to_string(processes);
    const std::string seq_json = tmpPath(tag + "_seq.json");
    const std::string mp_json = tmpPath(tag + "_mp" + procs + ".json");
    const std::string seq_out = tmpPath(tag + "_seq.out");
    const std::string mp_out = tmpPath(tag + "_mp" + procs + ".out");
    ASSERT_EQ(runCmd(std::string(DIABLO_RUN_BIN) + kMpIncast + extra +
                     " --engine seq --json " + seq_json + " > " + seq_out +
                     " 2>&1"),
              0);
    ASSERT_EQ(runCmd(std::string(DIABLO_RUN_BIN) + kMpIncast + extra +
                     " --processes " + procs + " --json " + mp_json +
                     " > " + mp_out + " 2>&1"),
              0);

    // The leader's report prints the group's merged counters, the same
    // drops, RTOs and retransmits as the one-process run.
    const std::string seq_net = reportLine(slurp(seq_out), "network:");
    ASSERT_FALSE(seq_net.empty());
    EXPECT_EQ(seq_net, reportLine(slurp(mp_out), "network:"));

    const std::string seq_doc = slurp(seq_json);
    const std::string mp_doc = slurp(mp_json);
    const std::string seq_fp = fingerprintOf(seq_doc);
    ASSERT_FALSE(seq_fp.empty());
    EXPECT_EQ(seq_fp, fingerprintOf(mp_doc));
    // Every rank builds the full model, so mem is the leader's alone
    // and reads as the one-process run's.
    for (const char *key : {"materialized_nodes", "arena_bytes_reserved"}) {
        EXPECT_GT(groupCounter(seq_doc, "mem", key), 0) << key;
        EXPECT_EQ(groupCounter(seq_doc, "mem", key),
                  groupCounter(mp_doc, "mem", key))
            << key;
    }
    if (!extra.empty()) {
        EXPECT_EQ(groupCounter(seq_doc, "faults", "plan_events"), 2);
        EXPECT_GT(groupCounter(seq_doc, "faults", "link_down_drops"), 0);
    }

    // The merged artifact names the engine and records the transport
    // ledger in its own (non-folded) counter group.
    EXPECT_NE(mp_doc.find("\"name\": \"mp\""), std::string::npos);
    EXPECT_NE(mp_doc.find("\"mp\":"), std::string::npos);
    EXPECT_NE(mp_doc.find("\"sync_sent\":"), std::string::npos);
    EXPECT_NE(mp_doc.find("\"processes\": " + procs), std::string::npos);
    EXPECT_TRUE(diablo::analysis::RunArtifact::validate(mp_json).ok);
    for (const std::string &f : {seq_json, mp_json, seq_out, mp_out}) {
        std::remove(f.c_str());
    }
}

// The tentpole acceptance criterion, as CI runs it: 4-rack incast at
// --processes 2 fingerprints byte-identical to the one-process
// sequential reference.
TEST(MultiprocessRun, FingerprintMatchesSequential)
{
    expectCrossProcessFingerprintMatch("clean", "");
}

// Same with a CLI fault plan: every process installs the full plan and
// the replicated routing-view updates keep the merged ledgers exact.
TEST(MultiprocessRun, FingerprintMatchesSequentialUnderFaults)
{
    expectCrossProcessFingerprintMatch("faulted", kFaultPlan);
}

// Three ranks: the leader merges more than one child ledger.
TEST(MultiprocessRun, ThreeProcessesMatchSequential)
{
    expectCrossProcessFingerprintMatch("clean3", "", 3);
}

TEST(MultiprocessRun, ThreeProcessesMatchSequentialUnderFaults)
{
    expectCrossProcessFingerprintMatch("faulted3", kFaultPlan, 3);
}

// SIGTERM to the leader forwards to the spawned engine ranks; the
// group stops at one agreed window boundary and the leader finalizes
// an interrupted partial artifact with the interrupted exit code.
TEST(MultiprocessRun, SigtermForwardsToEngineChildren)
{
    const std::string json = tmpPath("sigterm.json");
    const std::string log = tmpPath("sigterm.log");
    std::remove(json.c_str());

    const pid_t pid = spawnRun(
        " incast incast.servers=96 incast.racks=12 incast.iterations=100"
        " incast.block_bytes=262144 --processes 2 --json " + json,
        log);
    ASSERT_GT(pid, 0);
    std::this_thread::sleep_for(500ms);
    ASSERT_EQ(kill(pid, SIGTERM), 0) << "run exited before the signal";
    EXPECT_EQ(waitExit(pid), diablo::core::kExitInterrupted);

    const std::string doc = slurp(json);
    EXPECT_NE(doc.find("\"status\": \"interrupted\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"interrupt_cause\": \"SIGTERM\""),
              std::string::npos);
    const auto v = diablo::analysis::RunArtifact::validate(json);
    EXPECT_FALSE(v.ok);
    EXPECT_EQ(v.status, "interrupted");
    std::remove(json.c_str());
    std::remove(log.c_str());
}

/** The first child pid listed for @p pid's main thread; 0 if none. */
pid_t
firstChildOf(pid_t pid)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/task/" +
                     std::to_string(pid) + "/children");
    long child = 0;
    return in >> child ? static_cast<pid_t>(child) : 0;
}

/**
 * Spawn the 12-rack --processes 2 incast (writing @p json unless it is
 * empty) and return the leader and its child rank once it has forked
 * one; the child is 0, and the leader already killed, if it never does.
 */
std::pair<pid_t, pid_t>
spawnGroup(const std::string &log, const std::string &json = "")
{
    const pid_t leader = spawnRun(
        " incast incast.servers=96 incast.racks=12 incast.iterations=100"
        " incast.block_bytes=262144 --processes 2" +
            (json.empty() ? std::string() : " --json " + json),
        log);
    pid_t child = 0;
    for (int i = 0; leader > 0 && i < 100 && child == 0; ++i) {
        std::this_thread::sleep_for(50ms);
        child = firstChildOf(leader);
    }
    if (leader > 0 && child == 0) {
        kill(leader, SIGKILL);
        waitExit(leader);
    }
    return {leader, child};
}

/** Reap @p pid within @p limit into @p status; false if it still runs. */
bool
reapWithin(pid_t pid, int *status, std::chrono::milliseconds limit)
{
    const auto deadline = std::chrono::steady_clock::now() + limit;
    pid_t reaped = 0;
    while (reaped == 0 && std::chrono::steady_clock::now() < deadline) {
        reaped = waitpid(pid, status, WNOHANG);
        if (reaped == 0) {
            std::this_thread::sleep_for(20ms);
        }
    }
    return reaped == pid;
}

// SIGKILL to the leader, which can forward nothing, takes its child
// rank down at once instead of leaving it to wait out the coupled-wait
// budget.  This test process is a subreaper for the run, so the
// orphaned rank is reparented here and can be reaped.
TEST(MultiprocessRun, ChildRankDiesWithItsLeader)
{
    ASSERT_EQ(prctl(PR_SET_CHILD_SUBREAPER, 1), 0);
    struct ClearSubreaper {
        ~ClearSubreaper() { prctl(PR_SET_CHILD_SUBREAPER, 0); }
    } clear_subreaper;

    const std::string log = tmpPath("pdeath.log");
    const auto [leader, child] = spawnGroup(log);
    ASSERT_GT(leader, 0);
    ASSERT_GT(child, 0) << "the leader forked no rank";
    std::this_thread::sleep_for(500ms); // let the ranks couple and run
    ASSERT_EQ(kill(leader, SIGKILL), 0);
    EXPECT_EQ(waitExit(leader), 128 + SIGKILL);

    int status = 0;
    if (!reapWithin(child, &status, 5s)) {
        ADD_FAILURE() << "rank " << child << " outlived its leader by 5 s";
        kill(child, SIGKILL);
        waitpid(child, &status, 0);
    } else {
        EXPECT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL);
    }
    std::remove(log.c_str());
}

// SIGKILL to the child rank, which can report nothing, stops the
// leader within a second instead of after the 60 s coupled-wait
// budget: the leader's SIGCHLD handler requests the cooperative stop
// and aborts its transports, so its coupled wait ends at once, and it
// finalizes a partial artifact.
TEST(MultiprocessRun, LeaderNoticesDeadRank)
{
    const std::string json = tmpPath("deadrank.json");
    const std::string log = tmpPath("deadrank.log");
    std::remove(json.c_str());
    const auto [leader, child] = spawnGroup(log, json);
    ASSERT_GT(leader, 0);
    ASSERT_GT(child, 0) << "the leader forked no rank";
    std::this_thread::sleep_for(500ms); // let the ranks couple and run
    ASSERT_EQ(kill(child, SIGKILL), 0);

    int status = 0;
    if (!reapWithin(leader, &status, 1s)) {
        kill(leader, SIGKILL);
        waitExit(leader);
        FAIL() << "the leader outlived its dead rank by 1 s";
    }
    EXPECT_TRUE(WIFEXITED(status) &&
                WEXITSTATUS(status) == diablo::core::kExitInterrupted)
        << "status " << status;
    const auto v = diablo::analysis::RunArtifact::validate(json);
    EXPECT_FALSE(v.ok);
    EXPECT_EQ(v.status, "interrupted");
    EXPECT_NE(slurp(json).find("\"interrupt_cause\": \"peer-interrupt\""),
              std::string::npos);
    std::remove(json.c_str());
    std::remove(log.c_str());
}

TEST(MultiprocessRun, RejectsUnsupportedCombinations)
{
    // AppData on in-flight packets cannot cross a process boundary.
    EXPECT_EQ(runCmd(std::string(DIABLO_RUN_BIN) +
                     " memcached --processes 2 > /dev/null 2>&1"),
              2);
    // Telemetry samplers read only the leader's partitions.
    EXPECT_EQ(runCmd(std::string(DIABLO_RUN_BIN) + kMpIncast +
                     " telemetry.period=10000 --processes 2"
                     " > /dev/null 2>&1"),
              2);
    // A process count needs to be a positive integer.
    EXPECT_EQ(runCmd(std::string(DIABLO_RUN_BIN) + kMpIncast +
                     " --processes 0 > /dev/null 2>&1"),
              2);
    EXPECT_EQ(runCmd(std::string(DIABLO_RUN_BIN) + kMpIncast +
                     " --processes abc > /dev/null 2>&1"),
              2);
    // One rack = one partition: nothing to split across processes.
    EXPECT_EQ(runCmd(std::string(DIABLO_RUN_BIN) +
                     " incast incast.servers=2 incast.racks=1"
                     " --processes 2 > /dev/null 2>&1"),
              2);
}

} // namespace
