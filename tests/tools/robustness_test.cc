/**
 * @file
 * Unattended-operation end-to-end tests: SIGTERM and watchdog runs
 * must finalize valid "interrupted" partial artifacts, and a sweep
 * with timed-out / crashed grid points must exit with the partial
 * code and come back green under --resume with the engine
 * fingerprint cross-check intact.
 *
 * The long scenario (96-server incast, 256 KiB blocks) runs ~2 s of
 * wall clock before any cap, so a signal sent a few hundred ms in
 * always lands mid-run; the short scenario finishes in tens of ms.
 */

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>

#include "analysis/artifact.hh"
#include "core/interrupt.hh"
#include "tools/tool_test_util.hh"

namespace {

using namespace std::chrono_literals;

using diablo::test::runCmd;
using diablo::test::slurp;
using diablo::test::spawnRun;
using diablo::test::waitExit;

std::string
tmpPath(const std::string &name)
{
    return diablo::test::tmpPath("diablo_robust_", name);
}

/** A run that takes ~2 s wall — long enough to interrupt reliably;
 *  append the engine. */
const char kSlowIncastRun[] =
    " incast incast.servers=96 incast.racks=12 incast.iterations=100"
    " incast.block_bytes=262144";
const std::string kSlowIncast = std::string(kSlowIncastRun) +
                                " --engine seq";

TEST(RunInterrupt, SigtermFinalizesAValidPartialArtifact)
{
    // Every engine polls the interrupt flag between windows.
    for (const char *engine : {"seq", "single"}) {
        SCOPED_TRACE(engine);
        const std::string json = tmpPath("sigterm.json");
        const std::string log = tmpPath("sigterm.log");
        std::remove(json.c_str());

        const pid_t pid = spawnRun(std::string(kSlowIncastRun) +
                                       " --engine " + engine +
                                       " --json " + json,
                                   log);
        ASSERT_GT(pid, 0);
        std::this_thread::sleep_for(300ms);
        ASSERT_EQ(kill(pid, SIGTERM), 0) << "run exited before the signal";
        EXPECT_EQ(waitExit(pid), diablo::core::kExitInterrupted);

        // The partial artifact is complete JSON with status/cause/
        // fingerprint — but validate() must refuse it for resume.
        const std::string doc = slurp(json);
        EXPECT_NE(doc.find("\"status\": \"interrupted\""),
                  std::string::npos);
        EXPECT_NE(doc.find("\"interrupt_cause\": \"SIGTERM\""),
                  std::string::npos);
        EXPECT_NE(doc.find("\n  \"fingerprint\": \"0x"),
                  std::string::npos);
        const auto v = diablo::analysis::RunArtifact::validate(json);
        EXPECT_FALSE(v.ok);
        EXPECT_EQ(v.status, "interrupted");
        EXPECT_FALSE(v.fingerprint.empty());
        std::remove(json.c_str());
        std::remove(log.c_str());
    }
}

TEST(RunInterrupt, WatchdogDeadlineAbortsWithDiagnostic)
{
    const std::string json = tmpPath("deadline.json");
    const std::string log = tmpPath("deadline.log");
    const std::string cmd = std::string(DIABLO_RUN_BIN) + kSlowIncast +
                            " run.deadline=0.4 --json " + json + " > " +
                            log + " 2>&1";
    EXPECT_EQ(runCmd(cmd), diablo::core::kExitWatchdog);

    const std::string doc = slurp(json);
    EXPECT_NE(doc.find("\"status\": \"interrupted\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"interrupt_cause\": \"watchdog-deadline\""),
              std::string::npos);
    // The watchdog dumped its best-effort engine diagnostic.
    const std::string out = slurp(log);
    EXPECT_NE(out.find("watchdog: deadline tripped"),
              std::string::npos);
    EXPECT_NE(out.find("engine state at deadline trip"),
              std::string::npos);
    std::remove(json.c_str());
    std::remove(log.c_str());
}

TEST(RunInterrupt, GenerousWatchdogIsObserverFree)
{
    // Fingerprint parity: armed-but-untripped watchdog vs no watchdog.
    const std::string j1 = tmpPath("wd_off.json");
    const std::string j2 = tmpPath("wd_on.json");
    const char kTiny[] =
        " incast incast.servers=2 incast.iterations=2"
        " incast.block_bytes=8192";
    ASSERT_EQ(runCmd(std::string(DIABLO_RUN_BIN) + kTiny + " --json " +
                     j1 + " > /dev/null 2>&1"),
              0);
    ASSERT_EQ(runCmd(std::string(DIABLO_RUN_BIN) + kTiny +
                     " run.deadline=600 run.stall=60 --json " + j2 +
                     " > /dev/null 2>&1"),
              0);
    const auto v1 = diablo::analysis::RunArtifact::validate(j1);
    const auto v2 = diablo::analysis::RunArtifact::validate(j2);
    ASSERT_TRUE(v1.ok) << v1.error;
    ASSERT_TRUE(v2.ok) << v2.error;
    EXPECT_EQ(v1.fingerprint, v2.fingerprint);
    std::remove(j1.c_str());
    std::remove(j2.c_str());
}

/** Shared spec for the sweep tests: 4 grid points, two of them slow
 *  enough (~1 s) that a sub-second timeout reliably kills them.  The
 *  fast points are kept tiny (~20 ms) so that, even with the parallel
 *  engine's workers oversubscribed by other loaded test binaries, they
 *  still finish well inside that timeout. */
void
writeMixSpec(const std::string &path)
{
    std::ofstream out(path);
    out << "sweep.name = robustness\n"
        << "workload = incast\n"
        << "engine = seq,par\n"
        << "incast.block_bytes = 1024,262144\n"
        << "incast.servers = 32\n"
        << "incast.racks = 4\n"
        << "incast.iterations = 20\n"
        << "sweep.jobs = 2\n";
}

TEST(SweepRobustness, TimeoutKillAndResumeEndToEnd)
{
    const std::string dir = tmpPath("sweep");
    const std::string spec = tmpPath("sweep.spec");
    writeMixSpec(spec);
    runCmd("rm -rf " + dir);

    // Pass 1: a timeout far below the slow points' ~1 s wall clock
    // kills them (SIGTERM -> partial artifact); the fast points
    // complete.  Exit: the partial-failure code, not 1.
    const std::string pass1 = std::string(DIABLO_SWEEP_BIN) + " " +
                              spec + " --out " + dir +
                              " --timeout 0.4 > " + dir + "_p1.log 2>&1";
    EXPECT_EQ(runCmd(pass1), diablo::core::kExitSweepPartial);
    const std::string rep1 = slurp(dir + "/report.json");
    EXPECT_NE(rep1.find("\"status\": \"timeout\""), std::string::npos);
    EXPECT_NE(rep1.find("\"status\": \"ok\""), std::string::npos);
    EXPECT_NE(rep1.find("\"ok\": false"), std::string::npos);

    // Simulate an externally SIGKILLed job: truncate one completed
    // artifact into debris a resume must detect and re-run.
    const std::string victim =
        dir + "/run000_engine_seq_incast.block_bytes_1024.json";
    {
        const std::string doc = slurp(victim);
        std::FILE *f = std::fopen(victim.c_str(), "w");
        ASSERT_NE(f, nullptr);
        std::fwrite(doc.data(), 1, doc.size() / 3, f);
        std::fclose(f);
    }

    // Pass 2: --resume re-runs only the debris + timed-out points and
    // the whole sweep comes back green, cross-checks intact.
    const std::string pass2 = std::string(DIABLO_SWEEP_BIN) + " " +
                              spec + " --resume " + dir +
                              " --timeout 120 > " + dir +
                              "_p2.log 2>&1";
    EXPECT_EQ(runCmd(pass2), 0);
    const std::string out2 = slurp(dir + "_p2.log");
    EXPECT_NE(out2.find("resume: 1/4 grid points already valid"),
              std::string::npos)
        << out2;
    const std::string rep2 = slurp(dir + "/report.json");
    EXPECT_NE(rep2.find("\"status\": \"skipped-resume\""),
              std::string::npos);
    EXPECT_EQ(rep2.find("\"status\": \"timeout\""), std::string::npos);
    EXPECT_NE(rep2.find("\"ok\": true"), std::string::npos);
    EXPECT_EQ(rep2.find("\"match\": false"), std::string::npos);
    // Both engine groups cross-checked (skipped + re-run mixed).
    EXPECT_NE(rep2.find("\"match\": true"), std::string::npos);
    runCmd("rm -rf " + dir + " " + dir + "_p1.log " + dir + "_p2.log " +
           spec);
}

TEST(SweepRobustness, RetriesPromoteFlakyJobsToGreen)
{
    const std::string dir = tmpPath("retry");
    const std::string spec = tmpPath("retry.spec");
    const std::string flaky = tmpPath("flaky.sh");
    const std::string markers = tmpPath("markers");
    runCmd("rm -rf " + dir + " " + markers);
    ASSERT_EQ(mkdir(markers.c_str(), 0755), 0);
    {
        std::ofstream out(spec);
        out << "workload = incast\n"
            << "engine = seq,par\n"
            << "incast.servers = 2\n"
            << "incast.iterations = 2\n"
            << "incast.block_bytes = 8192\n"
            << "sweep.retries = 2\n"
            << "sweep.backoff = 0.05\n";
    }
    {
        // Wrapper runner: fail each grid point's first attempt, then
        // delegate to the real diablo_run.
        std::ofstream out(flaky);
        out << "#!/bin/sh\n"
            << "art=\"\"\n"
            << "prev=\"\"\n"
            << "for a in \"$@\"; do\n"
            << "  [ \"$prev\" = \"--json\" ] && art=\"$a\"\n"
            << "  prev=\"$a\"\n"
            << "done\n"
            << "m=" << markers
            << "/$(basename \"$art\" | sed 's/\\.r[0-9]*//')\n"
            << "if [ ! -e \"$m\" ]; then\n"
            << "  : > \"$m\"\n"
            << "  echo 'flaky: injected failure' >&2\n"
            << "  exit 1\n"
            << "fi\n"
            << "exec " << DIABLO_RUN_BIN << " \"$@\"\n";
    }
    ASSERT_EQ(chmod(flaky.c_str(), 0755), 0);

    const std::string cmd = std::string(DIABLO_SWEEP_BIN) + " " + spec +
                            " --out " + dir + " --runner " + flaky +
                            " > " + dir + ".log 2>&1";
    EXPECT_EQ(runCmd(cmd), 0);
    const std::string rep = slurp(dir + "/report.json");
    EXPECT_NE(rep.find("\"status\": \"retried\""), std::string::npos);
    EXPECT_NE(rep.find("\"attempts\": 2"), std::string::npos);
    EXPECT_NE(rep.find("\"ok\": true"), std::string::npos);
    EXPECT_EQ(rep.find("\"match\": false"), std::string::npos);
    runCmd("rm -rf " + dir + " " + dir + ".log " + spec + " " + flaky +
           " " + markers);
}

TEST(SweepRobustness, HostileInputsFailFastWithANamedError)
{
    const std::string spec = tmpPath("hostile.spec");
    const std::string log = tmpPath("hostile.log");
    const std::string dir = tmpPath("hostile");
    struct Case {
        const char *spec;  ///< the spec file's text
        const char *flags; ///< appended to the command line
        const char *name;  ///< the key or flag the error must name
        int exit_code;
    };
    // `workload = bogus` fails every attempt, so an unbounded retry
    // count would loop until killed; the other specs are healthy and
    // only dry-run.  The external timeout bounds a hang.
    const Case cases[] = {
        {"workload = bogus\nsweep.retries = -1\nsweep.backoff = 0\n", "",
         "sweep.retries", 1},
        {"workload = incast\nsweep.jobs = four\n", " --dry-run",
         "sweep.jobs", 1},
        {"workload = incast\nsweep.timeout = 5x\n", " --dry-run",
         "sweep.timeout", 1},
        {"workload = incast\nsweep.jobs = 1,2\n", " --dry-run",
         "sweep.jobs", 1},
        {"workload = incast\n", " --dry-run --jobs four", "--jobs", 2},
        {"workload = incast\n", " --dry-run --timeout abc", "--timeout", 2},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.name);
        {
            std::ofstream out(spec);
            out << c.spec;
        }
        runCmd("rm -rf " + dir);
        const auto t0 = std::chrono::steady_clock::now();
        const int rc = runCmd("timeout 10 " + std::string(DIABLO_SWEEP_BIN) +
                              " " + spec + " --out " + dir + c.flags +
                              " > " + log + " 2>&1");
        EXPECT_LT(std::chrono::steady_clock::now() - t0, 1s);
        EXPECT_EQ(rc, c.exit_code);
        const std::string out = slurp(log);
        EXPECT_NE(out.find(c.name), std::string::npos) << out;
    }
    runCmd("rm -rf " + dir + " " + spec + " " + log);
}

} // namespace
