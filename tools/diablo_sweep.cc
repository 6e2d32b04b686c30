/**
 * @file
 * diablo_sweep: scenario-grid orchestrator over diablo_run.
 *
 * Reads a sweep spec — a key=value file in Config::fromFile's format
 * ('#' comments, whitespace trimmed, a repeated key is an error) —
 * where any comma-separated value becomes a grid axis, expands the
 * cross product, and fork/execs one `diablo_run --json` job per grid
 * point with a concurrency cap.  Per-run artifacts and logs land in the
 * run directory; afterwards the artifacts are merged into a comparison
 * table (stdout) and a machine-readable report.json.
 *
 *   # incast_sweep.spec
 *   workload = incast
 *   engine = seq,par            # axis: engines to cross-check
 *   incast.servers = 8,16       # axis: model parameter grid
 *   incast.iterations = 5
 *   sweep.jobs = 4
 *
 *   diablo_sweep incast_sweep.spec --out sweep-out
 *
 * Special keys: `workload` (required) selects the experiment;
 * `engine`, `threads`, and `fault_plan` map to the corresponding
 * diablo_run flags; `sweep.*` keys are controls, never axes: each takes
 * exactly one value, read by Config's strict typed getters, and an
 * unknown one is an error.  `sweep.jobs` (a positive integer; --jobs
 * overrides) caps concurrent jobs; `sweep.name` names the run
 * directory's report.  Every other key is passed through as a model
 * override, and a job whose key nothing reads exits 2 (diablo_run).
 *
 * Unattended operation: the sweep is built to survive wedged, killed,
 * and flaky grid points without torching the campaign.
 *  - `sweep.timeout = <s>` (--timeout overrides; 0 = none) bounds each
 *    job's wall clock; an overdue job gets SIGTERM — letting diablo_run
 *    finalize a partial artifact — then SIGKILL after `sweep.grace`
 *    seconds (default 5).
 *  - `sweep.retries = <n>` (at most kMaxRetries) re-runs a failed or
 *    timed-out point up to n more times with exponential backoff:
 *    retry k waits `sweep.backoff` × 2^(k-1) seconds (base default 1).
 *    Every duration is a finite number ≥ 0.  Retry attempts write to
 *    per-attempt log and artifact paths; a winning retry's artifact is
 *    renamed onto the canonical path, so downstream consumers never
 *    see attempt suffixes.
 *  - `--resume <dir>` re-opens a previous run directory and skips
 *    every grid point whose artifact passes RunArtifact::validate —
 *    only missing, truncated, or interrupted points re-run, and the
 *    seq≡par fingerprint cross-check spans skipped and fresh runs
 *    alike.  validate also returns the headline results the table and
 *    report show, so each artifact is read once.
 *  - fork() EAGAIN backs off and retries instead of aborting the
 *    sweep, and the scheduler's waitpid tolerates EINTR.
 *
 * Determinism cross-check: grid points identical except for `engine`
 * form a group, and their artifact fingerprints must be equal — the
 * seq≡par contract checked end-to-end through the CLI.  Exit code:
 * 0 all green; 1 on a fingerprint mismatch (determinism bug — never
 * masked) or a malformed spec; 2 on a malformed command line;
 * core::kExitSweepPartial (3) when some jobs failed or timed out but
 * the rest completed; core::kExitInterrupted when the sweep itself was
 * interrupted (children are SIGTERMed and reaped first).
 */

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "analysis/artifact.hh"
#include "analysis/json_writer.hh"
#include "analysis/report.hh"
#include "core/config.hh"
#include "core/interrupt.hh"
#include "core/log.hh"

using namespace diablo;

namespace {

using Clock = std::chrono::steady_clock;

/** One spec entry; values.size() > 1 makes it a grid axis. */
struct Axis {
    std::string key;
    std::vector<std::string> values;
};

/** Parsed sweep spec: axes in file order plus the sweep.* controls. */
struct Spec {
    std::vector<Axis> axes;
    size_t jobs = 4;
    std::string name = "sweep";
    double timeout_s = 0.0; ///< per-job wall-clock bound; 0 = none
    double grace_s = 5.0;   ///< SIGTERM → SIGKILL escalation delay
    size_t retries = 0;     ///< extra attempts per failed grid point
    double backoff_s = 1.0; ///< retry delay base, doubled per attempt
};

/**
 * Retry k waits backoff × 2^(k-1): this bound keeps that factor at most
 * 2^62 and a failing point's attempts few enough to finish.
 */
constexpr uint64_t kMaxRetries = 63;

Spec
parseSpec(const std::string &path)
{
    std::vector<std::string> order;
    const Config cfg = Config::fromFile(path, &order);
    Spec spec;
    auto seconds = [&](const char *key, double def) {
        const double s = cfg.getDouble(key, def);
        if (!(std::isfinite(s) && s >= 0.0)) {
            fatal("diablo_sweep: %s: %s = %s is not a finite number >= 0",
                  path.c_str(), key, cfg.getString(key, "").c_str());
        }
        return s;
    };
    spec.jobs = cfg.getUint("sweep.jobs", spec.jobs);
    if (spec.jobs == 0) {
        fatal("diablo_sweep: %s: sweep.jobs must be at least 1",
              path.c_str());
    }
    spec.name = cfg.getString("sweep.name", spec.name);
    spec.timeout_s = seconds("sweep.timeout", spec.timeout_s);
    spec.grace_s = seconds("sweep.grace", spec.grace_s);
    spec.backoff_s = seconds("sweep.backoff", spec.backoff_s);
    spec.retries = cfg.getUint("sweep.retries", spec.retries);
    if (spec.retries > kMaxRetries) {
        fatal("diablo_sweep: %s: sweep.retries = %zu is above %llu "
              "(retry k waits sweep.backoff x 2^(k-1))",
              path.c_str(), spec.retries,
              static_cast<unsigned long long>(kMaxRetries));
    }
    // The controls above are every sweep.* key there is.
    for (const std::string &key : cfg.unread("sweep.")) {
        fatal("diablo_sweep: %s: unknown key '%s'", path.c_str(),
              key.c_str());
    }
    for (const std::string &key : order) {
        const std::string value = cfg.getString(key, "");
        if (key.rfind("sweep.", 0) == 0) {
            if (value.find(',') != std::string::npos) {
                fatal("diablo_sweep: %s: %s takes one value, got '%s'",
                      path.c_str(), key.c_str(), value.c_str());
            }
            continue;
        }
        // Comma-separated values expand into a grid axis; the reader
        // trimmed the line's ends, this trims around each comma.
        Axis a{key, {}};
        for (size_t pos = 0;;) {
            const size_t comma = std::min(value.find(',', pos), value.size());
            const size_t first = value.find_first_not_of(" \t\r\n", pos);
            if (first >= comma) {
                fatal("diablo_sweep: %s: empty value in '%s'", path.c_str(),
                      key.c_str());
            }
            const size_t last = value.find_last_not_of(" \t\r\n", comma - 1);
            a.values.push_back(value.substr(first, last - first + 1));
            if (comma == value.size()) {
                break;
            }
            pos = comma + 1;
        }
        spec.axes.push_back(std::move(a));
    }
    if (!cfg.has("workload")) {
        fatal("diablo_sweep: spec '%s' does not set 'workload'",
              path.c_str());
    }
    return spec;
}

/** One expanded grid point plus everything its job produced. */
struct Job {
    std::vector<std::pair<std::string, std::string>> assign;
    std::string label;    ///< axis assignments only ("base" if none)
    std::string name;     ///< filesystem-safe run name
    std::string json;     ///< canonical artifact path
    std::string log;      ///< log of the attempt that produced the result
    std::vector<std::string> argv; ///< canonical argv (attempt 1 paths)
    pid_t pid = -1;
    int exit_code = -1;

    /** The artifact's validation: ok with its headline results. */
    analysis::RunArtifact::Validation result;

    // Fault-tolerance state.
    std::string status;        ///< ok|failed|timeout|retried|skipped-resume
    size_t attempts = 0;       ///< spawn attempts made so far
    std::string attempt_json;  ///< this attempt's artifact path
    std::string attempt_log;   ///< this attempt's log path
    bool timed_out = false;    ///< this attempt hit sweep.timeout
    bool term_sent = false;    ///< SIGTERM already sent this attempt
    Clock::time_point deadline;      ///< valid iff timeout_s > 0
    Clock::time_point kill_at;       ///< valid iff term_sent
    Clock::time_point earliest_start; ///< retry backoff gate

    std::string
    get(const std::string &key) const
    {
        for (const auto &[k, v] : assign) {
            if (k == key) {
                return v;
            }
        }
        return "";
    }
};

std::string
sanitize(const std::string &s)
{
    std::string out;
    for (char c : s) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '.' || c == '-';
        out.push_back(ok ? c : '_');
    }
    return out;
}

/** Expand the axes' cross product, first axis slowest. */
std::vector<Job>
expandGrid(const Spec &spec, const std::string &out_dir,
           const std::string &runner)
{
    size_t total = 1;
    for (const Axis &a : spec.axes) {
        total *= a.values.size();
    }
    std::vector<Job> jobs;
    for (size_t idx = 0; idx < total; ++idx) {
        Job j;
        size_t rem = idx;
        for (size_t ai = spec.axes.size(); ai-- > 0;) {
            const Axis &a = spec.axes[ai];
            j.assign.emplace_back(a.key,
                                  a.values[rem % a.values.size()]);
            rem /= a.values.size();
        }
        std::reverse(j.assign.begin(), j.assign.end());
        for (size_t ai = 0; ai < spec.axes.size(); ++ai) {
            if (spec.axes[ai].values.size() > 1) {
                if (!j.label.empty()) {
                    j.label += ",";
                }
                j.label += spec.axes[ai].key + "=" + j.assign[ai].second;
            }
        }
        if (j.label.empty()) {
            j.label = "base";
        }
        char num[32];
        std::snprintf(num, sizeof(num), "run%03zu", idx);
        j.name = std::string(num) + "_" + sanitize(j.label);
        j.json = out_dir + "/" + j.name + ".json";
        j.log = out_dir + "/" + j.name + ".log";

        j.argv.push_back(runner);
        j.argv.push_back(j.get("workload"));
        j.argv.push_back("--json");
        j.argv.push_back(j.json);
        for (const auto &[k, v] : j.assign) {
            if (k == "workload") {
                continue;
            }
            if (k == "engine") {
                j.argv.push_back("--engine");
                j.argv.push_back(v);
            } else if (k == "threads") {
                j.argv.push_back("--threads");
                j.argv.push_back(v);
            } else if (k == "fault_plan") {
                j.argv.push_back("--fault-plan");
                j.argv.push_back(v);
            } else {
                j.argv.push_back(k + "=" + v);
            }
        }
        jobs.push_back(std::move(j));
    }
    return jobs;
}

/**
 * Set the attempt-local artifact/log paths for attempt @p attempt
 * (1-based).  Attempt 1 uses the canonical paths; retries get a
 * ".rN" suffix so a retry never races the previous attempt's files,
 * and a winning retry's artifact is renamed onto the canonical path.
 */
void
setAttemptPaths(Job &j, size_t attempt)
{
    if (attempt <= 1) {
        j.attempt_json = j.json;
        j.attempt_log = j.log;
        return;
    }
    char suf[32];
    std::snprintf(suf, sizeof(suf), ".r%zu", attempt - 1);
    const size_t jdot = j.json.rfind(".json");
    const size_t ldot = j.log.rfind(".log");
    j.attempt_json = j.json.substr(0, jdot) + suf + ".json";
    j.attempt_log = j.log.substr(0, ldot) + suf + ".log";
}

/** Longest wait, a year: keeps the clock arithmetic in range. */
constexpr double kMaxWaitS = 365.0 * 24 * 3600;

/** @p s seconds (finite, >= 0, capped at kMaxWaitS) after @p now. */
Clock::time_point
after(Clock::time_point now, double s)
{
    return now + std::chrono::microseconds(
                     static_cast<int64_t>(std::min(s, kMaxWaitS) * 1e6));
}

/** Sleep @p ms milliseconds, restarting across EINTR. */
void
sleepMs(long ms)
{
    struct timespec ts;
    ts.tv_sec = ms / 1000;
    ts.tv_nsec = (ms % 1000) * 1000000L;
    while (nanosleep(&ts, &ts) != 0 && errno == EINTR) {
    }
}

/**
 * fork/exec one job with stdout+stderr redirected to its attempt's
 * log file.  A transient fork EAGAIN (pid/thread pressure from the
 * concurrent children) backs off and retries instead of killing the
 * whole sweep; a persistent failure returns -1 and the caller treats
 * it like a failed attempt, feeding the normal retry machinery.
 */
pid_t
spawnJob(const Job &j)
{
    // Flush before forking so the child doesn't replay the parent's
    // buffered output into its log (or the terminal).
    std::fflush(stdout);
    std::fflush(stderr);
    pid_t pid = -1;
    for (int attempt = 0;; ++attempt) {
        pid = fork();
        if (pid >= 0) {
            break;
        }
        if (errno != EAGAIN || attempt >= 6) {
            std::fprintf(stderr, "diablo_sweep: fork: %s\n",
                         std::strerror(errno));
            return -1;
        }
        sleepMs(50L << attempt); // 50ms..1.6s, ~3s total
    }
    if (pid != 0) {
        // Mirror the child's setpgid so a signal sent between fork and
        // the child's own call still reaches the group (whichever side
        // runs first creates it; EACCES after exec means it's done).
        setpgid(pid, pid);
        return pid;
    }
    // Child.  Lead a fresh process group so the sweep's signals reach
    // the whole engine family: a multiprocess diablo_run (--processes)
    // spawns child ranks, and a SIGTERM to the group lets every rank
    // finalize, not just the launcher.
    setpgid(0, 0);
    // Keep a copy of the original stderr (close-on-exec so it
    // never leaks into diablo_run) to report redirection failures —
    // otherwise a bad log path exits 127 with no trace anywhere.
    const int saved_err = dup(STDERR_FILENO);
    if (saved_err >= 0) {
        fcntl(saved_err, F_SETFD, FD_CLOEXEC);
    }
    auto childDie = [&](const char *what) {
        if (saved_err >= 0) {
            dprintf(saved_err, "diablo_sweep: %s: %s: %s\n", j.name.c_str(),
                    what, std::strerror(errno));
        }
        std::_Exit(127);
    };
    if (std::freopen(j.attempt_log.c_str(), "w", stdout) == nullptr) {
        childDie(("cannot open log " + j.attempt_log).c_str());
    }
    if (dup2(fileno(stdout), fileno(stderr)) < 0) {
        childDie("dup2 stderr onto log");
    }
    std::vector<char *> argv;
    for (size_t i = 0; i < j.argv.size(); ++i) {
        // Point --json at the attempt-local artifact path.
        const bool is_json_val = i > 0 && j.argv[i - 1] == "--json";
        argv.push_back(const_cast<char *>(
            is_json_val ? j.attempt_json.c_str() : j.argv[i].c_str()));
    }
    argv.push_back(nullptr);
    execvp(argv[0], argv.data());
    std::fprintf(stderr, "diablo_sweep: exec %s: %s\n", argv[0],
                 std::strerror(errno));
    std::_Exit(127);
}

/** Grid points differing only in `engine` must fingerprint-match. */
struct CrossCheck {
    std::string label; ///< the group's non-engine assignments
    std::vector<const Job *> runs;
    bool match = true;
};

std::vector<CrossCheck>
crossCheckEngines(const std::vector<Job> &jobs)
{
    std::map<std::string, CrossCheck> groups;
    for (const Job &j : jobs) {
        if (j.get("engine").empty()) {
            continue;
        }
        // A run with no artifact already counts against the sweep as a
        // failure; only completed runs can witness a determinism bug.
        if (!j.result.ok) {
            continue;
        }
        std::string key;
        for (const auto &[k, v] : j.assign) {
            if (k != "engine") {
                key += k + "=" + v + ",";
            }
        }
        CrossCheck &g = groups[key];
        g.label = key.empty() ? "base"
                              : key.substr(0, key.size() - 1);
        g.runs.push_back(&j);
    }
    std::vector<CrossCheck> out;
    for (auto &[key, g] : groups) {
        if (g.runs.size() < 2) {
            continue;
        }
        for (const Job *r : g.runs) {
            if (r->result.fingerprint != g.runs[0]->result.fingerprint) {
                g.match = false;
            }
        }
        out.push_back(std::move(g));
    }
    return out;
}

void
writeReport(const std::string &path, const Spec &spec,
            const std::vector<Job> &jobs,
            const std::vector<CrossCheck> &checks, bool ok)
{
    analysis::JsonWriter w(/*pretty=*/true);
    w.beginObject();
    w.field("schema", 1);
    w.field("sweep", spec.name);
    w.field("ok", ok);
    w.beginArray("runs");
    for (const Job &j : jobs) {
        w.beginObject();
        w.field("name", j.name);
        w.field("label", j.label);
        w.field("status", j.status.empty() ? "not-run" : j.status);
        w.field("attempts", static_cast<uint64_t>(j.attempts));
        w.field("exit_code", j.exit_code);
        w.field("artifact", j.json);
        w.field("log", j.log);
        w.beginObject("params");
        for (const auto &[k, v] : j.assign) {
            w.field(k, v);
        }
        w.endObject();
        if (j.result.ok) {
            w.field("elapsed_us", j.result.elapsed_us);
            w.field("goodput_mbps", j.result.goodput_mbps);
            w.field("requests_completed", j.result.requests_completed);
            w.field("p99_us", j.result.p99_us);
            w.field("fingerprint", j.result.fingerprint);
        }
        w.endObject();
    }
    w.endArray();
    w.beginArray("engine_cross_checks");
    for (const CrossCheck &c : checks) {
        w.beginObject();
        w.field("group", c.label);
        w.field("match", c.match);
        w.beginArray("runs");
        for (const Job *r : c.runs) {
            w.beginObject();
            w.field("name", r->name);
            w.field("engine", r->get("engine"));
            w.field("fingerprint", r->result.fingerprint);
            w.endObject();
        }
        w.endArray();
        w.endObject();
    }
    w.endArray();
    w.endObject();
    w.writeFile(path);
}

/** Directory holding this binary, so diablo_run resolves beside it. */
std::string
selfDir()
{
    char buf[4096];
    const ssize_t n = readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n <= 0) {
        return "";
    }
    buf[n] = '\0';
    char *slash = std::strrchr(buf, '/');
    if (slash == nullptr) {
        return "";
    }
    *slash = '\0';
    return buf;
}

/**
 * Reap one exited child without blocking.  Returns the pid (> 0), 0
 * when children exist but none has exited, or -1 when there are no
 * children at all.  EINTR restarts the syscall — a signal must never
 * kill a sweep with live children.
 */
pid_t
reapOne(int *status)
{
    while (true) {
        const pid_t pid = waitpid(-1, status, WNOHANG);
        if (pid >= 0) {
            return pid;
        }
        if (errno == EINTR) {
            continue;
        }
        if (errno == ECHILD) {
            return -1;
        }
        fatal("diablo_sweep: waitpid: %s", std::strerror(errno));
    }
}

} // namespace

int
main(int argc, char **argv)
{
    const char *spec_path = nullptr;
    std::string out_dir = "sweep-out";
    std::string runner;
    uint64_t jobs_flag = 0;
    bool dry_run = false;
    bool resume = false;
    double timeout_flag = -1.0;
    const char *usage =
        "usage: %s <spec> [--out <dir>] [--resume <dir>] [--jobs N] "
        "[--timeout <s>] [--runner <diablo_run>] [--dry-run]\n";
    FlagReader f(argc, argv, 1);
    while (f.more()) {
        if (const char *v = f.value("--out")) {
            out_dir = v;
            continue;
        }
        if (const char *v = f.value("--resume")) {
            out_dir = v;
            resume = true;
            continue;
        }
        if (f.value("--jobs", &jobs_flag, 1) ||
            f.value("--timeout", &timeout_flag)) {
            continue;
        }
        if (const char *v = f.value("--runner")) {
            runner = v;
            continue;
        }
        if (f.take("--dry-run")) {
            dry_run = true;
            continue;
        }
        const char *arg = f.next();
        if (spec_path == nullptr && arg[0] != '-') {
            spec_path = arg;
            continue;
        }
        std::fprintf(stderr, usage, argv[0]);
        return 2;
    }
    if (spec_path == nullptr) {
        std::fprintf(stderr, usage, argv[0]);
        return 2;
    }

    Spec spec = parseSpec(spec_path);
    if (jobs_flag != 0) {
        spec.jobs = jobs_flag;
    }
    if (timeout_flag >= 0.0) {
        spec.timeout_s = timeout_flag;
    }
    if (runner.empty()) {
        const std::string dir = selfDir();
        runner = dir.empty() ? "diablo_run" : dir + "/diablo_run";
    }
    if (mkdir(out_dir.c_str(), 0755) != 0 && errno != EEXIST) {
        fatal("diablo_sweep: mkdir %s: %s", out_dir.c_str(),
              std::strerror(errno));
    }

    core::installInterruptHandlers();

    std::vector<Job> jobs = expandGrid(spec, out_dir, runner);
    std::printf("sweep '%s': %zu grid points, %zu concurrent, out=%s\n",
                spec.name.c_str(), jobs.size(), spec.jobs,
                out_dir.c_str());
    if (dry_run) {
        for (const Job &j : jobs) {
            std::string cmd;
            for (const std::string &a : j.argv) {
                cmd += (cmd.empty() ? "" : " ") + a;
            }
            std::printf("  %s\n", cmd.c_str());
        }
        return 0;
    }

    // Resume pass: a grid point whose canonical artifact validates is
    // already done — keep its results and skip the run.  Invalid or
    // missing artifacts (debris from a crash, "interrupted" partials,
    // timed-out points) re-run below on their usual paths; the atomic
    // artifact write makes overwriting the debris safe.
    if (resume) {
        size_t skipped = 0;
        for (Job &j : jobs) {
            j.result = analysis::RunArtifact::validate(j.json);
            if (j.result.ok) {
                j.status = "skipped-resume";
                j.exit_code = 0;
                ++skipped;
            } else if (j.result.error.find("cannot read") ==
                       std::string::npos) {
                std::printf("%s: re-running (%s)\n", j.label.c_str(),
                            j.result.error.c_str());
            }
        }
        std::printf("resume: %zu/%zu grid points already valid, "
                    "re-running %zu\n",
                    skipped, jobs.size(), jobs.size() - skipped);
    }

    // Bounded-concurrency fault-tolerant scheduler: keep up to
    // spec.jobs children alive; poll (never block) so per-job
    // deadlines, retry backoff, and interrupts stay responsive.
    std::vector<Job *> pending;
    for (Job &j : jobs) {
        if (j.status.empty()) {
            pending.push_back(&j);
        }
    }
    std::map<pid_t, Job *> live;
    size_t failed = 0;
    bool interrupted = false;
    const size_t total_to_run = pending.size();
    size_t done_count = 0;
    size_t started_count = 0;

    auto finishJob = [&](Job &j, const Clock::time_point &now) {
        if (j.exit_code == 0) {
            j.result = analysis::RunArtifact::validate(j.attempt_json);
            if (!j.result.ok) {
                std::fprintf(stderr, "diablo_sweep: %s\n",
                             j.result.error.c_str());
            }
        }
        if (j.exit_code == 0 && j.result.ok) {
            if (j.attempts > 1) {
                // Promote the winning retry's artifact to the
                // canonical path (same-directory rename: atomic).
                if (std::rename(j.attempt_json.c_str(),
                                j.json.c_str()) != 0) {
                    fatal("diablo_sweep: rename %s -> %s: %s",
                          j.attempt_json.c_str(), j.json.c_str(),
                          std::strerror(errno));
                }
                j.log = j.attempt_log;
                j.status = "retried";
            } else {
                j.status = "ok";
            }
            ++done_count;
            return;
        }
        const char *cause = j.timed_out ? "timeout" : "failed";
        if (j.attempts <= spec.retries && !interrupted) {
            const double delay = std::min(
                std::ldexp(spec.backoff_s, static_cast<int>(j.attempts) - 1),
                kMaxWaitS);
            j.earliest_start = after(now, delay);
            pending.push_back(&j);
            std::printf("%s: %s (exit %d), retry %zu/%zu in %.1fs\n",
                        j.label.c_str(), cause, j.exit_code,
                        j.attempts, spec.retries, delay);
            return;
        }
        j.status = cause;
        ++failed;
        ++done_count;
        std::printf("%s: FAILED (%s, exit %d, see %s)\n", j.label.c_str(),
                    cause, j.exit_code, j.attempt_log.c_str());
    };

    while (!pending.empty() || !live.empty()) {
        const Clock::time_point now = Clock::now();

        if (core::interruptRequested() && !interrupted) {
            interrupted = true;
            std::printf("sweep interrupted (%s): terminating %zu "
                        "running job(s), %zu never started\n",
                        core::interruptCauseName(), live.size(),
                        pending.size());
            std::fflush(stdout);
            pending.clear();
            for (auto &[pid, j] : live) {
                (void)j;
                // Negative pid: signal the job's whole process group,
                // so multiprocess engine ranks finalize too.
                kill(-pid, SIGTERM);
            }
        }

        // Launch: any pending job whose backoff gate has passed.
        for (size_t i = 0; i < pending.size() && live.size() < spec.jobs;) {
            Job &j = *pending[i];
            if (now < j.earliest_start) {
                ++i;
                continue;
            }
            pending.erase(pending.begin() + static_cast<long>(i));
            ++j.attempts;
            setAttemptPaths(j, j.attempts);
            j.timed_out = false;
            j.term_sent = false;
            j.pid = spawnJob(j);
            if (j.pid < 0) {
                j.exit_code = -3;
                finishJob(j, now);
                continue;
            }
            if (spec.timeout_s > 0.0) {
                j.deadline = after(now, spec.timeout_s);
            }
            live[j.pid] = &j;
            if (j.attempts == 1) {
                ++started_count;
            }
            std::printf("[%zu/%zu] %s: started%s\n", started_count,
                        total_to_run, j.label.c_str(),
                        j.attempts > 1 ? " (retry)" : "");
            std::fflush(stdout);
        }

        // Reap every child that has exited since the last tick.
        while (!live.empty()) {
            int status = 0;
            const pid_t pid = reapOne(&status);
            if (pid <= 0) {
                break;
            }
            auto it = live.find(pid);
            if (it == live.end()) {
                continue;
            }
            Job &j = *it->second;
            live.erase(it);
            j.exit_code = WIFEXITED(status) ? WEXITSTATUS(status)
                                            : 128 + WTERMSIG(status);
            finishJob(j, now);
            std::fflush(stdout);
        }

        // Enforce per-job deadlines: SIGTERM first (diablo_run
        // finalizes a partial "interrupted" artifact), SIGKILL after
        // the grace period if the child is wedged.
        if (spec.timeout_s > 0.0 || interrupted) {
            for (auto &[pid, jp] : live) {
                Job &j = *jp;
                const bool overdue =
                    spec.timeout_s > 0.0 && now >= j.deadline;
                if (!j.term_sent && (overdue || interrupted)) {
                    j.term_sent = true;
                    j.timed_out = overdue;
                    j.kill_at = after(now, spec.grace_s);
                    kill(-pid, SIGTERM);
                    if (overdue) {
                        std::printf("%s: timeout after %.1fs, sent "
                                    "SIGTERM\n",
                                    j.label.c_str(), spec.timeout_s);
                        std::fflush(stdout);
                    }
                } else if (j.term_sent && now >= j.kill_at) {
                    kill(-pid, SIGKILL);
                }
            }
        }

        if (!live.empty() ||
            (!pending.empty() && !core::interruptRequested())) {
            sleepMs(20);
        }
    }

    analysis::Table table({"run", "workload", "engine", "status",
                           "elapsed_ms", "goodput_mbps", "requests",
                           "p99_us", "fingerprint"});
    for (const Job &j : jobs) {
        const std::string st = j.status.empty() ? "not-run" : j.status;
        const analysis::RunArtifact::Validation &r = j.result;
        if (!r.ok) {
            table.addRow({j.label, j.get("workload"), j.get("engine"),
                          st, "-", "-", "-", "-", "-"});
            continue;
        }
        table.addRow(
            {j.label, j.get("workload"),
             j.get("engine").empty() ? "single" : j.get("engine"), st,
             analysis::Table::cell("%.1f", r.elapsed_us / 1000.0),
             analysis::Table::cell("%.1f", r.goodput_mbps),
             analysis::Table::cell("%llu",
                                   static_cast<unsigned long long>(
                                       r.requests_completed)),
             analysis::Table::cell("%.1f", r.p99_us), r.fingerprint});
    }
    table.print();

    const std::vector<CrossCheck> checks = crossCheckEngines(jobs);
    size_t mismatches = 0;
    for (const CrossCheck &c : checks) {
        std::printf("cross-check %s: %s", c.label.c_str(),
                    c.match ? "MATCH" : "MISMATCH");
        for (const Job *r : c.runs) {
            std::printf(" %s=%s", r->get("engine").c_str(),
                        r->result.fingerprint.c_str());
        }
        std::printf("\n");
        mismatches += c.match ? 0 : 1;
    }

    const bool ok = failed == 0 && mismatches == 0 && !interrupted;
    writeReport(out_dir + "/report.json", spec, jobs, checks, ok);
    std::printf("report: %s/report.json (%zu runs, %zu failed, "
                "%zu fingerprint mismatches)\n",
                out_dir.c_str(), jobs.size(), failed, mismatches);
    // A fingerprint mismatch is a determinism bug — never masked by
    // the softer partial-failure code.
    if (mismatches != 0) {
        return 1;
    }
    if (interrupted) {
        return core::kExitInterrupted;
    }
    return failed != 0 ? core::kExitSweepPartial : 0;
}
