/**
 * @file
 * diablo_bench: runs the repository benchmark.
 *
 *   diablo_bench --workload W --seed N --seconds S --trace 0|1
 *       One workload: reps for S seconds, then set-up-only reps until
 *       setup_s has 20 samples (within 10% of S).  The last stdout line
 *       is one JSON object: correct/attempted/failed plus the end-to-end
 *       metrics (--trace 0) or the per-layer metrics (--trace 1).
 *   diablo_bench [--seed N]
 *       Every workload: 1 warm-up, 5 timed and 1 traced rep each; prints
 *       every metric and writes <out>/results.json.
 *   diablo_bench --check
 *       Every scenario at reduced size in a few seconds: seq = par = mp
 *       = single fingerprints, every BENCHMARK.json metric emitted with
 *       its unit, and a forced-timeout rep counted as failed.
 *
 * Run protocol.  diablo_bench confines itself to the first two CPUs of its
 * inherited affinity mask.  Every rep runs in a fresh fork()ed child, so
 * no rep inherits another's heap, pools or page cache state, and wait4()
 * reports that child's peak RSS; a child over the per-rep wall budget is
 * SIGKILLed and counted as failed.  Each workload's first rep is a
 * discarded warm-up.  A rep is correct when it completes and its
 * fingerprint equals that of the scenario's single-Simulator reference
 * rep, and, at the default seed, the one in golden.json.
 */

#include <dirent.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/json_writer.hh"
#include "bench_trace.hh"
#include "core/cpu_topology.hh"
#include "core/log.hh"
#include "scenarios.hh"

using namespace diablo;
using namespace diablo::bench;

namespace {

constexpr uint64_t kDefaultSeed = 20150314;

/** setup_s samples a run aims for, topping up with set-up-only reps... */
constexpr size_t kSetupSamples = 20;
/** ...on at most this share of the run's measuring time. */
constexpr double kSetupShare = 0.1;

/** Units of every metric diablo_bench can emit. */
const std::map<std::string, std::string> &
units()
{
    static const std::map<std::string, std::string> u = {
        {"wall_s", "s"},
        {"setup_s", "s"},
        {"run_s", "s"},
        {"peak_rss_mb", "MB"},
        {"fame.build_s", "s"},
        {"fame.run_s", "s"},
        {"fame.window_ms.p50", "ms"},
        {"fame.window_ms.p90", "ms"},
        {"fame.windows", "count"},
        {"fame.quanta", "count"},
        {"fame.events_per_quantum", "events/quantum"},
        {"fame.ns_per_quantum", "ns/quantum"},
        {"fame.imbalance", "ratio"},
        {"fame.mp.syncs", "count"},
        {"fame.mp.msgs", "count"},
        {"fame.mp.bytes", "B"},
        {"fame.mp.waits_blocked", "count"},
        {"fame.mp.waits_elided", "count"},
        {"fame.mp.blocked_ratio", "ratio"},
        {"core.events", "count"},
        {"core.ns_per_event", "ns/event"},
        {"sim.build_s", "s"},
        {"sim.materialized_nodes", "count"},
        {"sim.arena_mb", "MB"},
        {"sim.teardown_s", "s"},
        {"apps.install_s", "s"},
        {"apps.tail_s", "s"},
        {"apps.requests", "count"},
        {"apps.udp_retries", "count"},
        {"analysis.fold_s", "s"},
        {"net.pool_makes", "count"},
        {"net.pool_recycles", "count"},
        {"net.pool_heap_allocs", "count"},
        {"net.pool_recycle_ratio", "ratio"},
        {"net.pool_high_water", "count"},
        {"net.link_trains", "count"},
        {"net.link_coalesced", "count"},
        {"switchm.drops", "count"},
        {"nic.rx_drops", "count"},
        {"nic.tx_ring_drops", "count"},
        {"os.tcp_retx", "count"},
        {"os.tcp_rtos", "count"},
        {"os.udp_sock_drops", "count"},
        {"trace.overhead", "ratio"},
        {"trace.coverage", "ratio"},
        {"model.goodput_mbps", "Mbps"},
        {"model.p50_us", "us"},
        {"model.p99_us", "us"},
        {"model.sim_s", "s"},
    };
    return u;
}

const char *const kEndToEnd[] = {"wall_s", "setup_s", "run_s",
                                 "peak_rss_mb"};

// ---------------------------------------------------------------------
// Minimal JSON reader for BENCHMARK.json and golden.json.

struct Json {
    enum Type { Null, Bool, Num, Str, Arr, Obj } type = Null;
    double num = 0.0;
    std::string str;
    std::vector<Json> arr;
    std::vector<std::pair<std::string, Json>> obj;

    const Json *
    get(const std::string &key) const
    {
        for (const auto &kv : obj) {
            if (kv.first == key) {
                return &kv.second;
            }
        }
        return nullptr;
    }
};

class JsonParser {
  public:
    explicit JsonParser(const std::string &text) : s_(text) {}

    bool
    parse(Json &out)
    {
        return value(out) && (ws(), pos_ == s_.size());
    }

  private:
    void
    ws()
    {
        while (pos_ < s_.size() && std::isspace(
                                       static_cast<unsigned char>(s_[pos_]))) {
            ++pos_;
        }
    }

    bool
    lit(const char *w)
    {
        const size_t n = std::strlen(w);
        if (s_.compare(pos_, n, w) != 0) {
            return false;
        }
        pos_ += n;
        return true;
    }

    bool
    string(std::string &out)
    {
        if (pos_ >= s_.size() || s_[pos_] != '"') {
            return false;
        }
        for (++pos_; pos_ < s_.size(); ++pos_) {
            const char c = s_[pos_];
            if (c == '"') {
                ++pos_;
                return true;
            }
            if (c == '\\') {
                if (++pos_ >= s_.size()) {
                    return false;
                }
                const char e = s_[pos_];
                out += e == 'n' ? '\n' : e == 't' ? '\t' : e;
                continue;
            }
            out += c;
        }
        return false;
    }

    bool
    value(Json &v)
    {
        ws();
        if (pos_ >= s_.size()) {
            return false;
        }
        const char c = s_[pos_];
        if (c == '{') {
            v.type = Json::Obj;
            ++pos_;
            ws();
            if (pos_ < s_.size() && s_[pos_] == '}') {
                ++pos_;
                return true;
            }
            for (;;) {
                std::string key;
                ws();
                if (!string(key)) {
                    return false;
                }
                ws();
                if (pos_ >= s_.size() || s_[pos_++] != ':') {
                    return false;
                }
                v.obj.emplace_back(key, Json());
                if (!value(v.obj.back().second)) {
                    return false;
                }
                ws();
                if (pos_ < s_.size() && s_[pos_] == ',') {
                    ++pos_;
                    continue;
                }
                return pos_ < s_.size() && s_[pos_++] == '}';
            }
        }
        if (c == '[') {
            v.type = Json::Arr;
            ++pos_;
            ws();
            if (pos_ < s_.size() && s_[pos_] == ']') {
                ++pos_;
                return true;
            }
            for (;;) {
                v.arr.emplace_back();
                if (!value(v.arr.back())) {
                    return false;
                }
                ws();
                if (pos_ < s_.size() && s_[pos_] == ',') {
                    ++pos_;
                    continue;
                }
                return pos_ < s_.size() && s_[pos_++] == ']';
            }
        }
        if (c == '"') {
            v.type = Json::Str;
            return string(v.str);
        }
        if (lit("true") || lit("false")) {
            v.type = Json::Bool;
            v.num = s_[pos_ - 4] == 't' ? 1.0 : 0.0;
            return true;
        }
        if (lit("null")) {
            return true;
        }
        const char *start = s_.c_str() + pos_;
        char *end = nullptr;
        v.num = std::strtod(start, &end);
        if (end == start) {
            return false;
        }
        v.type = Json::Num;
        pos_ += static_cast<size_t>(end - start);
        return true;
    }

    const std::string &s_;
    size_t pos_ = 0;
};

Json
readJsonFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in) {
        fatal("cannot read %s", path.c_str());
    }
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string text = ss.str();
    Json j;
    if (!JsonParser(text).parse(j) || j.type != Json::Obj) {
        fatal("%s is not a JSON object", path.c_str());
    }
    return j;
}

/** A metric BENCHMARK.json names. */
struct ManifestMetric {
    std::string name;
    std::string unit;
};

struct Manifest {
    std::vector<std::string> workloads;
    std::vector<ManifestMetric> end_to_end;
    std::vector<ManifestMetric> per_layer;
};

Manifest
readManifest(const std::string &path)
{
    const Json j = readJsonFile(path);
    Manifest m;
    const Json *wl = j.get("workloads");
    if (wl == nullptr || wl->type != Json::Arr) {
        fatal("%s: no \"workloads\" list", path.c_str());
    }
    for (const Json &w : wl->arr) {
        const Json *n = w.get("name");
        if (n == nullptr) {
            fatal("%s: a workload lacks a name", path.c_str());
        }
        m.workloads.push_back(n->str);
    }
    for (const char *section : {"end_to_end", "per_layer"}) {
        const Json *arr = j.get(section);
        if (arr == nullptr || arr->type != Json::Arr) {
            fatal("%s: no \"%s\" list", path.c_str(), section);
        }
        auto &dst = std::strcmp(section, "end_to_end") == 0 ? m.end_to_end
                                                             : m.per_layer;
        for (const Json &e : arr->arr) {
            const Json *n = e.get("name");
            const Json *u = e.get("unit");
            if (n == nullptr || u == nullptr) {
                fatal("%s: a %s metric lacks name or unit", path.c_str(),
                      section);
            }
            dst.push_back({n->str, u->str});
        }
    }
    return m;
}

// ---------------------------------------------------------------------
// Statistics, matching Python's statistics.median/quantiles(n=4).

double
median(std::vector<double> v)
{
    if (v.empty()) {
        return 0.0;
    }
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/** Exclusive-method quartiles q1, q3. */
std::pair<double, double>
quartiles(std::vector<double> v)
{
    if (v.size() < 2) {
        const double x = v.empty() ? 0.0 : v[0];
        return {x, x};
    }
    std::sort(v.begin(), v.end());
    const long ld = static_cast<long>(v.size());
    const long m = ld + 1;
    double q[2];
    for (long i = 1, k = 0; i <= 3; i += 2, ++k) {
        long j = i * m / 4;
        j = std::clamp(j, 1L, ld - 1);
        const long delta = i * m - j * 4;
        q[k] = (v[j - 1] * static_cast<double>(4 - delta) +
                v[j] * static_cast<double>(delta)) /
               4.0;
    }
    return {q[0], q[1]};
}

// ---------------------------------------------------------------------
// Host shape and the forked rep.

struct Host {
    long online_cpus = 0;
    std::vector<int> allowed;
    int cpu0 = 0;
    int cpu1 = 0;
    bool oversubscribed = false;
};

/** Confine this process (and every child) to two allowed CPUs. */
Host
claimCpus()
{
    Host h;
    h.online_cpus = sysconf(_SC_NPROCESSORS_ONLN);
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
        for (int c = 0; c < CPU_SETSIZE; ++c) {
            if (CPU_ISSET(c, &set)) {
                h.allowed.push_back(c);
            }
        }
    }
    if (h.allowed.empty()) {
        h.allowed.push_back(0);
    }
    h.cpu0 = h.allowed[0];
    h.cpu1 = h.allowed.size() > 1 ? h.allowed[1] : h.allowed[0];
    h.oversubscribed = h.allowed.size() < 2;
    CPU_ZERO(&set);
    CPU_SET(h.cpu0, &set);
    CPU_SET(h.cpu1, &set);
    sched_setaffinity(0, sizeof(set), &set);
    return h;
}

/** Remove segment files a killed run of the coupled engine left. */
void
sweepStaleSegments(const std::string &dir)
{
    DIR *d = opendir(dir.c_str());
    if (d == nullptr) {
        return;
    }
    while (const dirent *e = readdir(d)) {
        const std::string name = e->d_name;
        if (name.rfind("diablo_bench_", 0) == 0 &&
            name.size() > 4 && name.compare(name.size() - 4, 4, ".shm") == 0) {
            ::unlink((dir + "/" + name).c_str());
        }
    }
    closedir(d);
}

struct RepOutcome {
    bool ok = false;
    std::string why; ///< failure reason when !ok
    RepResult r;
    double peak_rss_mb = 0.0;
};

std::string
serialize(const RepResult &r)
{
    std::string s = strprintf("completed %d\nfingerprint %" PRIu64 "\n",
                              r.completed ? 1 : 0, r.fingerprint);
    for (const auto &[k, v] : r.metrics) {
        s += strprintf("%s %.17g\n", k.c_str(), v);
    }
    return s;
}

bool
deserialize(const std::string &text, RepResult &r)
{
    std::istringstream in(text);
    std::string key;
    bool have_fp = false;
    while (in >> key) {
        if (key == "completed") {
            int c = 0;
            in >> c;
            r.completed = c != 0;
        } else if (key == "fingerprint") {
            in >> r.fingerprint;
            have_fp = true;
        } else {
            double v = 0.0;
            in >> v;
            r.metrics[key] = v;
        }
        if (!in) {
            return false;
        }
    }
    return have_fp;
}

/**
 * Run one rep in a fresh child and collect its result and peak RSS.  A
 * child still running @p budget_s after the fork is SIGKILLed.
 */
RepOutcome
forkRep(const Scenario &s, Engine e, const RepOptions &o, double budget_s)
{
    RepOutcome out;
    int fds[2];
    if (pipe(fds) != 0) {
        fatal("pipe: %s", std::strerror(errno));
    }
    std::fflush(nullptr);
    const pid_t pid = fork();
    if (pid < 0) {
        fatal("fork: %s", std::strerror(errno));
    }
    if (pid == 0) {
        close(fds[0]);
        // A rep never outlives diablo_bench, even one killed mid-rep.
        prctl(PR_SET_PDEATHSIG, SIGKILL);
        pinCurrentThreadToCpu(o.cpu0);
        const std::string text = serialize(runRep(s, e, o));
        size_t off = 0;
        while (off < text.size()) {
            const ssize_t n = write(fds[1], text.data() + off,
                                    text.size() - off);
            if (n <= 0) {
                _exit(3);
            }
            off += static_cast<size_t>(n);
        }
        _exit(0);
    }
    close(fds[1]);

    const Clock::time_point deadline =
        Clock::now() + std::chrono::microseconds(
                           static_cast<int64_t>(budget_s * 1e6));
    std::string text;
    bool killed = false;
    for (;;) {
        const auto left = std::chrono::duration_cast<
            std::chrono::milliseconds>(deadline - Clock::now()).count();
        if (left <= 0) {
            kill(pid, SIGKILL);
            killed = true;
            break;
        }
        pollfd p{fds[0], POLLIN, 0};
        const int pr = poll(&p, 1, static_cast<int>(std::min<int64_t>(
                                       left, 1000)));
        if (pr < 0 && errno != EINTR) {
            fatal("poll: %s", std::strerror(errno));
        }
        if (pr <= 0) {
            continue;
        }
        char buf[4096];
        const ssize_t n = read(fds[0], buf, sizeof(buf));
        if (n > 0) {
            text.append(buf, static_cast<size_t>(n));
            continue;
        }
        if (n == 0 || errno != EINTR) {
            break; // EOF: the child is exiting
        }
    }
    close(fds[0]);

    int status = 0;
    rusage ru{};
    while (wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
    }
    out.peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
    if (killed) {
        out.why = strprintf("exceeded the %.3g s rep budget", budget_s);
    } else if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        out.why = WIFSIGNALED(status)
                      ? strprintf("killed by signal %d", WTERMSIG(status))
                      : strprintf("exit code %d", WEXITSTATUS(status));
    } else if (!deserialize(text, out.r)) {
        out.why = "unreadable rep report";
    } else if (!out.r.completed) {
        out.why = "simulation did not complete";
    } else {
        out.ok = true;
    }
    return out;
}

// ---------------------------------------------------------------------
// One workload under the run protocol.

struct Protocol {
    /** Timed (untraced) reps: at least min_timed, more while time lasts. */
    int min_timed = 5;
    /** Traced reps: at least min_traced. */
    int min_traced = 1;
    /** Keep adding reps until this much time went into them (0: none). */
    double seconds = 0.0;
    double rep_budget_s = 60.0;
};

struct Context {
    Host host;
    uint64_t seed = kDefaultSeed;
    std::string out_dir;
    /** golden.json: fingerprints by family, valid at golden_seed. */
    std::map<std::string, std::string> golden;
    uint64_t golden_seed = kDefaultSeed;
    /** Reference fingerprints already computed, by family. */
    std::map<std::string, uint64_t> references;
};

struct WorkloadRun {
    const Workload *w = nullptr;
    int attempted = 0;
    int failed = 0;
    std::vector<std::string> failures;
    uint64_t reference = 0;
    bool golden_checked = false;
    std::map<std::string, std::vector<double>> timed;
    std::map<std::string, std::vector<double>> traced;
    std::map<std::string, double> model;
};

std::string
hex(uint64_t v)
{
    return strprintf("0x%016" PRIx64, v);
}

/** Fork one rep, check it and account for it. */
bool
attempt(WorkloadRun &run, const Context &ctx, const Scenario &s, Engine e,
        RepOptions o, double budget_s, const char *role, RepOutcome &out)
{
    out = forkRep(s, e, o, budget_s);
    ++run.attempted;
    const bool has_result = !o.setup_only;
    if (out.ok && has_result && run.reference != 0 &&
        out.r.fingerprint != run.reference) {
        out.ok = false;
        out.why = "fingerprint " + hex(out.r.fingerprint) +
                  " differs from the single-engine reference " +
                  hex(run.reference);
    }
    if (out.ok && has_result && ctx.seed == ctx.golden_seed) {
        const auto g = ctx.golden.find(s.family);
        if (g != ctx.golden.end() && hex(out.r.fingerprint) != g->second) {
            out.ok = false;
            out.why = "fingerprint " + hex(out.r.fingerprint) +
                      " differs from golden.json " + g->second;
        }
    }
    if (!out.ok) {
        ++run.failed;
        run.failures.push_back(std::string(role) + " rep: " + out.why);
        std::fprintf(stderr, "%s: %s rep failed: %s\n", run.w->name, role,
                     out.why.c_str());
    }
    return out.ok;
}

WorkloadRun
runWorkload(const Workload &w, const Scenario &s, Context &ctx,
            const Protocol &p)
{
    WorkloadRun run;
    run.w = &w;
    run.golden_checked =
        ctx.seed == ctx.golden_seed && ctx.golden.count(s.family) != 0;
    RepOptions o;
    o.seed = ctx.seed;
    o.cpu0 = ctx.host.cpu0;
    o.cpu1 = ctx.host.cpu1;
    o.shm_dir = ctx.out_dir;
    RepOutcome out;

    // The reference: one untimed single-Simulator rep per scenario.  A
    // single-engine workload's warm-up rep is its reference.
    const auto known = ctx.references.find(s.family);
    if (known != ctx.references.end()) {
        run.reference = known->second;
    } else {
        attempt(run, ctx, s, Engine::Single, o, p.rep_budget_s,
                w.engine == Engine::Single ? "warm-up/reference"
                                           : "reference",
                out);
        if (!out.r.completed) {
            return run; // nothing to check reps against
        }
        // Kept even when it contradicts golden.json (that rep already
        // failed), so results.json shows the fingerprint to re-record.
        run.reference = out.r.fingerprint;
        ctx.references[s.family] = run.reference;
    }
    if (w.engine != Engine::Single || known != ctx.references.end()) {
        attempt(run, ctx, s, w.engine, o, p.rep_budget_s, "warm-up", out);
    }

    // Untraced (timed) and traced reps alternate so both see the same
    // host conditions; timed reps come first.
    const Clock::time_point start = Clock::now();
    int timed = 0;
    int traced = 0;
    for (;;) {
        const double used =
            std::chrono::duration<double>(Clock::now() - start).count();
        const bool need_timed = timed < p.min_timed;
        const bool need_traced = traced < p.min_traced;
        if (!need_timed && !need_traced && used >= p.seconds) {
            break;
        }
        bool do_traced = false;
        if (!need_timed) {
            do_traced = need_traced ||
                        (p.min_traced > 0 &&
                         traced * p.min_timed < timed * p.min_traced);
        }
        o.traced = do_traced;
        o.trace_path = do_traced ? ctx.out_dir + "/" + w.name + ".trace.json"
                                 : std::string();
        const bool ok = attempt(run, ctx, s, w.engine, o, p.rep_budget_s,
                                do_traced ? "traced" : "timed", out);
        (do_traced ? traced : timed) += 1;
        if (!ok) {
            continue;
        }
        auto &dst = do_traced ? run.traced : run.timed;
        for (const auto &[k, v] : out.r.metrics) {
            if (k.rfind("model.", 0) == 0) {
                run.model[k] = v;
            } else {
                dst[k].push_back(v);
            }
        }
        dst["peak_rss_mb"].push_back(out.peak_rss_mb);
    }

    // Extra set-ups, so that setup_s is a median over many samples even
    // where one set-up takes a fraction of a millisecond.
    o.traced = false;
    o.trace_path.clear();
    o.setup_only = true;
    const Clock::time_point setups = Clock::now();
    auto &setup_s = run.timed["setup_s"];
    while (setup_s.size() < kSetupSamples &&
           std::chrono::duration<double>(Clock::now() - setups).count() <
               p.seconds * kSetupShare) {
        if (attempt(run, ctx, s, w.engine, o, p.rep_budget_s, "set-up",
                    out)) {
            setup_s.push_back(out.r.metrics["setup_s"]);
        }
    }
    return run;
}

/** Per-layer values of a run: medians over its traced reps. */
std::map<std::string, double>
layerMetrics(const WorkloadRun &run)
{
    std::map<std::string, double> m;
    for (const auto &[k, v] : run.traced) {
        bool e2e = false;
        for (const char *n : kEndToEnd) {
            e2e = e2e || k == n;
        }
        if (!e2e) {
            m[k] = median(v);
        }
    }
    const auto tr = run.traced.find("run_s");
    const auto un = run.timed.find("run_s");
    if (tr != run.traced.end() && un != run.timed.end()) {
        m["trace.overhead"] = median(tr->second) / median(un->second) - 1.0;
    }
    return m;
}

double
failFrac(const WorkloadRun &run)
{
    return run.attempted > 0
               ? static_cast<double>(run.failed) / run.attempted
               : 1.0;
}

bool
correct(const WorkloadRun &run)
{
    return run.failed == 0 && run.reference != 0;
}

void
writeMetric(analysis::JsonWriter &j, const std::string &name, double v)
{
    j.beginObject(name);
    j.field("value", v);
    j.field("unit", units().at(name));
    j.endObject();
}

/**
 * The metrics of a one-workload run's result line, exactly those
 * BENCHMARK.json names: medians of the timed reps' end-to-end metrics,
 * or the per-layer metrics.
 */
std::map<std::string, double>
resultMetrics(const WorkloadRun &run, const Manifest &manifest,
                bool traced)
{
    std::map<std::string, double> all;
    if (traced) {
        all = layerMetrics(run);
    } else {
        for (const auto &[k, v] : run.timed) {
            all[k] = median(v);
        }
    }
    std::map<std::string, double> m;
    for (const ManifestMetric &mm :
         traced ? manifest.per_layer : manifest.end_to_end) {
        const auto it = all.find(mm.name);
        if (it != all.end()) {
            m.insert(*it);
        }
    }
    return m;
}

std::string
resultLine(const WorkloadRun &run, const Manifest &manifest, bool traced)
{
    analysis::JsonWriter j(false);
    j.beginObject();
    j.field("correct", correct(run));
    j.field("attempted", run.attempted);
    j.field("failed", run.failed);
    j.beginObject("metrics");
    for (const auto &[k, v] : resultMetrics(run, manifest, traced)) {
        writeMetric(j, k, v);
    }
    j.endObject();
    j.endObject();
    return j.str();
}

void
printRun(const WorkloadRun &run)
{
    std::printf("\n== %s (%s engine): %d reps, %d failed, fail_frac=%.3g\n",
                run.w->name, engineName(run.w->engine), run.attempted,
                run.failed, failFrac(run));
    if (!run.timed.empty()) {
        std::printf("  %-26s %12s %12s %12s %3s  %s\n", "end-to-end",
                    "median", "q1", "q3", "n", "unit");
        for (const char *n : kEndToEnd) {
            const auto it = run.timed.find(n);
            if (it == run.timed.end()) {
                continue;
            }
            const auto [q1, q3] = quartiles(it->second);
            std::printf("  %-26s %12.6g %12.6g %12.6g %3zu  %s\n", n,
                        median(it->second), q1, q3, it->second.size(),
                        units().at(n).c_str());
        }
    }
    const auto layer = layerMetrics(run);
    if (!layer.empty()) {
        std::printf("  %-26s %12s  %s\n", "per-layer (traced)", "median",
                    "unit");
        for (const auto &[k, v] : layer) {
            std::printf("  %-26s %12.6g  %s\n", k.c_str(), v,
                        units().at(k).c_str());
        }
    }
    for (const auto &[k, v] : run.model) {
        std::printf("  %-26s %12.6g  %s (simulated, never compared)\n",
                    k.c_str(), v, units().at(k).c_str());
    }
}

void
writeResults(const std::string &path, const Context &ctx,
             const std::vector<WorkloadRun> &runs, const Protocol &p)
{
    analysis::JsonWriter j;
    j.beginObject();
    j.field("seed", ctx.seed);
    j.beginObject("host");
    j.field("online_cpus", static_cast<int64_t>(ctx.host.online_cpus));
    j.field("allowed_cpus", static_cast<uint64_t>(ctx.host.allowed.size()));
    j.beginArray("cpus_used");
    j.value(static_cast<int64_t>(ctx.host.cpu0));
    if (ctx.host.cpu1 != ctx.host.cpu0) {
        j.value(static_cast<int64_t>(ctx.host.cpu1));
    }
    j.endArray();
    j.field("oversubscribed", ctx.host.oversubscribed);
    j.endObject();
    j.beginObject("protocol");
    j.field("warmup_reps", 1);
    j.field("min_timed_reps", p.min_timed);
    j.field("min_traced_reps", p.min_traced);
    j.field("seconds", p.seconds);
    j.field("rep_budget_s", p.rep_budget_s);
    j.endObject();
    j.beginObject("workloads");
    for (const WorkloadRun &run : runs) {
        j.beginObject(run.w->name);
        j.field("engine", engineName(run.w->engine));
        j.field("family", run.w->scenario.family);
        j.field("correct", correct(run));
        j.field("attempted", run.attempted);
        j.field("failed", run.failed);
        j.field("fail_frac", failFrac(run));
        j.beginArray("failures");
        for (const std::string &f : run.failures) {
            j.value(f);
        }
        j.endArray();
        j.field("reference_fingerprint", hex(run.reference));
        j.field("golden_checked", run.golden_checked);
        j.beginObject("end_to_end");
        for (const char *n : kEndToEnd) {
            const auto it = run.timed.find(n);
            if (it == run.timed.end()) {
                continue;
            }
            const auto [q1, q3] = quartiles(it->second);
            j.beginObject(n);
            j.field("median", median(it->second));
            j.field("q1", q1);
            j.field("q3", q3);
            j.field("n", static_cast<uint64_t>(it->second.size()));
            j.field("unit", units().at(n));
            j.beginArray("values");
            for (double v : it->second) {
                j.value(v);
            }
            j.endArray();
            j.endObject();
        }
        j.endObject();
        j.beginObject("per_layer");
        for (const auto &[k, v] : layerMetrics(run)) {
            writeMetric(j, k, v);
        }
        j.endObject();
        j.beginObject("model");
        for (const auto &[k, v] : run.model) {
            writeMetric(j, k, v);
        }
        j.endObject();
        j.endObject();
    }
    j.endObject();
    j.endObject();
    j.writeFile(path);
}

// ---------------------------------------------------------------------
// --check: the reduced-size gate.

int
runCheck(Context &ctx, const Manifest &manifest)
{
    int failures = 0;
    auto expect = [&failures](bool cond, const std::string &what) {
        std::printf("%s %s\n", cond ? "ok  " : "FAIL", what.c_str());
        failures += cond ? 0 : 1;
    };

    std::vector<std::string> names;
    for (const Workload &w : workloads()) {
        names.push_back(w.name);
    }
    expect(names == manifest.workloads,
           "BENCHMARK.json lists exactly the workloads built here, in order");

    // Engine parity on every scenario: single = seq = par (= mp).
    std::map<std::string, bool> seen;
    for (const Workload &w : workloads()) {
        if (seen[w.scenario.family]) {
            continue;
        }
        seen[w.scenario.family] = true;
        const Scenario s = checkScale(w.scenario);
        std::vector<Engine> engines = {Engine::Single, Engine::Seq,
                                       Engine::Par};
        if (s.app == AppKind::Incast) {
            engines.push_back(Engine::Coupled);
        }
        RepOptions o;
        o.seed = ctx.seed;
        o.cpu0 = ctx.host.cpu0;
        o.cpu1 = ctx.host.cpu1;
        o.shm_dir = ctx.out_dir;
        uint64_t ref = 0;
        for (Engine e : engines) {
            const RepOutcome out = forkRep(s, e, o, 60.0);
            if (!out.ok) {
                expect(false, s.family + "/" + engineName(e) + ": " +
                                  out.why);
                continue;
            }
            if (ref == 0) {
                ref = out.r.fingerprint;
            }
            expect(out.r.fingerprint == ref,
                   s.family + "/" + engineName(e) + " fingerprint " +
                       hex(out.r.fingerprint) + " == single " + hex(ref));
        }
    }

    // Every workload under the protocol emits every manifest metric.
    Protocol p;
    p.min_timed = 1;
    p.min_traced = 1;
    p.seconds = 0.2;
    for (const Workload &w : workloads()) {
        const WorkloadRun run =
            runWorkload(w, checkScale(w.scenario), ctx, p);
        expect(correct(run) && run.attempted >= 3,
               strprintf("%s: %d reps, all correct", w.name,
                         run.attempted));
        for (bool traced : {false, true}) {
            const auto emitted = resultMetrics(run, manifest, traced);
            for (const ManifestMetric &m :
                 traced ? manifest.per_layer : manifest.end_to_end) {
                const auto u = units().find(m.name);
                expect(emitted.count(m.name) != 0 && u != units().end() &&
                           u->second == m.unit,
                       strprintf("%s emits %s [%s]", w.name, m.name.c_str(),
                                 m.unit.c_str()));
            }
        }
    }

    // A rep over its wall budget is killed and counted as failed.
    Protocol tp;
    tp.min_timed = 1;
    tp.min_traced = 0;
    tp.rep_budget_s = 0.001;
    const Workload &w0 = workloads()[0];
    Context tctx = ctx;
    tctx.references.clear();
    const WorkloadRun run = runWorkload(w0, checkScale(w0.scenario), tctx, tp);
    expect(run.attempted >= 1 && run.failed == run.attempted &&
               failFrac(run) == 1.0 && !correct(run),
           strprintf("forced-timeout reps counted: %d/%d failed, "
                     "fail_frac=%g",
                     run.failed, run.attempted, failFrac(run)));

    std::printf("%s: %d failure(s)\n", failures ? "CHECK FAILED" : "CHECK OK",
                failures);
    return failures ? 1 : 0;
}

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: diablo_bench [--workload NAME --seconds S "
                 "--trace 0|1] [--seed N] [--check]\n"
                 "                    [--out DIR] [--manifest PATH] "
                 "[--golden PATH]\n");
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    std::string out_dir = "benchmark/out";
    std::string manifest_path = "BENCHMARK.json";
    std::string golden_path = "benchmark/golden.json";
    double seconds = -1.0;
    int trace = 0;
    bool check = false;
    Context ctx;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc) {
                usage();
            }
            return argv[++i];
        };
        char *end = nullptr;
        if (a == "--workload") {
            workload = next();
            if (workload.empty()) {
                usage();
            }
        } else if (a == "--seed") {
            const std::string v = next();
            ctx.seed = std::strtoull(v.c_str(), &end, 10);
            if (v.empty() || *end != '\0') {
                usage();
            }
        } else if (a == "--seconds") {
            const std::string v = next();
            seconds = std::strtod(v.c_str(), &end);
            if (v.empty() || *end != '\0' || seconds < 0) {
                usage();
            }
        } else if (a == "--trace") {
            const std::string v = next();
            if (v != "0" && v != "1") {
                usage();
            }
            trace = v == "1";
        } else if (a == "--check") {
            check = true;
        } else if (a == "--out") {
            out_dir = next();
        } else if (a == "--manifest") {
            manifest_path = next();
        } else if (a == "--golden") {
            golden_path = next();
        } else {
            usage();
        }
    }

    const Manifest manifest = readManifest(manifest_path);
    // golden.json holds full-size fingerprints; --check runs reduced sizes.
    if (!check) {
        const Json g = readJsonFile(golden_path);
        const Json *seed = g.get("seed");
        const Json *fps = g.get("fingerprints");
        if (seed == nullptr || fps == nullptr) {
            fatal("%s: needs \"seed\" and \"fingerprints\"",
                  golden_path.c_str());
        }
        ctx.golden_seed = static_cast<uint64_t>(seed->num);
        for (const auto &[family, fp] : fps->obj) {
            ctx.golden[family] = fp.str;
        }
    }
    ctx.host = claimCpus();
    ctx.out_dir = out_dir;
    for (size_t at = 1; at <= out_dir.size(); ++at) {
        if (at == out_dir.size() || out_dir[at] == '/') {
            const std::string dir = out_dir.substr(0, at);
            if (mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
                fatal("cannot create %s: %s", dir.c_str(),
                      std::strerror(errno));
            }
        }
    }
    sweepStaleSegments(out_dir);

    if (check) {
        return runCheck(ctx, manifest);
    }

    std::vector<const Workload *> selected;
    for (const Workload &w : workloads()) {
        if (workload.empty() || workload == w.name) {
            selected.push_back(&w);
        }
    }
    if (selected.empty()) {
        std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
        return 2;
    }

    // A one-workload run spends its time on the reps whose numbers it
    // reports (timed, or timed and traced for the tracing overhead); the
    // full run does a fixed 5 timed and 1 traced rep per workload.
    Protocol p;
    if (!workload.empty()) {
        p.seconds = seconds < 0 ? 15.0 : seconds;
        p.min_timed = trace ? 2 : 3;
        p.min_traced = trace ? 2 : 0;
    }
    std::vector<WorkloadRun> runs;
    bool all_correct = true;
    int attempted = 0;
    int failed = 0;
    for (const Workload *w : selected) {
        runs.push_back(runWorkload(*w, w->scenario, ctx, p));
        printRun(runs.back());
        all_correct = all_correct && correct(runs.back());
        attempted += runs.back().attempted;
        failed += runs.back().failed;
    }
    const std::string results = out_dir + "/results.json";
    writeResults(results, ctx, runs, p);
    std::printf("\nresults: %s\n", results.c_str());

    if (!workload.empty()) {
        std::printf("%s\n", resultLine(runs[0], manifest, trace).c_str());
    } else {
        analysis::JsonWriter j(false);
        j.beginObject();
        j.field("correct", all_correct);
        j.field("attempted", attempted);
        j.field("failed", failed);
        j.field("results", results);
        j.endObject();
        std::printf("%s\n", j.str().c_str());
    }
    return all_correct ? 0 : 1;
}
