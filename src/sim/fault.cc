#include "sim/fault.hh"

#include <algorithm>

#include "core/log.hh"
#include "sim/cluster.hh"

namespace diablo {
namespace sim {

namespace {

/** Deterministic per-event seed: plan seed mixed with the event index. */
uint64_t
eventSeed(uint64_t plan_seed, size_t idx)
{
    uint64_t x = plan_seed ^ (0x9E3779B97F4A7C15ULL * (idx + 1));
    x ^= x >> 30;
    x *= 0xBF58476D1CE4E5B9ULL;
    x ^= x >> 27;
    return x;
}

SimTime
usToSimTime(double us)
{
    return SimTime::fromPs(static_cast<int64_t>(us * 1e6));
}

} // namespace

const char *
faultKindName(FaultKind k)
{
    switch (k) {
    case FaultKind::TrunkDown:
        return "trunk_down";
    case FaultKind::TrunkUp:
        return "trunk_up";
    case FaultKind::TrunkBrownout:
        return "trunk_brownout";
    case FaultKind::TrunkRepair:
        return "trunk_repair";
    case FaultKind::SwitchCrash:
        return "switch_crash";
    case FaultKind::SwitchRestart:
        return "switch_restart";
    case FaultKind::ServerCrash:
        return "server_crash";
    case FaultKind::ServerReboot:
        return "server_reboot";
    }
    return "?";
}

// ---------------------------------------------------------------------
// FaultPlan
// ---------------------------------------------------------------------

FaultPlan &
FaultPlan::merge(const FaultPlan &other, bool take_seed)
{
    events_.insert(events_.end(), other.events_.begin(),
                   other.events_.end());
    if (take_seed) {
        seed_ = other.seed_;
    }
    return *this;
}

// ---------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------

FaultPlan
FaultPlan::fromConfig(const Config &cfg)
{
    FaultPlan plan;
    plan.seed_ = cfg.getUint("fault.seed", plan.seed_);
    constexpr int kLastKind = static_cast<int>(FaultKind::ServerReboot);
    for (size_t i = 0; cfg.has(strprintf("fault.%zu.kind", i)); ++i) {
        const std::string p = strprintf("fault.%zu.", i);
        const std::string kind = cfg.getString(p + "kind", "");
        int k = 0;
        while (k <= kLastKind &&
               kind != faultKindName(static_cast<FaultKind>(k))) {
            ++k;
        }
        if (k > kLastKind) {
            fatal("FaultPlan: unknown fault kind '%s' (%skind)",
                  kind.c_str(), p.c_str());
        }
        FaultEvent e;
        e.kind = static_cast<FaultKind>(k);
        e.at = usToSimTime(cfg.getDouble(p + "at_us", 0.0));
        switch (e.kind) {
        case FaultKind::TrunkBrownout:
            e.loss_prob = cfg.getDouble(p + "loss", 0.01);
            e.extra_latency =
                usToSimTime(cfg.getDouble(p + "extra_us", 0.0));
            [[fallthrough]];
        case FaultKind::TrunkDown:
        case FaultKind::TrunkUp:
        case FaultKind::TrunkRepair:
            e.rack = static_cast<uint32_t>(cfg.getUint(p + "rack", 0));
            e.plane =
                static_cast<uint32_t>(cfg.getUint(p + "plane", 0));
            break;
        case FaultKind::SwitchCrash:
        case FaultKind::SwitchRestart:
            e.array =
                static_cast<uint32_t>(cfg.getUint(p + "array", 0));
            e.plane =
                static_cast<uint32_t>(cfg.getUint(p + "plane", 0));
            break;
        case FaultKind::ServerCrash:
        case FaultKind::ServerReboot:
            e.node =
                static_cast<net::NodeId>(cfg.getUint(p + "node", 0));
            break;
        }
        plan.add(e);
    }
    // Every fault.* key must have been read above.
    const std::vector<std::string> unread = cfg.unread("fault.");
    for (const std::string &k : unread) {
        const std::string kind = k.substr(0, k.find('.', 6)) + ".kind";
        if (std::binary_search(unread.begin(), unread.end(), kind)) {
            fatal("FaultPlan: '%s' follows a gap: fault events are "
                  "numbered from fault.0 up without one",
                  kind.c_str());
        }
        fatal("FaultPlan: unknown key '%s' (neither fault.seed nor an "
              "operand of its event's kind)",
              k.c_str());
    }
    return plan;
}

FaultPlan
FaultPlan::fromFile(const std::string &path)
{
    const Config cfg = Config::fromFile(path);
    for (const std::string &k : cfg.keys()) {
        if (k.rfind("fault.", 0) != 0) {
            fatal("FaultPlan: %s: key '%s' is not a fault.* key",
                  path.c_str(), k.c_str());
        }
    }
    return fromConfig(cfg);
}

std::string
FaultPlan::str() const
{
    std::string out = strprintf("fault plan: %zu events, seed=%llu\n",
                                events_.size(),
                                static_cast<unsigned long long>(seed_));
    for (const FaultEvent &e : events_) {
        out += strprintf("  t=%9.3fms %-14s", e.at.toPs() / 1e9,
                         faultKindName(e.kind));
        switch (e.kind) {
        case FaultKind::TrunkDown:
        case FaultKind::TrunkUp:
        case FaultKind::TrunkRepair:
            out += strprintf(" rack=%u plane=%u", e.rack, e.plane);
            break;
        case FaultKind::TrunkBrownout:
            out += strprintf(" rack=%u plane=%u loss=%.3f extra=%.1fus",
                             e.rack, e.plane, e.loss_prob,
                             e.extra_latency.toPs() / 1e6);
            break;
        case FaultKind::SwitchCrash:
        case FaultKind::SwitchRestart:
            out += strprintf(" array=%u plane=%u", e.array, e.plane);
            break;
        case FaultKind::ServerCrash:
        case FaultKind::ServerReboot:
            out += strprintf(" node=%u", e.node);
            break;
        }
        out += "\n";
    }
    return out;
}

// ---------------------------------------------------------------------
// FaultController
// ---------------------------------------------------------------------

FaultController::FaultController(Cluster &cluster, FaultPlan plan)
    : cluster_(cluster), plan_(std::move(plan))
{
}

void
FaultController::install()
{
    if (installed_) {
        fatal("FaultController: install() called twice");
    }
    installed_ = true;
    for (size_t i = 0; i < plan_.events().size(); ++i) {
        installEvent(plan_.events()[i], i);
    }
}

void
FaultController::installEvent(const FaultEvent &e, size_t idx)
{
    topo::ClosNetwork &net = cluster_.network();

    switch (e.kind) {
    case FaultKind::TrunkDown:
    case FaultKind::TrunkUp:
    case FaultKind::TrunkBrownout:
    case FaultKind::TrunkRepair:
        if (!net.hasArrayLevel()) {
            fatal("FaultPlan event %zu: %s on a single-rack topology "
                  "(no trunks)", idx, faultKindName(e.kind));
        }
        if (e.rack >= net.numRacks() || e.plane >= net.planes()) {
            fatal("FaultPlan event %zu: trunk (rack=%u, plane=%u) out of "
                  "range (%u racks, %u planes)",
                  idx, e.rack, e.plane, net.numRacks(), net.planes());
        }
        break;
    case FaultKind::SwitchCrash:
    case FaultKind::SwitchRestart:
        if (!net.hasArrayLevel()) {
            fatal("FaultPlan event %zu: %s on a single-rack topology "
                  "(no array switches)", idx, faultKindName(e.kind));
        }
        if (e.array >= net.params().num_arrays ||
            e.plane >= net.planes()) {
            fatal("FaultPlan event %zu: array switch (array=%u, "
                  "plane=%u) out of range (%u arrays, %u planes)",
                  idx, e.array, e.plane, net.params().num_arrays,
                  net.planes());
        }
        break;
    case FaultKind::ServerCrash:
    case FaultKind::ServerReboot:
        if (e.node >= cluster_.size()) {
            fatal("FaultPlan event %zu: node %u out of range (%u servers)",
                  idx, e.node, cluster_.size());
        }
        break;
    }

    switch (e.kind) {
    case FaultKind::TrunkDown:
        net.scheduleTrunkState(e.at, e.rack, e.plane, false);
        break;
    case FaultKind::TrunkUp:
        net.scheduleTrunkState(e.at, e.rack, e.plane, true);
        break;
    case FaultKind::TrunkBrownout:
        net.scheduleTrunkDegrade(e.at, e.rack, e.plane, e.loss_prob,
                                 e.extra_latency,
                                 eventSeed(plan_.seed(), idx));
        break;
    case FaultKind::TrunkRepair:
        net.scheduleTrunkRepair(e.at, e.rack, e.plane);
        break;
    case FaultKind::SwitchCrash:
        net.scheduleArraySwitchState(e.at, e.array, e.plane, false);
        break;
    case FaultKind::SwitchRestart:
        net.scheduleArraySwitchState(e.at, e.array, e.plane, true);
        break;
    case FaultKind::ServerCrash: {
        // Everything a server crash touches — its kernel, its NIC
        // uplink, the ToR's server-facing link — lives in the server's
        // rack partition, so one event covers it all.
        os::Kernel &k = cluster_.kernel(e.node);
        const net::NodeId node = e.node;
        k.sim().scheduleAt(e.at, [this, &k, node] {
            k.crash();
            cluster_.uplink(node).setUp(false);
            if (net::Link *dl = cluster_.network().serverLink(node)) {
                dl->setUp(false);
            }
        });
        break;
    }
    case FaultKind::ServerReboot: {
        os::Kernel &k = cluster_.kernel(e.node);
        const net::NodeId node = e.node;
        k.sim().scheduleAt(e.at, [this, &k, node] {
            cluster_.uplink(node).setUp(true);
            if (net::Link *dl = cluster_.network().serverLink(node)) {
                dl->setUp(true);
            }
            k.reboot();
        });
        break;
    }
    }
}

} // namespace sim
} // namespace diablo
