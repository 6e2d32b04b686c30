#include "topo/clos.hh"

#include "core/log.hh"

namespace diablo {
namespace topo {

ClosParams
ClosParams::fromConfig(const Config &cfg, const std::string &prefix,
                       const ClosParams &defaults)
{
    ClosParams p = defaults;
    p.servers_per_rack = static_cast<uint32_t>(
        cfg.getUint(prefix + "servers_per_rack", p.servers_per_rack));
    p.racks_per_array = static_cast<uint32_t>(
        cfg.getUint(prefix + "racks_per_array", p.racks_per_array));
    p.num_arrays = static_cast<uint32_t>(
        cfg.getUint(prefix + "num_arrays", p.num_arrays));
    p.uplink_planes = static_cast<uint32_t>(
        cfg.getUint(prefix + "uplink_planes", p.uplink_planes));
    using switchm::SwitchModelKind;
    const std::string model = cfg.getString(
        prefix + "switch_model",
        p.switch_model == SwitchModelKind::Voq ? "voq" : "output_queue");
    if (model == "voq") {
        p.switch_model = SwitchModelKind::Voq;
    } else if (model == "output_queue" || model == "oq") {
        p.switch_model = SwitchModelKind::OutputQueue;
    } else {
        fatal("unknown switch model '%s'", model.c_str());
    }
    p.rack_sw = switchm::SwitchParams::fromConfig(cfg, prefix + "rack.",
                                                  p.rack_sw);
    p.array_sw = switchm::SwitchParams::fromConfig(cfg, prefix + "array.",
                                                   p.array_sw);
    p.dc_sw = switchm::SwitchParams::fromConfig(cfg, prefix + "dc.",
                                                p.dc_sw);
    p.host_link_prop = SimTime::nanoseconds(cfg.getDouble(
        prefix + "host_link_prop_ns", p.host_link_prop.asNanos()));
    p.trunk_link_prop = SimTime::nanoseconds(cfg.getDouble(
        prefix + "trunk_link_prop_ns", p.trunk_link_prop.asNanos()));
    p.host_bw = Bandwidth::bps(
        cfg.getDouble(prefix + "host_gbps", p.host_bw.asGbps()) * 1e9);
    return p;
}

const char *
hopClassName(HopClass h)
{
    switch (h) {
      case HopClass::Local:  return "local";
      case HopClass::OneHop: return "1-hop";
      case HopClass::TwoHop: return "2-hop";
    }
    return "?";
}

namespace {

/** Deterministic 64-bit mix for ECMP flow hashing (splitmix64 finalizer). */
uint64_t
ecmpMix(uint64_t x)
{
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

/** Hooks that place everything on one simulator with plain links. */
ClosPartitionHooks
singleSimHooks(Simulator &sim)
{
    ClosPartitionHooks h;
    h.rack_sim = [&sim](uint32_t) -> Simulator & { return sim; };
    h.switch_sim = &sim;
    h.make_cross_link = [&sim](uint32_t, bool, const std::string &name,
                               Bandwidth bw, SimTime prop) {
        return std::make_unique<net::Link>(sim, name, bw, prop);
    };
    return h;
}

} // namespace

ClosNetwork::ClosNetwork(Simulator &sim, const ClosParams &params)
    : ClosNetwork(singleSimHooks(sim), params)
{
}

ClosNetwork::ClosNetwork(const ClosPartitionHooks &hooks,
                         const ClosParams &params)
    : hooks_(hooks), params_(params)
{
    if (!hooks_.rack_sim || hooks_.switch_sim == nullptr ||
        !hooks_.make_cross_link) {
        fatal("ClosNetwork: partition hooks must provide rack_sim, "
              "switch_sim, and make_cross_link");
    }
    build();
}

void
ClosNetwork::build()
{
    const uint32_t S = params_.servers_per_rack;
    const uint32_t R = params_.racks_per_array;
    const uint32_t A = params_.num_arrays;
    if (S == 0 || R == 0 || A == 0) {
        fatal("ClosNetwork: all dimensions must be positive");
    }
    if (params_.uplink_planes == 0) {
        fatal("ClosNetwork: uplink_planes must be positive");
    }
    const bool has_array_level = R > 1 || A > 1;
    const bool has_dc_level = A > 1;
    // A single-rack topology has no array level, hence no planes.
    if (!has_array_level) {
        params_.uplink_planes = 1;
    }
    const uint32_t P = params_.uplink_planes;

    // Rack switches: S server ports, plus one uplink per plane when an
    // array level exists.  Each ToR lives in its rack's partition.
    const uint32_t tor_ports = S + (has_array_level ? P : 0);
    const uint32_t num_racks = R * A;
    for (uint32_t r = 0; r < num_racks; ++r) {
        rack_switches_.push_back(makeSwitch(
            hooks_.rack_sim(r), params_.rack_sw, tor_ports,
            "tor" + std::to_string(r)));
    }
    server_links_.resize(static_cast<size_t>(num_racks) * S);

    if (has_array_level) {
        // Array switches: one per (array, plane), each with R downlinks
        // (+1 uplink when a DC level exists).
        const uint32_t arr_ports = R + (has_dc_level ? 1 : 0);
        for (uint32_t a = 0; a < A; ++a) {
            for (uint32_t p = 0; p < P; ++p) {
                array_switches_.push_back(makeSwitch(
                    *hooks_.switch_sim, params_.array_sw, arr_ports,
                    P > 1 ? strprintf("arr%u.%u", a, p)
                          : "arr" + std::to_string(a)));
            }
        }
        // ToR <-> array trunks: the only links that straddle the
        // rack/switch partition boundary, so both directions go
        // through the cross-link hook.  ToR port S+p is plane p.
        tor_up_links_.resize(static_cast<size_t>(num_racks) * P);
        arr_down_links_.resize(static_cast<size_t>(num_racks) * P);
        for (uint32_t a = 0; a < A; ++a) {
            for (uint32_t p = 0; p < P; ++p) {
                switchm::PacketSwitch &arr = *array_switches_[a * P + p];
                for (uint32_t r = 0; r < R; ++r) {
                    const uint32_t rack = a * R + r;
                    switchm::PacketSwitch &tor = *rack_switches_[rack];
                    // Up: ToR port S+p -> array(a, p) ingress r.
                    auto up = makeTrunk(
                        rack, true,
                        P > 1 ? strprintf("tor%u.up%u", rack, p)
                              : strprintf("tor%u.up", rack),
                        params_.rack_sw.port_bw);
                    up->connectTo(arr.inPort(r));
                    tor.attachOutLink(S + p, *up);
                    tor_up_links_[trunkIdx(rack, p)] = std::move(up);
                    // Down: array(a, p) egress r -> ToR ingress S+p.
                    auto down = makeTrunk(
                        rack, false,
                        P > 1 ? strprintf("arr%u.%u.down%u", a, p, r)
                              : strprintf("arr%u.down%u", a, r),
                        params_.array_sw.port_bw);
                    down->connectTo(tor.inPort(S + p));
                    arr.attachOutLink(r, *down);
                    arr_down_links_[trunkIdx(rack, p)] = std::move(down);
                }
            }
        }
    }

    if (has_dc_level) {
        // The array<->DC trunks never leave the switch partition; DC
        // port a*P+p faces array switch (a, p).
        Simulator &ssim = *hooks_.switch_sim;
        dc_switch_ = makeSwitch(ssim, params_.dc_sw, A * P, "dc");
        arr_up_links_.resize(static_cast<size_t>(A) * P);
        dc_down_links_.resize(static_cast<size_t>(A) * P);
        for (uint32_t a = 0; a < A; ++a) {
            for (uint32_t p = 0; p < P; ++p) {
                switchm::PacketSwitch &arr = *array_switches_[a * P + p];
                auto up = std::make_unique<net::Link>(
                    ssim,
                    P > 1 ? strprintf("arr%u.%u.up", a, p)
                          : strprintf("arr%u.up", a),
                    params_.array_sw.port_bw, params_.trunk_link_prop);
                up->connectTo(dc_switch_->inPort(a * P + p));
                arr.attachOutLink(R, *up);
                arr_up_links_[a * P + p] = std::move(up);

                auto down = std::make_unique<net::Link>(
                    ssim, strprintf("dc.down%u", a * P + p),
                    params_.dc_sw.port_bw, params_.trunk_link_prop);
                down->connectTo(arr.inPort(R));
                dc_switch_->attachOutLink(a * P + p, *down);
                dc_down_links_[a * P + p] = std::move(down);
            }
        }
    }

    // Everything starts healthy; one liveness replica per rack
    // partition (see FabricView).
    FabricView healthy;
    healthy.trunk_up.assign(static_cast<size_t>(num_racks) * P, 1);
    healthy.array_up.assign(static_cast<size_t>(A) * P, 1);
    views_.assign(num_racks, healthy);
}

std::unique_ptr<net::Link>
ClosNetwork::makeTrunk(uint32_t rack, bool up, const std::string &name,
                       Bandwidth bw)
{
    return hooks_.make_cross_link(rack, up, name, bw,
                                  params_.trunk_link_prop);
}

std::unique_ptr<switchm::PacketSwitch>
ClosNetwork::makeSwitch(Simulator &sim, const switchm::SwitchParams &base,
                        uint32_t ports, const std::string &name)
{
    switchm::SwitchParams p = base;
    p.num_ports = ports;
    p.name = name;
    return std::make_unique<switchm::PacketSwitch>(sim, p,
                                                   params_.switch_model);
}

void
ClosNetwork::checkNode(net::NodeId node) const
{
    if (node >= totalServers()) {
        panic("node id %u out of range (%u servers)", node,
              totalServers());
    }
}

uint32_t
ClosNetwork::rackOf(net::NodeId node) const
{
    return node / params_.servers_per_rack;
}

uint32_t
ClosNetwork::arrayOf(net::NodeId node) const
{
    return rackOf(node) / params_.racks_per_array;
}

uint32_t
ClosNetwork::indexInRack(net::NodeId node) const
{
    return node % params_.servers_per_rack;
}

net::PacketSink &
ClosNetwork::serverIngress(net::NodeId node)
{
    checkNode(node);
    return rack_switches_[rackOf(node)]->inPort(indexInRack(node));
}

void
ClosNetwork::attachServerSink(net::NodeId node, net::PacketSink &nic_sink)
{
    checkNode(node);
    // ToR-to-server link: both endpoints live in the rack's partition.
    auto link = std::make_unique<net::Link>(
        hooks_.rack_sim(rackOf(node)),
        strprintf("tor%u.srv%u", rackOf(node), indexInRack(node)),
        params_.rack_sw.port_bw, params_.host_link_prop);
    link->connectTo(nic_sink);
    rack_switches_[rackOf(node)]->attachOutLink(indexInRack(node), *link);
    server_links_[node] = std::move(link);
}

void
ClosNetwork::setServerAttachHook(std::function<void(net::NodeId)> hook)
{
    server_attach_hook_ = std::move(hook);
    const uint32_t S = params_.servers_per_rack;
    for (uint32_t r = 0; r < numRacks(); ++r) {
        // Only the first S ToR ports face servers; trunk ports are
        // wired eagerly at build time, so an unattached one is still a
        // routing bug and falls through to the switch's panic.
        rack_switches_[r]->setUnattachedPortHook(
            [this, r, S](uint32_t port) {
                if (port < S && server_attach_hook_) {
                    server_attach_hook_(
                        static_cast<net::NodeId>(r) * S + port);
                }
            });
    }
}

void
ClosNetwork::checkTrunk(uint32_t rack, uint32_t plane) const
{
    if (!hasArrayLevel()) {
        fatal("ClosNetwork: no trunks in a single-rack topology");
    }
    if (rack >= numRacks() || plane >= params_.uplink_planes) {
        fatal("ClosNetwork: trunk (rack %u, plane %u) out of range "
              "(%u racks, %u planes)",
              rack, plane, numRacks(), params_.uplink_planes);
    }
}

net::Link &
ClosNetwork::trunkUpLink(uint32_t rack, uint32_t plane)
{
    checkTrunk(rack, plane);
    return *tor_up_links_[trunkIdx(rack, plane)];
}

net::Link &
ClosNetwork::trunkDownLink(uint32_t rack, uint32_t plane)
{
    checkTrunk(rack, plane);
    return *arr_down_links_[trunkIdx(rack, plane)];
}

net::Link *
ClosNetwork::serverLink(net::NodeId node)
{
    checkNode(node);
    return server_links_[node].get();
}

void
ClosNetwork::scheduleViewUpdate(SimTime at,
                                const std::function<void(FabricView &)> &fn)
{
    // Replicate the update into every rack partition at the same
    // instant: each replica is written only by its own partition's
    // event, so routing state never crosses a partition boundary.
    for (uint32_t r = 0; r < numRacks(); ++r) {
        FabricView *view = &views_[r];
        hooks_.rack_sim(r).scheduleAt(at, [view, fn] { fn(*view); });
    }
}

void
ClosNetwork::scheduleTrunkState(SimTime at, uint32_t rack, uint32_t plane,
                                bool up)
{
    checkTrunk(rack, plane);
    const uint32_t P = params_.uplink_planes;
    scheduleViewUpdate(at, [rack, plane, P, up](FabricView &v) {
        v.trunk_up[static_cast<size_t>(rack) * P + plane] = up ? 1 : 0;
    });
    // Physical state flips in each link's owning partition.
    net::Link *up_link = tor_up_links_[trunkIdx(rack, plane)].get();
    hooks_.rack_sim(rack).scheduleAt(at,
                                     [up_link, up] { up_link->setUp(up); });
    net::Link *down_link = arr_down_links_[trunkIdx(rack, plane)].get();
    hooks_.switch_sim->scheduleAt(
        at, [down_link, up] { down_link->setUp(up); });
}

void
ClosNetwork::scheduleTrunkDegrade(SimTime at, uint32_t rack,
                                  uint32_t plane, double loss_prob,
                                  SimTime extra_latency, uint64_t seed)
{
    checkTrunk(rack, plane);
    // A brownout is degraded, not dead: routing keeps using the plane,
    // so no view update — TCP absorbs the loss and latency.
    net::Link *up_link = tor_up_links_[trunkIdx(rack, plane)].get();
    hooks_.rack_sim(rack).scheduleAt(
        at, [up_link, loss_prob, extra_latency, seed] {
            up_link->setDegraded(loss_prob, extra_latency, seed);
        });
    net::Link *down_link = arr_down_links_[trunkIdx(rack, plane)].get();
    hooks_.switch_sim->scheduleAt(
        at, [down_link, loss_prob, extra_latency, seed] {
            down_link->setDegraded(loss_prob, extra_latency, seed);
        });
}

void
ClosNetwork::scheduleTrunkRepair(SimTime at, uint32_t rack, uint32_t plane)
{
    checkTrunk(rack, plane);
    net::Link *up_link = tor_up_links_[trunkIdx(rack, plane)].get();
    hooks_.rack_sim(rack).scheduleAt(at,
                                     [up_link] { up_link->clearDegraded(); });
    net::Link *down_link = arr_down_links_[trunkIdx(rack, plane)].get();
    hooks_.switch_sim->scheduleAt(
        at, [down_link] { down_link->clearDegraded(); });
}

void
ClosNetwork::scheduleArraySwitchState(SimTime at, uint32_t array,
                                      uint32_t plane, bool up)
{
    if (!hasArrayLevel()) {
        fatal("ClosNetwork: no array switches in a single-rack topology");
    }
    const uint32_t P = params_.uplink_planes;
    if (array >= params_.num_arrays || plane >= P) {
        fatal("ClosNetwork: array switch (%u, %u) out of range "
              "(%u arrays, %u planes)",
              array, plane, params_.num_arrays, P);
    }
    scheduleViewUpdate(at, [array, plane, P, up](FabricView &v) {
        v.array_up[static_cast<size_t>(array) * P + plane] = up ? 1 : 0;
    });
    // A crashed switch takes every attached trunk with it: links toward
    // it drop at their transmitters, its own egress links drain its
    // queued packets into counted drops.
    const uint32_t R = params_.racks_per_array;
    for (uint32_t r = 0; r < R; ++r) {
        const uint32_t rack = array * R + r;
        net::Link *up_link = tor_up_links_[trunkIdx(rack, plane)].get();
        hooks_.rack_sim(rack).scheduleAt(
            at, [up_link, up] { up_link->setUp(up); });
        net::Link *down_link = arr_down_links_[trunkIdx(rack, plane)].get();
        hooks_.switch_sim->scheduleAt(
            at, [down_link, up] { down_link->setUp(up); });
    }
    if (dc_switch_) {
        net::Link *dc_up = arr_up_links_[array * P + plane].get();
        net::Link *dc_down = dc_down_links_[array * P + plane].get();
        hooks_.switch_sim->scheduleAt(at, [dc_up, dc_down, up] {
            dc_up->setUp(up);
            dc_down->setUp(up);
        });
    }
}

uint64_t
ClosNetwork::rerouteCount() const
{
    uint64_t n = 0;
    for (const auto &v : views_) {
        n += v.reroutes;
    }
    return n;
}

namespace {

/** Flow hash: stable under plane liveness changes. */
uint64_t
flowHash(net::NodeId src, net::NodeId dst)
{
    return ecmpMix((static_cast<uint64_t>(src) << 32) |
                   (static_cast<uint64_t>(dst) + 1));
}

/**
 * ECMP plane choice: the hash-preferred plane if live, else the
 * hash-selected live plane (counted as a reroute), else — no live plane
 * at all — the preferred plane unchanged: the flow blackholes into a
 * downed link whose drop counters tell the story.
 */
template <typename LiveFn>
uint32_t
choosePlane(uint64_t h, uint32_t planes, LiveFn live, uint64_t &reroutes)
{
    const auto pref = static_cast<uint32_t>(h % planes);
    if (live(pref)) {
        return pref;
    }
    uint32_t n_live = 0;
    for (uint32_t p = 0; p < planes; ++p) {
        n_live += live(p) ? 1 : 0;
    }
    if (n_live == 0) {
        return pref;
    }
    uint32_t k = static_cast<uint32_t>(h % n_live);
    for (uint32_t p = 0; p < planes; ++p) {
        if (!live(p)) {
            continue;
        }
        if (k == 0) {
            ++reroutes;
            return p;
        }
        --k;
    }
    return pref; // unreachable
}

} // namespace

// The deepest Clos path is 5 hops (rack → array → DC → array → rack);
// every route() below must fit the inline hop array with no spill.
static_assert(net::SourceRoute::kInlineHops >= 5,
              "SourceRoute inline capacity below max Clos diameter");

net::SourceRoute
ClosNetwork::route(net::NodeId src, net::NodeId dst) const
{
    checkNode(src);
    checkNode(dst);
    if (src == dst) {
        panic("route to self (loopback bypasses the fabric)");
    }
    const uint32_t S = params_.servers_per_rack;
    const uint32_t R = params_.racks_per_array;
    const uint32_t P = params_.uplink_planes;
    const auto dst_idx = static_cast<uint16_t>(indexInRack(dst));
    const auto dst_rack_local =
        static_cast<uint16_t>(rackOf(dst) % R);

    if (rackOf(src) == rackOf(dst)) {
        return net::SourceRoute({dst_idx});
    }

    // Reads only the calling rack's liveness replica — safe and
    // identical across sequential/parallel execution.
    const uint32_t src_rack = rackOf(src);
    const uint32_t dst_rack = rackOf(dst);
    const uint32_t a_src = arrayOf(src);
    const uint32_t a_dst = arrayOf(dst);
    const FabricView &v = views_[src_rack];
    const uint64_t h = flowHash(src, dst);

    if (a_src == a_dst) {
        // One plane carries the whole ToR-array-ToR path.
        const uint32_t p = choosePlane(
            h, P,
            [&](uint32_t q) {
                return v.trunk_up[trunkIdx(src_rack, q)] &&
                       v.array_up[a_src * P + q] &&
                       v.trunk_up[trunkIdx(dst_rack, q)];
            },
            v.reroutes);
        return net::SourceRoute({static_cast<uint16_t>(S + p),
                                 dst_rack_local, dst_idx});
    }

    // Cross-array: ascent and descent planes chosen independently (the
    // DC level joins all planes), with decorrelated hashes.
    const uint32_t p_up = choosePlane(
        h, P,
        [&](uint32_t q) {
            return v.trunk_up[trunkIdx(src_rack, q)] &&
                   v.array_up[a_src * P + q];
        },
        v.reroutes);
    const uint32_t p_down = choosePlane(
        ecmpMix(h), P,
        [&](uint32_t q) {
            return v.array_up[a_dst * P + q] &&
                   v.trunk_up[trunkIdx(dst_rack, q)];
        },
        v.reroutes);
    return net::SourceRoute({static_cast<uint16_t>(S + p_up),
                             static_cast<uint16_t>(R),
                             static_cast<uint16_t>(a_dst * P + p_down),
                             dst_rack_local, dst_idx});
}

uint32_t
ClosNetwork::preferredPlane(net::NodeId src, net::NodeId dst) const
{
    return static_cast<uint32_t>(flowHash(src, dst) %
                                 params_.uplink_planes);
}

HopClass
ClosNetwork::hopClass(net::NodeId src, net::NodeId dst) const
{
    if (rackOf(src) == rackOf(dst)) {
        return HopClass::Local;
    }
    if (arrayOf(src) == arrayOf(dst)) {
        return HopClass::OneHop;
    }
    return HopClass::TwoHop;
}

template <typename Fn>
uint64_t
ClosNetwork::sumSwitches(Fn stat) const
{
    uint64_t n = dc_switch_ ? stat(*dc_switch_) : 0;
    for (const auto *level : {&rack_switches_, &array_switches_}) {
        for (const auto &s : *level) {
            n += stat(*s);
        }
    }
    return n;
}

template <typename Fn>
uint64_t
ClosNetwork::sumLinks(Fn stat) const
{
    uint64_t n = 0;
    for (const auto *links : {&tor_up_links_, &arr_down_links_, &arr_up_links_,
                              &dc_down_links_, &server_links_}) {
        for (const auto &l : *links) {
            if (l) {
                n += stat(*l);
            }
        }
    }
    return n;
}

uint64_t
ClosNetwork::totalSwitchDrops() const
{
    return sumSwitches(
        [](const auto &s) { return s.stats().dropped_pkts; });
}

uint64_t
ClosNetwork::totalForwarded() const
{
    return sumSwitches(
        [](const auto &s) { return s.stats().forwarded_pkts; });
}

uint64_t
ClosNetwork::totalLinkDownDrops() const
{
    return sumLinks([](const net::Link &l) { return l.downDrops(); });
}

uint64_t
ClosNetwork::totalLinkDegradeDrops() const
{
    return sumLinks([](const net::Link &l) { return l.degradeDrops(); });
}

uint64_t
ClosNetwork::totalDeliveriesCoalesced() const
{
    return sumLinks(
        [](const net::Link &l) { return l.deliveriesCoalesced(); });
}

uint64_t
ClosNetwork::totalDeliveryTrains() const
{
    return sumLinks([](const net::Link &l) { return l.deliveryTrains(); });
}

} // namespace topo
} // namespace diablo
