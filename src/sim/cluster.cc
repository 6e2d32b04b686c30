#include "sim/cluster.hh"

#include <cstring>

#include "core/log.hh"
#include "net/channel_link.hh"
#include "net/packet_record.hh"
#include "sim/telemetry.hh"

namespace diablo {
namespace sim {

namespace {

switchm::SwitchParams
shallowGigeSwitch()
{
    switchm::SwitchParams p;
    p.port_bw = Bandwidth::gbps(1);
    p.port_latency = SimTime::us(1);
    p.cut_through = true;
    p.buffer_policy = switchm::BufferPolicy::Partitioned;
    p.buffer_per_port_bytes = 4096; // Nortel 5500-class shallow buffer
    return p;
}

} // namespace

ClusterParams
ClusterParams::gige1us()
{
    ClusterParams p;
    p.topo.rack_sw = shallowGigeSwitch();
    // Aggregation-layer switches carry deep shared packet memory with
    // Broadcom-style dynamic thresholds (the paper models its buffers
    // "after the Cisco Nexus 5000 ... configurable parameters selected
    // according to a Broadcom switch design"); the paper's memcached
    // runs see queueing tails there but **no** buffer-overrun
    // retransmissions, which requires megabyte-class pools.
    p.topo.array_sw = shallowGigeSwitch();
    p.topo.array_sw.buffer_policy = switchm::BufferPolicy::SharedDynamic;
    p.topo.array_sw.buffer_total_bytes = 2 * 1024 * 1024;
    p.topo.array_sw.dynamic_alpha = 0.5;
    p.topo.dc_sw = p.topo.array_sw;
    p.topo.host_bw = Bandwidth::gbps(1);
    return p;
}

ClusterParams
ClusterParams::tengig100ns()
{
    ClusterParams p = gige1us();
    for (switchm::SwitchParams *sw :
         {&p.topo.rack_sw, &p.topo.array_sw, &p.topo.dc_sw}) {
        sw->port_bw = Bandwidth::gbps(10);
        sw->port_latency = SimTime::ns(100);
    }
    p.topo.host_bw = Bandwidth::gbps(10);
    return p;
}

void
ClusterParams::applyConfig(const Config &cfg)
{
    // Every layer reads its keys over its current value, so a preset
    // (gige1us, tengig100ns) survives a config that does not name them.
    topo = topo::ClosParams::fromConfig(cfg, "topo.", topo);
    cpu = os::CpuParams::fromConfig(cfg, "cpu.", cpu);
    if (cfg.has("kernel.version")) {
        kernel_profile = os::KernelProfile::byName(
            cfg.getString("kernel.version", kernel_profile.name));
    }
    kernel_profile.applyConfig(cfg, "kernel.");
    tcp = os::TcpParams::fromConfig(cfg, "tcp.", tcp);
    nic = nic::NicParams::fromConfig(cfg, "nic.", nic);
    seed = cfg.getUint("seed", seed);
    lazy_servers = cfg.getBool("sim.lazy_servers", lazy_servers);
}

/**
 * A materialized server: kernel + NIC + uplink constructed in place in
 * the rack partition's arena, fully wired by the constructor (the old
 * eager buildServers() loop, verbatim).  Construction schedules no
 * events and draws no randomness, so materializing mid-run — from the
 * ToR's delivery path — cannot perturb simulated behaviour.
 */
struct Cluster::ServerState {
    os::Kernel kernel;
    nic::NicModel nic;
    net::Link uplink; ///< NIC -> ToR

    ServerState(Simulator &rsim, net::NodeId node,
                const ClusterParams &params, topo::ClosNetwork *net)
        : kernel(rsim, node, params.cpu, params.kernel_profile,
                 [net, node](net::NodeId dst) {
                     return net->route(node, dst);
                 }),
          nic(rsim, strprintf("nic%u", node), params.nic),
          uplink(rsim, strprintf("srv%u.up", node), params.topo.host_bw,
                 params.topo.host_link_prop)
    {
        kernel.setTcpParams(params.tcp);
        nic.attachKernel(kernel);
        uplink.connectTo(net->serverIngress(node));
        nic.attachTxLink(uplink);
        net->attachServerSink(node, nic);

        // The multiplied-by-active-set struct budget (heap growth
        // behind these members is bounded separately: rings are sized
        // by NicParams, OS bookkeeping by the kernel.cc asserts).
        static_assert(sizeof(ServerState) <= 2048,
                      "ServerState grew past its per-node byte budget");
    }
};

size_t
Cluster::partitionsRequired(const ClusterParams &params)
{
    const uint32_t racks =
        params.topo.racks_per_array * params.topo.num_arrays;
    // A single-rack array is just a ToR: no aggregation levels, so no
    // switch partition (and no cross-partition channels at all).
    return racks + (racks > 1 ? 1 : 0);
}

Cluster::Cluster(Simulator &sim, const ClusterParams &params)
    : parts_{&sim}, params_(params), rng_(params.seed)
{
    network_ = std::make_unique<topo::ClosNetwork>(sim, params_.topo);
    buildServers();
}

Cluster::Cluster(fame::PartitionSet &ps, const ClusterParams &params)
    : ps_(&ps), params_(params), rng_(params.seed)
{
    const uint32_t racks = numRacks();
    const size_t need = partitionsRequired(params_);
    if (ps.size() != need) {
        fatal("Cluster: sharded build of %u racks needs %zu partitions "
              "(one per rack%s), got %zu",
              racks, need, racks > 1 ? " + 1 for the switch levels" : "",
              ps.size());
    }
    for (size_t i = 0; i < ps.size(); ++i) {
        parts_.push_back(&ps.partition(i));
    }

    // Rack r -> partition r; array/datacenter switches -> partition
    // `racks` (the Switch-FPGA analog).  The only cross-partition edges
    // are the ToR<->array trunks; each becomes a ChannelLink over its
    // own channel, with the channel's conservative lookahead set to the
    // trunk's minimum transmit-to-delivery latency (propagation +
    // forwarding-header serialization).  That minimum across all trunks
    // is the PartitionSet's synchronization quantum.
    topo::ClosPartitionHooks hooks;
    hooks.rack_sim = [&ps](uint32_t rack) -> Simulator & {
        return ps.partition(rack);
    };
    hooks.switch_sim = &ps.partition(racks > 1 ? racks : 0);
    hooks.make_cross_link =
        [this, &ps, racks](uint32_t rack, bool up, const std::string &name,
                           Bandwidth bw, SimTime prop)
        -> std::unique_ptr<net::Link> {
        const size_t switch_part = racks;
        const size_t src = up ? rack : switch_part;
        const size_t dst = up ? switch_part : rack;
        fame::PartitionSet::Channel &ch = ps.makeChannel(
            src, dst, net::ChannelLink::minDeliveryLatency(bw, prop),
            name);
        auto link = std::make_unique<net::ChannelLink>(
            ps.partition(src), name, bw, prop,
            [&ch](SimTime when, EventFn fn) {
                ch.post(when, std::move(fn));
            });
        trunks_.push_back(Trunk{&ch, link.get()});
        return link;
    };
    network_ = std::make_unique<topo::ClosNetwork>(hooks, params_.topo);
    buildServers();

    // Balance hints for the partition placement (lptAssign, onto
    // runParallel's workers and --processes ranks alike): a rack
    // partition's event rate scales with the servers it hosts
    // (kernel/NIC/uplink per server, plus its ToR); the switch
    // partition carries the aggregation levels, whose forwarding load
    // scales with total trunk fan-in.  Pure wall-clock hints — results
    // are identical for any placement.
    for (uint32_t r = 0; r < racks; ++r) {
        ps.setPartitionWeight(r, params_.topo.servers_per_rack + 1.0);
    }
    if (racks > 1) {
        ps.setPartitionWeight(
            racks, 1.0 + 0.5 * racks * params_.topo.uplink_planes);
    }
}

void
Cluster::enableProcessCoupling(const fame::PartitionSet::CoupledOptions &opts)
{
    if (ps_ == nullptr) {
        fatal("Cluster::enableProcessCoupling: cluster is not sharded "
              "over a PartitionSet");
    }
    // Tag every partition's pool with its dense index (creating pools
    // that don't exist yet) so a trunk-crossing packet can name its
    // origin partition on the wire and the receiving process can ghost
    // a replica from the matching local pool.
    for (size_t i = 0; i < ps_->size(); ++i) {
        net::packetPoolOf(ps_->partition(i)).setTag(
            static_cast<int64_t>(i));
    }
    for (Trunk &t : trunks_) {
        fame::PartitionSet::Channel &ch = *t.ch;
        net::ChannelLink *link = t.link;
        // Outbound: when the channel's destination partition is owned
        // by a peer process, flatten deliveries into PacketRecords and
        // buffer them on the channel for the next window flush.
        link->enableRecordPath(
            ch.remoteOutgoingFlag(),
            [this, &ch](SimTime when, const net::PacketRecord &rec) {
                ps_->postRecord(ch, when, &rec, sizeof(rec));
            });
        // Inbound: rebuild the packet (ghost-making from the origin
        // partition's local replica pool) and deliver it through the
        // same ChannelLink sink path the closure route uses, so queue
        // position and downstream behaviour are identical.
        ps_->setChannelDecoder(
            ch,
            [this, link](Simulator &, SimTime, const void *bytes,
                         uint32_t len) -> EventFn {
                if (len != sizeof(net::PacketRecord)) {
                    fatal("coupled trunk %s: %u-byte wire record "
                          "(expected %zu)",
                          link->name().c_str(), len,
                          sizeof(net::PacketRecord));
                }
                net::PacketRecord rec;
                std::memcpy(&rec, bytes, sizeof(rec));
                net::PacketPool *origin =
                    rec.origin_part == net::PacketRecord::kHeapOrigin
                        ? nullptr
                        : &net::packetPoolOf(
                              ps_->partition(rec.origin_part));
                net::PacketPtr p = net::materializePacket(rec, origin);
                auto deliver = [link, p = std::move(p)]() mutable {
                    link->receiveRecord(std::move(p));
                };
                static_assert(
                    EventFn::inlineable<decltype(deliver)>(),
                    "coupled trunk delivery closure outgrew the EventFn "
                    "inline buffer (per-message heap allocation)");
                return EventFn(std::move(deliver));
            });
    }
    ps_->enableCoupled(opts);
}

Cluster::Step
Cluster::engineStep(bool parallel)
{
    return [this, parallel](SimTime t) {
        if (ps_ == nullptr) {
            parts_[0]->runUntil(t);
        } else if (parallel) {
            ps_->runParallel(t);
        } else {
            ps_->runSequential(t);
        }
        return true;
    };
}

Cluster::DriveEnd
Cluster::drive(SimTime window, SimTime cap, const Step &step,
               const std::function<bool()> &done,
               const std::function<bool()> &pulse, TelemetryProbe *probe)
{
    SimTime t;
    while (!done()) {
        if (pulse && pulse()) {
            return {DriveEnd::Stopped, t};
        }
        if (!(t < cap)) {
            return {DriveEnd::Capped, t};
        }
        t = t + window;
        if (!(probe != nullptr ? probe->driveTo(t, step) : step(t))) {
            return {DriveEnd::Abandoned, t};
        }
        // A coupled leader cannot see its peers' pending work.
        if (!done() &&
            (ps_ == nullptr ? parts_[0]->idle()
                            : !ps_->coupled() &&
                                  ps_->nextPendingTime() == SimTime::max())) {
            return {DriveEnd::Idle, t};
        }
    }
    return {DriveEnd::Done, t};
}

Simulator &
Cluster::simForRack(uint32_t rack)
{
    return *parts_[ps_ != nullptr ? rack : 0];
}

void
Cluster::buildServers()
{
    const uint32_t n = network_->totalServers();
    nodes_.assign(n, nullptr);

    // One arena per rack partition so parallel-run materializations
    // bump-allocate without synchronization; a non-sharded cluster runs
    // single-threaded and shares one arena.
    const size_t num_arenas = ps_ != nullptr ? numRacks() : 1;
    arenas_.resize(num_arenas);
    arena_nodes_.resize(num_arenas);

    // Second materialization trigger: the first packet the fabric tries
    // to deliver to an unattached ToR server port.  The hook runs inside
    // the delivering event on the rack's own partition, before any
    // forwarding state is touched, so the packet lands on a fully wired
    // NIC and the simulated outcome matches the eager build exactly.
    network_->setServerAttachHook(
        [this](net::NodeId node) { ensureServer(node); });

    if (!params_.lazy_servers) {
        for (uint32_t node = 0; node < n; ++node) {
            ensureServer(node);
        }
    }
}

Cluster::ServerState &
Cluster::ensureServer(net::NodeId node)
{
    if (node >= nodes_.size()) {
        fatal("Cluster: node %u out of range (cluster has %zu servers)",
              node, nodes_.size());
    }
    ServerState *s = nodes_[node];
    return s != nullptr ? *s : *materialize(node);
}

Cluster::ServerState *
Cluster::materialize(net::NodeId node)
{
    // Every per-server model element lives in the server's rack
    // partition; its NIC uplink terminates at the ToR, which is in the
    // same partition, so the uplink is an ordinary Link.  The arena,
    // the nodes_ slot, and the per-arena order log are all owned by
    // that same partition, so mid-run materializations from two racks
    // never share state.
    const uint32_t rack = node / params_.topo.servers_per_rack;
    const size_t arena = arenas_.size() == 1 ? 0 : rack;
    ServerState *s = arenas_[arena].make<ServerState>(
        simForRack(rack), node, params_, network_.get());
    nodes_[node] = s;
    arena_nodes_[arena].push_back(node);
    return s;
}

Cluster::~Cluster()
{
    // Arena memory is bump-allocated: the arena frees the slabs but
    // never runs destructors, so tear nodes down explicitly — within
    // each arena in reverse materialization order — while the network
    // they detach from is still alive.
    for (size_t a = arena_nodes_.size(); a-- > 0;) {
        std::vector<net::NodeId> &order = arena_nodes_[a];
        for (size_t i = order.size(); i-- > 0;) {
            nodes_[order[i]]->~ServerState();
            nodes_[order[i]] = nullptr;
        }
    }
}

os::Kernel &
Cluster::kernel(net::NodeId node)
{
    return ensureServer(node).kernel;
}

nic::NicModel &
Cluster::nic(net::NodeId node)
{
    return ensureServer(node).nic;
}

net::Link &
Cluster::uplink(net::NodeId node)
{
    return ensureServer(node).uplink;
}

size_t
Cluster::materializedServers() const
{
    size_t n = 0;
    for (const SlabArena &a : arenas_) {
        n += a.objects();
    }
    return n;
}

std::vector<Cluster::ArenaStats>
Cluster::arenaStats() const
{
    std::vector<ArenaStats> out;
    out.reserve(arenas_.size());
    for (const SlabArena &a : arenas_) {
        ArenaStats st;
        st.nodes = a.objects();
        st.bytes_used = a.bytesUsed();
        st.bytes_reserved = a.bytesReserved();
        out.push_back(st);
    }
    return out;
}

template <typename Fn>
uint64_t
Cluster::sumServers(Fn stat) const
{
    uint64_t n = 0;
    for (const ServerState *s : nodes_) {
        if (s != nullptr) {
            n += stat(*s);
        }
    }
    return n;
}

uint64_t
Cluster::totalTcpRetransmits() const
{
    return sumServers(
        [](const ServerState &s) { return s.kernel.stats().tcp_retransmits; });
}

uint64_t
Cluster::totalTcpRtos() const
{
    return sumServers(
        [](const ServerState &s) { return s.kernel.stats().tcp_rtos; });
}

uint64_t
Cluster::totalTcpAborts() const
{
    return sumServers(
        [](const ServerState &s) { return s.kernel.stats().tcp_aborts; });
}

uint64_t
Cluster::totalTcpRecovered() const
{
    return sumServers(
        [](const ServerState &s) { return s.kernel.stats().tcp_recovered; });
}

uint64_t
Cluster::totalCrashRxDiscards() const
{
    return sumServers([](const ServerState &s) {
        return s.kernel.stats().crash_rx_discards;
    });
}

uint64_t
Cluster::totalUdpSocketDrops() const
{
    return sumServers([](const ServerState &s) {
        return s.kernel.stats().udp_rx_overflow_drops;
    });
}

uint64_t
Cluster::totalNicRxDrops() const
{
    return sumServers(
        [](const ServerState &s) { return s.nic.rxRingDrops(); });
}

uint64_t
Cluster::totalNicTxRingDrops() const
{
    return sumServers(
        [](const ServerState &s) { return s.nic.txRingDrops(); });
}

std::vector<Cluster::PoolStats>
Cluster::poolStats() const
{
    auto snapshot = [](Simulator &sim) {
        PoolStats ps;
        if (const net::PacketPool *pool = net::packetPoolIfAttached(sim)) {
            ps.makes = pool->makes();
            ps.recycles = pool->recycles();
            ps.heap_allocs = pool->heapAllocs();
            ps.returns = pool->returns();
            ps.high_water = pool->highWater();
        }
        return ps;
    };
    std::vector<PoolStats> out;
    out.reserve(parts_.size());
    for (Simulator *p : parts_) {
        out.push_back(snapshot(*p));
    }
    return out;
}

uint64_t
Cluster::totalDeliveriesCoalesced() const
{
    return network_->totalDeliveriesCoalesced() +
           sumServers([](const ServerState &s) {
               return s.uplink.deliveriesCoalesced();
           });
}

uint64_t
Cluster::totalDeliveryTrains() const
{
    return network_->totalDeliveryTrains() +
           sumServers(
               [](const ServerState &s) { return s.uplink.deliveryTrains(); });
}

} // namespace sim
} // namespace diablo
