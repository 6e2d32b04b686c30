#include "nic/nic_model.hh"

#include "core/log.hh"

namespace diablo {
namespace nic {

NicParams
NicParams::fromConfig(const Config &cfg, const std::string &prefix,
                     const NicParams &defaults)
{
    NicParams p = defaults;
    p.tx_ring_entries = static_cast<uint32_t>(
        cfg.getUint(prefix + "tx_ring_entries", p.tx_ring_entries));
    p.rx_ring_entries = static_cast<uint32_t>(
        cfg.getUint(prefix + "rx_ring_entries", p.rx_ring_entries));
    p.zero_copy = cfg.getBool(prefix + "zero_copy", p.zero_copy);
    p.dma_latency = SimTime::nanoseconds(
        cfg.getDouble(prefix + "dma_latency_ns", p.dma_latency.asNanos()));
    p.rx_itr = SimTime::microseconds(
        cfg.getDouble(prefix + "rx_itr_us", p.rx_itr.asMicros()));
    return p;
}

NicModel::NicModel(Simulator &sim, std::string name, const NicParams &params)
    : sim_(sim), name_(std::move(name)), params_(params)
{
    // Reserve the full descriptor-ring depth up front: the rings never
    // allocate again, matching the fixed host-memory rings they model.
    tx_ring_.reserve(params_.tx_ring_entries);
    rx_ring_.reserve(params_.rx_ring_entries);
}

void
NicModel::attachTxLink(net::Link &link)
{
    tx_link_ = &link;
}

void
NicModel::attachKernel(os::Kernel &kernel)
{
    kernel_ = &kernel;
    kernel.attachNic(*this);
}

// ---------------------------------------------------------------------
// TX path
// ---------------------------------------------------------------------

void
NicModel::txEnqueue(net::PacketPtr p)
{
    if (txRingFull()) {
        // The driver contract is to check txRingFull() first (the
        // kernel's qdisc pump does); a racing enqueue is accounted as
        // a counted drop — degradation, not a panic — mirroring what
        // posting past the hardware tail pointer would do to the frame.
        tx_ring_drops_.inc();
        return;
    }
    tx_ring_.push_back(std::move(p));
    txPump();
}

void
NicModel::txPump()
{
    if (tx_link_ == nullptr) {
        panic("NIC %s: no TX link attached", name_.c_str());
    }
    if (tx_ring_.empty() || tx_link_->busy()) {
        return;
    }
    tx_packets_.inc();
    const SimTime tx_done = tx_link_->transmit(std::move(tx_ring_.front()));
    tx_ring_.pop_front();
    // TX completion: when the line frees (at once on a downed link),
    // send the next descriptor, then let the kernel refill the ring
    // from its qdisc.
    sim_.scheduleAt(tx_done, [this] {
        txPump();
        if (kernel_ != nullptr) {
            kernel_->txRingSpace();
        }
    });
}

// ---------------------------------------------------------------------
// RX path
// ---------------------------------------------------------------------

void
NicModel::receive(net::PacketPtr p)
{
    // DMA into the RX ring after the host-transfer latency.  The event
    // owns the packet so in-flight DMAs are reclaimed with the queue if
    // the run stops first.
    sim_.schedule(params_.dma_latency, [this, p = std::move(p)]() mutable {
        if (rx_ring_.size() >= params_.rx_ring_entries) {
            rx_ring_drops_.inc(); // overrun: host too slow to drain
            return;
        }
        rx_packets_.inc();
        rx_ring_.push_back(std::move(p));
        maybeRaiseIrq();
    });
}

void
NicModel::maybeRaiseIrq()
{
    if (!irq_enabled_ || rx_ring_.empty() || kernel_ == nullptr) {
        return;
    }
    const SimTime now = sim_.now();
    const SimTime earliest = last_irq_ < SimTime()
                                 ? now
                                 : last_irq_ + params_.rx_itr;
    if (earliest <= now) {
        last_irq_ = now;
        irqs_.inc();
        kernel_->rxInterrupt();
        return;
    }
    if (!irq_scheduled_) {
        irq_scheduled_ = true;
        sim_.scheduleAt(earliest, [this] {
            irq_scheduled_ = false;
            maybeRaiseIrq();
        });
    }
}

net::PacketPtr
NicModel::rxDequeue()
{
    if (rx_ring_.empty()) {
        return nullptr;
    }
    net::PacketPtr p = std::move(rx_ring_.front());
    rx_ring_.pop_front();
    return p;
}

void
NicModel::rxInterruptsEnable(bool on)
{
    irq_enabled_ = on;
    if (on) {
        maybeRaiseIrq(); // packets that arrived while polling was active
    }
}

} // namespace nic
} // namespace diablo
