#ifndef DIABLO_NIC_NIC_MODEL_HH_
#define DIABLO_NIC_NIC_MODEL_HH_

/**
 * @file
 * Abstracted Ethernet NIC model.
 *
 * The DIABLO NIC "models an abstracted Ethernet device, whose internal
 * architecture resembles that of the Intel 8254x Gigabit Ethernet
 * controller" (§3.3): ring-based packet buffers with scatter/gather DMA
 * in host memory, RX/TX interrupt mitigation, and a NAPI polling driver.
 * This class is that device: the kernel model is its driver.
 *
 *  - TX: the kernel enqueues into a bounded TX descriptor ring; the NIC
 *    drains it onto the attached link at line rate and raises TX
 *    completions (modeled as the kernel's qdisc pump callback).
 *  - RX: arriving packets DMA into a bounded RX ring after a fixed DMA
 *    latency; overflow is dropped (no flow control).  Interrupts follow
 *    an e1000-style throttle (ITR): at most one interrupt per mitigation
 *    interval, and none while the kernel has them masked for NAPI
 *    polling.
 *  - Zero-copy: scatter/gather DMA lets the kernel skip the user-space
 *    copy on TX (checksum offload is emulated by charging no CPU, as in
 *    the paper).
 */

#include <string>

#include "core/config.hh"
#include "core/ring_buffer.hh"
#include "core/simulator.hh"
#include "core/stats.hh"
#include "net/link.hh"
#include "net/packet.hh"
#include "os/kernel.hh"

namespace diablo {
namespace nic {

/** Runtime-configurable NIC parameters. */
struct NicParams {
    uint32_t tx_ring_entries = 256;
    uint32_t rx_ring_entries = 256;
    bool zero_copy = true;

    /** PCIe/DMA latency before a received frame is visible to the host. */
    SimTime dma_latency = SimTime::ns(600);

    /**
     * Interrupt mitigation: minimum spacing between RX interrupts
     * (e1000 InterruptThrottleRate ~= 1 / this).  Zero = immediate.
     */
    SimTime rx_itr = SimTime();

    /** Read the @p prefix keys over @p defaults. */
    static NicParams fromConfig(const Config &cfg, const std::string &prefix,
                                const NicParams &defaults);
    static NicParams
    fromConfig(const Config &cfg, const std::string &prefix)
    {
        return fromConfig(cfg, prefix, NicParams());
    }
};

/** Intel 8254x-style NIC; PacketSink on the wire side, NicDevice to the
 *  kernel. */
class NicModel : public os::NicDevice, public net::PacketSink {
  public:
    NicModel(Simulator &sim, std::string name, const NicParams &params);

    /** Wire the NIC's transmitter to @p link (takes its tx-done hook). */
    void attachTxLink(net::Link &link);

    /** Bind to the owning kernel (also registers as the kernel's NIC). */
    void attachKernel(os::Kernel &kernel);

    // --- NicDevice (driver-facing) ---
    bool txRingFull() const override
    {
        return tx_ring_.size() >= params_.tx_ring_entries;
    }
    void txEnqueue(net::PacketPtr p) override;
    net::PacketPtr rxDequeue() override;
    size_t rxPending() const override { return rx_ring_.size(); }
    void rxInterruptsEnable(bool on) override;
    bool zeroCopy() const override { return params_.zero_copy; }

    // --- PacketSink (wire-facing) ---
    void receive(net::PacketPtr p) override;

    const NicParams &params() const { return params_; }
    uint64_t rxRingDrops() const { return rx_ring_drops_.value(); }
    /** Packets dropped because the TX descriptor ring was full. */
    uint64_t txRingDrops() const { return tx_ring_drops_.value(); }
    uint64_t rxPackets() const { return rx_packets_.value(); }
    uint64_t txPackets() const { return tx_packets_.value(); }
    uint64_t interruptsRaised() const { return irqs_.value(); }

  private:
    void txPump();
    void maybeRaiseIrq();

    Simulator &sim_;
    std::string name_;
    NicParams params_;
    net::Link *tx_link_ = nullptr;
    os::Kernel *kernel_ = nullptr;

    /**
     * Descriptor rings: fixed-capacity circular buffers reserved at the
     * modeled 8254x ring depth — the hardware analog (a ring in host
     * memory never grows), and allocation-free after construction.
     */
    RingBuffer<net::PacketPtr> tx_ring_;
    RingBuffer<net::PacketPtr> rx_ring_;

    bool irq_enabled_ = true;
    bool irq_scheduled_ = false;
    SimTime last_irq_ = SimTime::fromPs(-1);

    Counter rx_ring_drops_;
    Counter tx_ring_drops_;
    Counter rx_packets_;
    Counter tx_packets_;
    Counter irqs_;
};

} // namespace nic
} // namespace diablo

#endif // DIABLO_NIC_NIC_MODEL_HH_
