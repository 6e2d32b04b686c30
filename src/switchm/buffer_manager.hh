#ifndef DIABLO_SWITCHM_BUFFER_MANAGER_HH_
#define DIABLO_SWITCHM_BUFFER_MANAGER_HH_

/**
 * @file
 * Switch packet-buffer accounting.
 *
 * The paper bases its packet buffer models "after that of the Cisco Nexus
 * 5000 switch, with configurable parameters selected according to a
 * Broadcom switch design [42]"; the validation hardware (Asante IC35516)
 * uses a shared pool.  The three BufferPolicy values cover that space:
 * per-port partitioned, fully shared, and shared with dynamic per-queue
 * thresholds.  They differ only in the admission test.
 */

#include <cstdint>
#include <vector>

#include "switchm/switch_params.hh"

namespace diablo {
namespace switchm {

/**
 * Admission control and accounting for a switch's packet memory.  A
 * "port" is whichever port the switch charges a packet to: the input
 * for a VOQ switch, the output for an output-queued one.
 */
class BufferManager {
  public:
    /** The policy, port count and sizes of @p params. */
    explicit BufferManager(const SwitchParams &params);

    /**
     * Try to admit @p bytes charged to @p port.  On success the bytes
     * are charged and true is returned; on failure nothing is charged
     * (the packet must be dropped).
     */
    bool tryAdmit(uint32_t port, uint32_t bytes);

    /** Return bytes previously admitted for @p port. */
    void release(uint32_t port, uint32_t bytes);

    uint64_t used() const { return total_used_; }
    uint64_t usedAt(uint32_t port) const { return used_[port]; }

  private:
    BufferPolicy policy_;
    /** Per-port budget (Partitioned) or pool size (shared policies). */
    uint64_t cap_;
    /**
     * SharedDynamic: a port may occupy at most alpha * (free pool
     * bytes), which adapts per-port limits to load (Broadcom-style
     * flexible buffer allocation).
     */
    double alpha_;
    uint64_t total_used_ = 0;
    std::vector<uint64_t> used_;
};

} // namespace switchm
} // namespace diablo

#endif // DIABLO_SWITCHM_BUFFER_MANAGER_HH_
