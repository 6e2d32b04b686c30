#include "switchm/buffer_manager.hh"

#include "core/log.hh"

namespace diablo {
namespace switchm {

BufferManager::BufferManager(const SwitchParams &p)
    : policy_(p.buffer_policy),
      cap_(p.buffer_policy == BufferPolicy::Partitioned
               ? p.buffer_per_port_bytes
               : p.buffer_total_bytes),
      alpha_(p.dynamic_alpha), used_(p.num_ports, 0)
{
    if (policy_ == BufferPolicy::SharedDynamic && alpha_ <= 0) {
        fatal("switch '%s': dynamic_alpha must be positive",
              p.name.c_str());
    }
}

bool
BufferManager::tryAdmit(uint32_t port, uint32_t bytes)
{
    switch (policy_) {
      case BufferPolicy::Partitioned:
        if (used_[port] + bytes > cap_) {
            return false;
        }
        break;
      case BufferPolicy::Shared:
        if (total_used_ + bytes > cap_) {
            return false;
        }
        break;
      case BufferPolicy::SharedDynamic: {
        if (total_used_ + bytes > cap_) {
            return false;
        }
        const uint64_t free_bytes = cap_ - total_used_;
        const auto threshold =
            static_cast<uint64_t>(alpha_ * static_cast<double>(free_bytes));
        if (used_[port] + bytes > threshold) {
            return false;
        }
        break;
      }
    }
    used_[port] += bytes;
    total_used_ += bytes;
    return true;
}

void
BufferManager::release(uint32_t port, uint32_t bytes)
{
    if (used_[port] < bytes) {
        panic("BufferManager: release underflow on port %u", port);
    }
    used_[port] -= bytes;
    total_used_ -= bytes;
}

} // namespace switchm
} // namespace diablo
