#ifndef DIABLO_CORE_CPU_TOPOLOGY_HH_
#define DIABLO_CORE_CPU_TOPOLOGY_HH_

/**
 * @file
 * The CPUs a thread may run on, and thread pinning.
 *
 * The parallel FAME engine asks the host one question: which CPUs may
 * this run use?  The answer is the calling thread's affinity mask, so
 * `taskset`, `numactl` and cpusets confine the engine the way the
 * operator asked.  The mask sets the default worker count, decides
 * whether a run is oversubscribed (more workers than CPUs, where the
 * barrier must park instead of spinning), and lists the CPUs automatic
 * placement pins workers to.
 */

#include <cstdint>
#include <vector>

namespace diablo {

/**
 * CPU ids in the calling thread's affinity mask, ascending.  Never
 * empty: where the mask cannot be read it is CPUs
 * 0..hardware_concurrency()-1.
 */
std::vector<int> allowedCpus();

/**
 * Pin the calling thread to one CPU.  Returns false (and leaves the
 * affinity unchanged) when the kernel refuses.
 */
bool pinCurrentThreadToCpu(int cpu);

/**
 * Opaque saved affinity mask of the calling thread, for restoring the
 * caller's mask after a run borrows it as worker 0.  An empty save
 * (capture failed) makes restore a no-op.
 */
struct SavedAffinity {
    std::vector<uint8_t> mask;
    bool valid = false;
};

SavedAffinity saveCurrentThreadAffinity();
void restoreCurrentThreadAffinity(const SavedAffinity &saved);

} // namespace diablo

#endif // DIABLO_CORE_CPU_TOPOLOGY_HH_
