#include "core/cpu_topology.hh"

#include <cstring>
#include <thread>

#ifdef __linux__
#include <sched.h>
#endif

namespace diablo {

std::vector<int> allowedCpus() {
    std::vector<int> cpus;
#ifdef __linux__
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &set))
                cpus.push_back(c);
    }
#endif
    if (cpus.empty()) {
        const unsigned n = std::thread::hardware_concurrency();
        for (unsigned c = 0; c < (n ? n : 1); ++c)
            cpus.push_back((int)c);
    }
    return cpus;
}

bool pinCurrentThreadToCpu(int cpu) {
#ifdef __linux__
    if (cpu < 0 || cpu >= CPU_SETSIZE)
        return false;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    return sched_setaffinity(0, sizeof(set), &set) == 0;
#else
    (void)cpu;
    return false;
#endif
}

SavedAffinity saveCurrentThreadAffinity() {
    SavedAffinity s;
#ifdef __linux__
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
        s.mask.assign((const uint8_t *)&set,
                      (const uint8_t *)&set + sizeof(set));
        s.valid = true;
    }
#endif
    return s;
}

void restoreCurrentThreadAffinity(const SavedAffinity &saved) {
#ifdef __linux__
    if (!saved.valid || saved.mask.size() != sizeof(cpu_set_t))
        return;
    cpu_set_t set;
    std::memcpy(&set, saved.mask.data(), sizeof(set));
    sched_setaffinity(0, sizeof(set), &set);
#else
    (void)saved;
#endif
}

} // namespace diablo
