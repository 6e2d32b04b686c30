#include "core/shm.hh"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <new>

#include "core/log.hh"

#include <fcntl.h>
#include <linux/futex.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

namespace diablo {

// ---------------------------------------------------------------------
// Cross-process futex
// ---------------------------------------------------------------------

namespace {

long
sysFutex(void *addr, int op, uint32_t val, const struct timespec *ts)
{
    return syscall(SYS_futex, addr, op, val, ts, nullptr, 0);
}

} // namespace

void
sharedFutexWait(std::atomic<uint32_t> *word, uint32_t expected,
                int64_t timeout_ns)
{
    struct timespec ts;
    struct timespec *tsp = nullptr;
    if (timeout_ns > 0) {
        ts.tv_sec = static_cast<time_t>(timeout_ns / 1000000000LL);
        ts.tv_nsec = static_cast<long>(timeout_ns % 1000000000LL);
        tsp = &ts;
    }
    // Deliberately *not* FUTEX_PRIVATE_FLAG: the word lives in a
    // MAP_SHARED segment and the waker may be another process.
    sysFutex(word, FUTEX_WAIT, expected, tsp);
}

void
sharedFutexWake(std::atomic<uint32_t> *word)
{
    sysFutex(word, FUTEX_WAKE, INT32_MAX, nullptr);
}

void
wakeParked(std::atomic<uint32_t> &word, std::atomic<uint32_t> &parked)
{
    if (parked.load(std::memory_order_seq_cst) != 0) {
        sharedFutexWake(&word);
    }
}

// ---------------------------------------------------------------------
// ShmSegment
// ---------------------------------------------------------------------

ShmSegment::~ShmSegment()
{
    if (mem_ != nullptr) {
        ::munmap(mem_, bytes_);
    }
}

ShmSegment::ShmSegment(ShmSegment &&o) noexcept
    : mem_(o.mem_), bytes_(o.bytes_), path_(std::move(o.path_))
{
    o.mem_ = nullptr;
    o.bytes_ = 0;
}

ShmSegment &
ShmSegment::operator=(ShmSegment &&o) noexcept
{
    if (this != &o) {
        if (mem_ != nullptr) {
            ::munmap(mem_, bytes_);
        }
        mem_ = o.mem_;
        bytes_ = o.bytes_;
        path_ = std::move(o.path_);
        o.mem_ = nullptr;
        o.bytes_ = 0;
    }
    return *this;
}

ShmSegment
ShmSegment::create(const std::string &path, size_t bytes)
{
    const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_EXCL, 0600);
    if (fd < 0) {
        fatal("ShmSegment: create %s: %s", path.c_str(),
              std::strerror(errno));
    }
    if (::ftruncate(fd, static_cast<off_t>(bytes)) != 0) {
        const int e = errno;
        ::close(fd);
        ::unlink(path.c_str());
        fatal("ShmSegment: ftruncate %s to %zu bytes: %s", path.c_str(),
              bytes, std::strerror(e));
    }
    void *mem = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED,
                       fd, 0);
    ::close(fd);
    if (mem == MAP_FAILED) {
        ::unlink(path.c_str());
        fatal("ShmSegment: mmap %s: %s", path.c_str(),
              std::strerror(errno));
    }
    ShmSegment seg;
    seg.mem_ = mem;
    seg.bytes_ = bytes;
    seg.path_ = path;
    return seg;
}

void
ShmSegment::unlinkFile()
{
    if (!path_.empty()) {
        ::unlink(path_.c_str());
        path_.clear();
    }
}

// ---------------------------------------------------------------------
// SpscRecordRing
// ---------------------------------------------------------------------

size_t
SpscRecordRing::footprint(uint32_t capacity)
{
    return kHeaderBytes + capacity;
}

SpscRecordRing *
SpscRecordRing::init(void *mem, uint32_t capacity)
{
    if (capacity < 4096 || (capacity & (capacity - 1)) != 0) {
        fatal("SpscRecordRing: capacity %u is not a power of two >= "
              "4096",
              capacity);
    }
    if ((reinterpret_cast<uintptr_t>(mem) & 63) != 0) {
        fatal("SpscRecordRing: ring memory must be 64-byte aligned");
    }
    auto *ring = new (mem) SpscRecordRing();
    ring->capacity_ = capacity;
    ring->magic_ = kMagic;
    return ring;
}

SpscRecordRing *
SpscRecordRing::attach(void *mem)
{
    auto *ring = static_cast<SpscRecordRing *>(mem);
    if (ring->magic_ != kMagic) {
        fatal("SpscRecordRing: attach to uninitialized ring memory");
    }
    return ring;
}

uint32_t
SpscRecordRing::bytesUsed() const
{
    // Free-running counters: the difference is exact under uint32
    // wraparound as long as used <= capacity, which push enforces.
    return tail_.load(std::memory_order_acquire) -
           head_.load(std::memory_order_acquire);
}

void
SpscRecordRing::copyIn(uint32_t pos, const void *src, uint32_t n)
{
    const uint32_t mask = capacity_ - 1;
    const uint32_t at = pos & mask;
    const uint32_t first = std::min(n, capacity_ - at);
    std::memcpy(dataArea() + at, src, first);
    if (first < n) {
        std::memcpy(dataArea(), static_cast<const uint8_t *>(src) + first,
                    n - first);
    }
}

void
SpscRecordRing::copyOut(uint32_t pos, void *dst, uint32_t n) const
{
    const uint32_t mask = capacity_ - 1;
    const uint32_t at = pos & mask;
    const uint32_t first = std::min(n, capacity_ - at);
    std::memcpy(dst, dataArea() + at, first);
    if (first < n) {
        std::memcpy(static_cast<uint8_t *>(dst) + first, dataArea(),
                    n - first);
    }
}

bool
SpscRecordRing::tryPush(const void *p, uint32_t n)
{
    if (n > kMaxRecordBytes || n + 4 > capacity_) {
        fatal("SpscRecordRing: record of %u bytes exceeds ring bounds "
              "(capacity %u)",
              n, capacity_);
    }
    const uint32_t tail = tail_.load(std::memory_order_relaxed);
    const uint32_t head = head_.load(std::memory_order_acquire);
    if (capacity_ - (tail - head) < n + 4) {
        return false;
    }
    copyIn(tail, &n, 4);
    copyIn(tail + 4, p, n);
    tail_.store(tail + 4 + n, std::memory_order_seq_cst);
    wakeParked(tail_, consumer_parked_);
    return true;
}

uint32_t
SpscRecordRing::tryPop(void *out, uint32_t cap)
{
    const uint32_t head = head_.load(std::memory_order_relaxed);
    const uint32_t tail = tail_.load(std::memory_order_acquire);
    if (tail == head) {
        return 0;
    }
    uint32_t n = 0;
    copyOut(head, &n, 4);
    if (n > cap) {
        fatal("SpscRecordRing: %u-byte record exceeds the %u-byte pop "
              "buffer (protocol violation)",
              n, cap);
    }
    copyOut(head + 4, out, n);
    head_.store(head + 4 + n, std::memory_order_seq_cst);
    wakeParked(head_, producer_parked_);
    return n;
}

bool
SpscRecordRing::waitForData(uint32_t spin_budget, int64_t timeout_ns)
{
    const uint32_t head = head_.load(std::memory_order_relaxed);
    parkUntil(
        tail_,
        [&](uint32_t tail) {
            return tail != head ||
                   aborted_.load(std::memory_order_seq_cst) != 0;
        },
        consumer_parked_, spin_budget, timeout_ns);
    return tail_.load(std::memory_order_acquire) != head;
}

bool
SpscRecordRing::waitForSpace(uint32_t bytes, uint32_t spin_budget,
                             int64_t timeout_ns)
{
    const uint32_t need = bytes + 4;
    const uint32_t tail = tail_.load(std::memory_order_relaxed);
    auto spaceFor = [&](uint32_t head) {
        return capacity_ - (tail - head) >= need;
    };
    parkUntil(
        head_,
        [&](uint32_t head) {
            return spaceFor(head) ||
                   aborted_.load(std::memory_order_seq_cst) != 0;
        },
        producer_parked_, spin_budget, timeout_ns);
    return spaceFor(head_.load(std::memory_order_acquire));
}

void
SpscRecordRing::setAborted()
{
    aborted_.store(1, std::memory_order_seq_cst);
    wakeParked(tail_, consumer_parked_);
    wakeParked(head_, producer_parked_);
}

} // namespace diablo
