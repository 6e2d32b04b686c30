#include "core/log.hh"

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <vector>

namespace diablo {
namespace log {

void
warn(const char *fmt, ...)
{
    std::fprintf(stderr, "[WARN] ");
    va_list ap;
    va_start(ap, fmt);
    std::vfprintf(stderr, fmt, ap);
    va_end(ap);
    std::fputc('\n', stderr);
}

} // namespace log

void
panic(const char *fmt, ...)
{
    std::fprintf(stderr, "panic: ");
    va_list ap;
    va_start(ap, fmt);
    std::vfprintf(stderr, fmt, ap);
    va_end(ap);
    std::fputc('\n', stderr);
    std::abort();
}

void
fatal(const char *fmt, ...)
{
    std::fprintf(stderr, "fatal: ");
    va_list ap;
    va_start(ap, fmt);
    std::vfprintf(stderr, fmt, ap);
    va_end(ap);
    std::fputc('\n', stderr);
    std::exit(1);
}

std::string
strprintf(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    va_list ap2;
    va_copy(ap2, ap);
    int n = std::vsnprintf(nullptr, 0, fmt, ap);
    va_end(ap);
    std::string out;
    if (n > 0) {
        std::vector<char> buf(static_cast<size_t>(n) + 1);
        std::vsnprintf(buf.data(), buf.size(), fmt, ap2);
        out.assign(buf.data(), static_cast<size_t>(n));
    }
    va_end(ap2);
    return out;
}

} // namespace diablo
