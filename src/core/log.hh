#ifndef DIABLO_CORE_LOG_HH_
#define DIABLO_CORE_LOG_HH_

/**
 * @file
 * Logging and error-termination helpers.
 *
 * Follows the gem5 discipline:
 *  - panic():  a simulator bug — something that should never happen
 *              regardless of user input.  Calls abort().
 *  - fatal():  a user error (bad configuration, impossible parameter
 *              combination).  Exits with status 1.
 *  - log::warn(): a non-fatal status message on stderr.
 */

#include <string>

namespace diablo {
namespace log {

/** printf-style warning, printed to stderr as "[WARN] <message>". */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

} // namespace log

/**
 * Terminate because of an internal simulator bug.  Never returns.
 */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Terminate because the user asked for something impossible (bad
 * configuration or arguments).  Never returns.
 */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** printf-style formatting into a std::string. */
std::string strprintf(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

} // namespace diablo

#endif // DIABLO_CORE_LOG_HH_
