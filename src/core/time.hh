#ifndef DIABLO_CORE_TIME_HH_
#define DIABLO_CORE_TIME_HH_

/**
 * @file
 * Simulation time type with picosecond resolution.
 *
 * DIABLO simulates network events at nanosecond scale (a 64-byte packet on
 * a 10 Gbps link lasts ~50 ns) and CPU events at sub-nanosecond scale (a
 * 4 GHz fixed-CPI core retires an instruction every 250 ps), so the global
 * clock uses picoseconds in a signed 64-bit integer.  That gives a
 * simulated-time range of ~106 days, far beyond any WSC-array experiment.
 */

#include <cstdint>
#include <compare>
#include <limits>
#include <string>

namespace diablo {

/**
 * A point in (or distance between points in) simulated time.
 *
 * SimTime is a value type wrapping a signed picosecond count.  The same
 * type is used for absolute times and durations; arithmetic is exact
 * integer arithmetic, which keeps the simulator deterministic across
 * hosts and optimization levels.
 */
class SimTime {
  public:
    constexpr SimTime() : ps_(0) {}

    /** Named constructors from integer quantities of each unit. */
    static constexpr SimTime
    fromPs(int64_t v)
    {
        return SimTime(v);
    }
    static constexpr SimTime ps(int64_t v) { return SimTime(v); }
    static constexpr SimTime ns(int64_t v) { return SimTime(v * 1000); }
    static constexpr SimTime us(int64_t v) { return SimTime(v * 1000000); }
    static constexpr SimTime
    ms(int64_t v)
    {
        return SimTime(v * 1000000000LL);
    }
    static constexpr SimTime
    sec(int64_t v)
    {
        return SimTime(v * 1000000000000LL);
    }

    /**
     * Construct from a floating-point number of seconds.  Rounds to the
     * nearest picosecond; used when converting from rate computations.
     */
    static constexpr SimTime
    seconds(double v)
    {
        return SimTime(static_cast<int64_t>(v * 1e12 + (v >= 0 ? 0.5 : -0.5)));
    }

    /** Construct from a floating-point number of microseconds. */
    static constexpr SimTime
    microseconds(double v)
    {
        return SimTime(static_cast<int64_t>(v * 1e6 + (v >= 0 ? 0.5 : -0.5)));
    }

    /** Construct from a floating-point number of nanoseconds. */
    static constexpr SimTime
    nanoseconds(double v)
    {
        return SimTime(static_cast<int64_t>(v * 1e3 + (v >= 0 ? 0.5 : -0.5)));
    }

    /** Largest representable time; used as "never" sentinel. */
    static constexpr SimTime
    max()
    {
        return SimTime(std::numeric_limits<int64_t>::max());
    }

    constexpr int64_t toPs() const { return ps_; }
    constexpr int64_t toNs() const { return ps_ / 1000; }

    constexpr double asSeconds() const { return ps_ * 1e-12; }
    constexpr double asMillis() const { return ps_ * 1e-9; }
    constexpr double asMicros() const { return ps_ * 1e-6; }
    constexpr double asNanos() const { return ps_ * 1e-3; }

    constexpr auto operator<=>(const SimTime&) const = default;

    constexpr SimTime operator+(SimTime o) const { return SimTime(ps_ + o.ps_); }
    constexpr SimTime operator-(SimTime o) const { return SimTime(ps_ - o.ps_); }
    constexpr SimTime& operator+=(SimTime o) { ps_ += o.ps_; return *this; }
    constexpr SimTime& operator-=(SimTime o) { ps_ -= o.ps_; return *this; }
    constexpr SimTime operator*(int64_t k) const { return SimTime(ps_ * k); }
    constexpr SimTime operator/(int64_t k) const { return SimTime(ps_ / k); }
    constexpr int64_t operator/(SimTime o) const { return ps_ / o.ps_; }
    constexpr SimTime operator%(SimTime o) const { return SimTime(ps_ % o.ps_); }

    /** Scale a duration by a floating-point factor (rounds to nearest ps). */
    constexpr SimTime
    scaled(double k) const
    {
        return SimTime(static_cast<int64_t>(ps_ * k + 0.5));
    }

    constexpr bool isZero() const { return ps_ == 0; }

    /** Human-readable rendering with an auto-selected unit. */
    std::string str() const;

  private:
    explicit constexpr SimTime(int64_t v) : ps_(v) {}

    int64_t ps_;
};

constexpr SimTime operator*(int64_t k, SimTime t) { return t * k; }

namespace time_literals {

constexpr SimTime operator""_ps(unsigned long long v)
{
    return SimTime::ps(static_cast<int64_t>(v));
}
constexpr SimTime operator""_ns(unsigned long long v)
{
    return SimTime::ns(static_cast<int64_t>(v));
}
constexpr SimTime operator""_us(unsigned long long v)
{
    return SimTime::us(static_cast<int64_t>(v));
}
constexpr SimTime operator""_ms(unsigned long long v)
{
    return SimTime::ms(static_cast<int64_t>(v));
}
constexpr SimTime operator""_sec(unsigned long long v)
{
    return SimTime::sec(static_cast<int64_t>(v));
}

} // namespace time_literals

} // namespace diablo

#endif // DIABLO_CORE_TIME_HH_
