#ifndef DIABLO_CORE_UNITS_HH_
#define DIABLO_CORE_UNITS_HH_

/**
 * @file
 * Bandwidth and data-size helpers used throughout the network models.
 */

#include <cstdint>
#include <string>

#include "core/time.hh"

namespace diablo {

/**
 * A link or device bandwidth in bits per second.
 *
 * The key operation is computing the serialization delay of a given number
 * of bytes, which every link and switch-port model uses.
 */
class Bandwidth {
  public:
    constexpr Bandwidth() : bps_(0) {}

    static constexpr Bandwidth bps(double v) { return Bandwidth(v); }
    static constexpr Bandwidth mbps(double v) { return Bandwidth(v * 1e6); }
    static constexpr Bandwidth gbps(double v) { return Bandwidth(v * 1e9); }

    constexpr double bitsPerSec() const { return bps_; }
    constexpr double bytesPerSec() const { return bps_ / 8.0; }
    constexpr double asGbps() const { return bps_ / 1e9; }

    constexpr bool isZero() const { return bps_ == 0; }

    constexpr auto operator<=>(const Bandwidth&) const = default;
    constexpr Bandwidth operator*(double k) const { return Bandwidth(bps_ * k); }
    constexpr Bandwidth operator/(double k) const { return Bandwidth(bps_ / k); }

    /**
     * Time to serialize @p bytes onto a link at this bandwidth.
     * Computed in double and rounded to the nearest picosecond, which is
     * exact for all realistic (bytes, rate) combinations.
     */
    constexpr SimTime
    transferTime(uint64_t bytes) const
    {
        return SimTime::seconds(static_cast<double>(bytes) * 8.0 / bps_);
    }

    std::string str() const;

  private:
    explicit constexpr Bandwidth(double v) : bps_(v) {}

    double bps_;
};

/** Ethernet physical-layer constants (IEEE 802.3). */
namespace eth {

/** Destination + source MAC + EtherType. */
inline constexpr uint32_t kHeaderBytes = 14;
/** Frame check sequence. */
inline constexpr uint32_t kFcsBytes = 4;
/** Preamble + start-of-frame delimiter. */
inline constexpr uint32_t kPreambleBytes = 8;
/** Minimum inter-frame gap, in byte times. */
inline constexpr uint32_t kIfgBytes = 12;
/** Minimum payload so a frame reaches the 64-byte minimum. */
inline constexpr uint32_t kMinPayloadBytes = 46;
/** Standard (non-jumbo) MTU. */
inline constexpr uint32_t kMtuBytes = 1500;

/**
 * Total wire occupancy of a frame carrying @p l3_bytes of layer-3 payload,
 * including preamble, header, FCS, inter-frame gap and minimum-size padding.
 */
constexpr uint32_t
wireBytes(uint32_t l3_bytes)
{
    uint32_t payload = l3_bytes < kMinPayloadBytes ? kMinPayloadBytes
                                                   : l3_bytes;
    return payload + kHeaderBytes + kFcsBytes + kPreambleBytes + kIfgBytes;
}

/**
 * Bytes a frame occupies in a switch packet buffer: header + payload +
 * FCS (no preamble or inter-frame gap, which exist only on the wire).
 */
constexpr uint32_t
frameBufferBytes(uint32_t l3_bytes)
{
    uint32_t payload = l3_bytes < kMinPayloadBytes ? kMinPayloadBytes
                                                   : l3_bytes;
    return payload + kHeaderBytes + kFcsBytes;
}

/** Bytes of a frame a cut-through switch must see before forwarding. */
inline constexpr uint32_t kCutThroughHeaderBytes = 64;

} // namespace eth

namespace ip {

inline constexpr uint32_t kIpv4HeaderBytes = 20;
inline constexpr uint32_t kTcpHeaderBytes = 20;
inline constexpr uint32_t kUdpHeaderBytes = 8;

} // namespace ip

} // namespace diablo

#endif // DIABLO_CORE_UNITS_HH_
