// Data-size and bit-rate units, and the airtime arithmetic that connects
// them to simulated time.
#pragma once

#include <cstdint>
#include <compare>

#include "util/time.hpp"

namespace maxmin {

/// A payload / frame size in bytes.
class [[nodiscard]] DataSize {
 public:
  constexpr DataSize() = default;
  static constexpr DataSize bytes(std::int64_t b) { return DataSize{b}; }

  constexpr std::int64_t asBytes() const { return bytes_; }
  constexpr std::int64_t asBits() const { return bytes_ * 8; }

  constexpr friend auto operator<=>(DataSize, DataSize) = default;
  constexpr DataSize operator+(DataSize o) const { return DataSize{bytes_ + o.bytes_}; }

 private:
  constexpr explicit DataSize(std::int64_t b) : bytes_{b} {}
  std::int64_t bytes_ = 0;
};

/// A channel or flow bit rate in bits per second.
class [[nodiscard]] BitRate {
 public:
  constexpr BitRate() = default;
  static constexpr BitRate megaBitsPerSecond(double mbps) { return BitRate{mbps * 1e6}; }

  constexpr friend auto operator<=>(BitRate, BitRate) = default;

  /// Time to serialize `size` on the medium at this rate, rounded up to
  /// the next whole microsecond (transmissions never finish early).
  constexpr Duration txTime(DataSize size) const {
    const double seconds = static_cast<double>(size.asBits()) / bps_;
    const auto us = static_cast<std::int64_t>(seconds * 1e6);
    const bool exact = static_cast<double>(us) * 1e-6 * bps_ >=
                       static_cast<double>(size.asBits());
    return Duration::micros(exact ? us : us + 1);
  }

 private:
  constexpr explicit BitRate(double bps) : bps_{bps} {}
  double bps_ = 0.0;
};

/// A packet rate in packets per second; the unit the paper reports flows in.
class [[nodiscard]] PacketRate {
 public:
  constexpr PacketRate() = default;
  static constexpr PacketRate perSecond(double pps) { return PacketRate{pps}; }
  static constexpr PacketRate unlimited() { return PacketRate{1e18}; }

  constexpr double asPerSecond() const { return pps_; }

  /// Inter-packet gap at this rate.
  constexpr Duration interval() const {
    return Duration::micros(static_cast<std::int64_t>(1e6 / pps_));
  }

  constexpr friend auto operator<=>(PacketRate, PacketRate) = default;
  constexpr PacketRate operator*(double k) const { return PacketRate{pps_ * k}; }
  constexpr PacketRate operator/(double k) const { return PacketRate{pps_ / k}; }
  constexpr PacketRate operator+(PacketRate o) const { return PacketRate{pps_ + o.pps_}; }

 private:
  constexpr explicit PacketRate(double pps) : pps_{pps} {}
  double pps_ = 0.0;
};

}  // namespace maxmin
