// IEEE 802.11 DCF timing and frame parameters.
//
// Defaults model 802.11b DSSS with short preambles: 11 Mb/s data rate
// (the paper's channel capacity), 2 Mb/s basic rate for control frames,
// 20 us slots, SIFS 10 us, 96 us PLCP preamble+header.
#pragma once

#include "util/time.hpp"
#include "util/units.hpp"

namespace maxmin::mac {

struct MacParams {
  BitRate dataRate = BitRate::megaBitsPerSecond(11.0);
  BitRate basicRate = BitRate::megaBitsPerSecond(2.0);

  Duration slotTime = Duration::micros(20);
  Duration sifs = Duration::micros(10);
  Duration plcpOverhead = Duration::micros(96);

  DataSize rtsBytes = DataSize::bytes(20);
  DataSize ctsBytes = DataSize::bytes(14);
  DataSize ackBytes = DataSize::bytes(14);
  DataSize macHeaderBytes = DataSize::bytes(28);  // header + FCS

  int cwMin = 31;
  int cwMax = 1023;
  int shortRetryLimit = 7;  // RTS attempts
  int longRetryLimit = 4;   // DATA attempts

  [[nodiscard]] Duration difs() const { return sifs + slotTime + slotTime; }

  /// Deferral after a corrupted reception (802.11 EIFS):
  /// SIFS + ACK-at-basic-rate + DIFS.
  [[nodiscard]] Duration eifs() const { return sifs + ackDuration() + difs(); }

  [[nodiscard]] Duration rtsDuration() const { return plcpOverhead + basicRate.txTime(rtsBytes); }
  [[nodiscard]] Duration ctsDuration() const { return plcpOverhead + basicRate.txTime(ctsBytes); }
  [[nodiscard]] Duration ackDuration() const { return plcpOverhead + basicRate.txTime(ackBytes); }
  [[nodiscard]] Duration dataDuration(DataSize payload) const {
    return plcpOverhead + dataRate.txTime(payload + macHeaderBytes);
  }

  /// NAV reservation carried by an RTS: the rest of the four-way exchange.
  [[nodiscard]] Duration rtsNav(DataSize payload) const {
    return sifs + ctsDuration() + sifs + dataDuration(payload) + sifs +
           ackDuration();
  }
  [[nodiscard]] Duration dataNav() const { return sifs + ackDuration(); }

  /// How long a sender waits for the expected response before declaring a
  /// timeout (response start is one SIFS after our frame; allow two slots
  /// of slack).
  [[nodiscard]] Duration ctsTimeout() const {
    return sifs + ctsDuration() + slotTime + slotTime;
  }
  [[nodiscard]] Duration ackTimeout() const {
    return sifs + ackDuration() + slotTime + slotTime;
  }

  /// Total channel airtime of one successful four-way exchange, including
  /// the SIFS gaps. Used for channel-occupancy accounting.
  [[nodiscard]] Duration exchangeAirtime(DataSize payload) const {
    return rtsDuration() + rtsNav(payload);
  }

  /// Nominal saturated throughput (pkts/s) of a single contention-free
  /// link: one DIFS + mean initial backoff + a full RTS/CTS/DATA/ACK
  /// exchange per packet. Used as the per-clique capacity estimate.
  [[nodiscard]] double nominalLinkCapacityPps(DataSize payload) const {
    const Duration perPacket =
        difs() + slotTime * (cwMin / 2) + exchangeAirtime(payload);
    return 1e6 / static_cast<double>(perPacket.asMicros());
  }
};

}  // namespace maxmin::mac
