// Interface the MAC implements to hear from the medium.
#pragma once

#include "phys/frame.hpp"

namespace maxmin::phys {

class RadioListener {
 public:
  virtual ~RadioListener() = default;

  /// Sensed energy rose above zero (channel busy). Own transmissions are
  /// not reported; the MAC knows when it is transmitting. This and
  /// onChannelIdle() reach only listening radios (Medium::setListening).
  virtual void onChannelBusy() = 0;

  /// Sensed energy fell to zero (channel idle).
  virtual void onChannelIdle() = 0;

  /// A frame within decode range completed without overlap. Delivered to
  /// every node in decode range, not just the addressee — overhearing
  /// drives NAV and the paper's buffer-state caching.
  virtual void onFrameReceived(const Frame& frame) = 0;

  /// A frame within decode range completed but was corrupted by overlap
  /// (collision / hidden terminal). Triggers EIFS deferral.
  virtual void onFrameCorrupted(const Frame& frame) = 0;

  /// This radio's own frame left the air. The medium calls it last, after
  /// the frame's deliveries, and also for a silent (crashed-sender)
  /// transmission, so a frame end is one event (DESIGN.md §12).
  virtual void onTxEnd() = 0;
};

}  // namespace maxmin::phys
