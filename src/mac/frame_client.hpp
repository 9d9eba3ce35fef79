// Interface between the MAC and the layer above it (the network layer's
// queue scheduler).
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "phys/frame.hpp"
#include "topology/topology.hpp"
#include "util/units.hpp"

namespace maxmin::mac {

/// One unicast link-layer delivery the upper layer wants performed.
struct TxRequest {
  topo::NodeId nextHop = topo::kNoNode;
  std::shared_ptr<const net::Packet> packet;
  DataSize payloadSize;  ///< bytes on air (packet payload)
};

class FrameClient {
 public:
  virtual ~FrameClient() = default;

  /// Pull the next packet to transmit, or nullopt if nothing is currently
  /// eligible. Called whenever the MAC becomes able to take new work; the
  /// upper layer must call Dcf::notifyTrafficPending() when eligibility
  /// appears later.
  virtual std::optional<TxRequest> nextTxRequest() = 0;

  /// True while the upper layer holds packets it may offer later, even
  /// if nextTxRequest() has nothing now. When false the MAC may park —
  /// stop tracking carrier sense — until notifyTrafficPending(). The
  /// default never lets it park.
  [[nodiscard]] virtual bool hasBacklog() const { return true; }

  /// Link-layer delivery confirmed (ACK received).
  virtual void onTxSuccess(const TxRequest& request) = 0;

  /// Retry limit exhausted. The packet was NOT delivered; the upper layer
  /// decides whether to drop or re-offer it.
  virtual void onTxFailure(const TxRequest& request) = 0;

  /// A DATA frame addressed to this node arrived.
  virtual void onDataReceived(const phys::Frame& frame) = 0;

  /// Current per-destination buffer-state bits to piggyback on outgoing
  /// frames (paper §2.2).
  virtual std::vector<phys::BufferStateAd> currentBufferState() = 0;

  /// Any successfully decoded frame (own or overheard, all kinds).
  /// Used to cache neighbors' piggybacked buffer state.
  virtual void onFrameDecoded(const phys::Frame& frame) = 0;

  /// A broadcast control frame was decoded (control-plane traffic,
  /// e.g. GMP link-state dissemination). Default: ignore.
  virtual void onControlReceived(const phys::Frame& frame) { (void)frame; }
};

}  // namespace maxmin::mac
