// The unit of transmission on the medium.
//
// A Frame is "what is on the air": 802.11 frame kind, addressing, airtime,
// the NAV reservation overhearers should honor, the encapsulated network
// packet (DATA only), and the piggyback fields the paper's congestion
// avoidance and measurement machinery rides on (buffer-state bits per
// destination queue, per §2.2/§6.2).
#pragma once

#include <memory>
#include <vector>

#include "topology/topology.hpp"
#include "util/time.hpp"
#include "util/units.hpp"

namespace maxmin::net {
struct Packet;  // defined in net/packet.hpp; opaque at this layer
}

namespace maxmin::phys {

enum class FrameKind {
  kRts,
  kCts,
  kData,
  kAck,
  kControl,  ///< broadcast control frame (no RTS/CTS, no ACK)
};

/// Base class for payloads of kControl broadcast frames. Control-plane
/// modules (e.g. GMP's link-state dissemination) derive their message
/// types from this and downcast on reception.
struct ControlMessage {
  virtual ~ControlMessage() = default;
};

/// Buffer state advertised by the transmitter: one bit per destination
/// queue ("full" = no free slot). The paper piggybacks exactly this on
/// every RTS/CTS/DATA/ACK so upstream neighbors can hold packets.
struct BufferStateAd {
  topo::NodeId destination = topo::kNoNode;
  bool full = false;
};

struct Frame {
  FrameKind kind = FrameKind::kData;
  topo::NodeId transmitter = topo::kNoNode;
  topo::NodeId addressee = topo::kNoNode;

  /// Airtime of this frame including PLCP preamble/header.
  Duration duration = Duration::zero();

  /// Remaining reservation after this frame ends (802.11 duration field):
  /// overhearers set NAV to frame-end + navAfterEnd.
  Duration navAfterEnd = Duration::zero();

  /// Payload packet; non-null only for DATA frames.
  std::shared_ptr<const net::Packet> packet;

  /// Control payload; non-null only for kControl broadcast frames.
  std::shared_ptr<const ControlMessage> control;

  /// Piggybacked per-destination buffer-state bits of the transmitter.
  std::vector<BufferStateAd> bufferState;
};

}  // namespace maxmin::phys
