// Network-layer configuration shared by all protocols under study.
//
// The three protocols of the paper's §7.2 map to:
//   * GMP:    kPerDestination + congestionAvoidance (+ the gmp::Engine)
//   * 2PP:    kPerFlow, no congestion avoidance (+ baselines::TwoPhase)
//   * 802.11: kSharedFifo drop-overwrite, no congestion avoidance
#pragma once

#include <cstdint>

#include "mac/params.hpp"
#include "phys/impairment.hpp"
#include "util/time.hpp"
#include "util/units.hpp"

namespace maxmin::net {

enum class QueueDiscipline {
  kPerDestination,  ///< one queue per served destination (GMP, §5.1)
  kPerFlow,         ///< one queue per passing flow (2PP [11])
  kSharedFifo,      ///< one queue for everything (plain 802.11)
};

const char* queueDisciplineName(QueueDiscipline d);

struct NetworkConfig {
  QueueDiscipline discipline = QueueDiscipline::kPerDestination;

  /// Capacity of each per-destination or per-flow queue (paper §7.2: 10).
  int queueCapacity = 10;

  /// Capacity of the single shared queue (paper §7: 300-packet buffer).
  int sharedBufferCapacity = 300;

  /// Hold packets for a next hop whose queue is advertised full (the
  /// congestion-avoidance scheme of [3], §2.2).
  bool congestionAvoidance = true;

  /// How long a cached "buffer full" advertisement blocks transmission
  /// before the sender stops waiting and tries anyway ("failed
  /// overhearing" recovery, §2.2).
  Duration holdStateTimeout = Duration::millis(60);

  DataSize packetSize = DataSize::bytes(1024);

  mac::MacParams mac;

  std::uint64_t seed = 1;

  /// Channel impairments (packet error rate / bursty loss); disabled by
  /// default. Drawn from a dedicated RNG stream, so enabling them does
  /// not perturb the MAC or source randomness of a seeded run.
  phys::ImpairmentConfig impairments;

  /// Dead-neighbor detection: when positive, a next hop whose unicast
  /// transmissions have failed continuously for this long is declared
  /// dead; packets routed through it are dropped (and counted) instead
  /// of being requeued forever, and its cached buffer-state ads are
  /// flushed so backpressure cannot deadlock behind a crashed node. Any
  /// successful exchange with the neighbor clears the verdict. Zero
  /// (default) disables detection — the paper's protocols are lossless
  /// above the MAC, and routine MAC-level failure bursts must not drop
  /// packets in fault-free runs.
  Duration neighborDeadTtl = Duration::zero();
};

}  // namespace maxmin::net
