// Hash helpers for hot-path unordered containers.
//
// std::unordered_map has no std::hash for pairs, and the per-packet maps
// in net::NodeStack key on (neighbor, destination) pairs. Packing two
// 32-bit ids into one 64-bit word and running splitmix64's finalizer
// gives full avalanche for a couple of multiplies — identity-style
// hashes cluster consecutive NodeIds into consecutive buckets, which is
// exactly the id pattern scenario generators produce.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <utility>

namespace maxmin {

/// splitmix64 finalizer: cheap, statistically solid bit mixing.
constexpr std::uint64_t mix64(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// 64-bit FNV-1a over a byte string: stable across platforms and runs,
/// for fingerprinting text output (traces, golden files).
constexpr std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const char c : bytes) {
    h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
    h *= 1099511628211ULL;
  }
  return h;
}

/// Hash for pairs of integral ids (NodeId, FlowId, ...) up to 32 bits
/// each, e.g. the (upstream neighbor, destination) virtual-link keys.
struct IdPairHash {
  template <typename A, typename B>
  std::size_t operator()(const std::pair<A, B>& p) const {
    const std::uint64_t packed =
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(p.first))
         << 32) |
        static_cast<std::uint32_t>(p.second);
    return static_cast<std::size_t>(mix64(packed));
  }
};

/// Hash for single integral ids; mixes so consecutive ids spread.
struct IdHash {
  template <typename T>
  std::size_t operator()(T v) const {
    return static_cast<std::size_t>(
        mix64(static_cast<std::uint64_t>(static_cast<std::int64_t>(v))));
  }
};

}  // namespace maxmin
