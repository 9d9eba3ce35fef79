#include "topology/cliques.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>

#include "util/check.hpp"

namespace maxmin::topo {
namespace {

/// Set bits of one word, as a SWAR sum: a few shifts, masks and one
/// multiply. The build enables no popcnt instruction, so std::popcount
/// would compile to a call into libgcc (__popcountdi2) on every
/// intersection word; a ctest keeps that call out of the libraries.
constexpr int popcount64(std::uint64_t x) {
  x -= (x >> 1) & 0x5555555555555555ULL;
  x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
  x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0fULL;
  return static_cast<int>((x * 0x0101010101010101ULL) >> 56);
}
static_assert(popcount64(0) == 0 && popcount64(~std::uint64_t{0}) == 64 &&
              popcount64(0x8000000000000001ULL) == 2);

/// Bron-Kerbosch with pivoting, run directly on the packed conflict rows.
/// P and X are word arrays: recursion level d owns the d-th (P, X) pair of
/// one arena sized up front. A clique has at most maxDegree + 1 members,
/// so the recursion never goes deeper than maxDegree + 2 levels. R is a
/// stack of link indices, sorted when a clique is recorded.
class BronKerbosch {
 public:
  explicit BronKerbosch(const ConflictGraph& graph)
      : graph_{graph}, words_{graph.wordsPerRow()} {
    int maxDegree = 0;
    for (int v = 0; v < graph.numLinks(); ++v) {
      maxDegree = std::max(maxDegree, countCommon(graph.row(v), graph.row(v)));
    }
    const std::size_t levels = static_cast<std::size_t>(maxDegree) + 2;
    arena_.assign(levels * 2 * words_, 0);
  }

  std::vector<std::vector<int>> run() {
    std::uint64_t* p = setP(0);
    for (int v = 0; v < graph_.numLinks(); ++v) {
      p[static_cast<std::size_t>(v) / 64] |= bitOf(v);
    }
    expand(0);
    return std::move(found_);
  }

 private:
  static std::uint64_t bitOf(int v) {
    return std::uint64_t{1} << (static_cast<std::size_t>(v) % 64);
  }

  std::uint64_t* setP(std::size_t depth) {
    return arena_.data() + depth * 2 * words_;
  }
  std::uint64_t* setX(std::size_t depth) { return setP(depth) + words_; }

  [[nodiscard]] int countCommon(const std::uint64_t* a,
                                const std::uint64_t* b) const {
    int n = 0;
    for (std::size_t w = 0; w < words_; ++w) n += popcount64(a[w] & b[w]);
    return n;
  }

  void expand(std::size_t depth) {
    std::uint64_t* p = setP(depth);
    std::uint64_t* x = setX(depth);
    // Pivot: vertex of P∪X with the most neighbors in P minimizes branching.
    const int pSize = countCommon(p, p);
    int pivot = -1;
    int best = -1;
    for (std::size_t w = 0; w < words_ && best < pSize; ++w) {
      std::uint64_t word = p[w] | x[w];
      while (word != 0 && best < pSize) {
        const int u = static_cast<int>(w * 64) + std::countr_zero(word);
        word &= word - 1;
        const int k = countCommon(p, graph_.row(u));
        if (k > best) {
          pivot = u;
          best = k;
        }
      }
    }
    if (pivot < 0) {  // P and X both empty: R is maximal
      found_.push_back(r_);
      std::sort(found_.back().begin(), found_.back().end());
      return;
    }
    const std::uint64_t* pivotRow = graph_.row(pivot);
    // Candidates P \ N(pivot), taken one word at a time: moving v from P
    // to X only touches bits already visited.
    for (std::size_t w = 0; w < words_; ++w) {
      std::uint64_t candidates = p[w] & ~pivotRow[w];
      while (candidates != 0) {
        const int v = static_cast<int>(w * 64) + std::countr_zero(candidates);
        candidates &= candidates - 1;
        const std::uint64_t* nv = graph_.row(v);
        std::uint64_t* childP = setP(depth + 1);
        std::uint64_t* childX = setX(depth + 1);
        for (std::size_t i = 0; i < words_; ++i) {
          childP[i] = p[i] & nv[i];
          childX[i] = x[i] & nv[i];
        }
        r_.push_back(v);
        expand(depth + 1);
        r_.pop_back();
        p[w] &= ~bitOf(v);
        x[w] |= bitOf(v);
      }
    }
  }

  const ConflictGraph& graph_;
  std::size_t words_;
  std::vector<std::uint64_t> arena_;  ///< (P, X) word arrays per level
  std::vector<int> r_;
  std::vector<std::vector<int>> found_;
};

NodeId smallestNode(const ConflictGraph& graph, const std::vector<int>& clique) {
  NodeId smallest = kNoNode;
  for (int idx : clique) {
    const Link& l = graph.links().at(static_cast<std::size_t>(idx));
    const NodeId lo = std::min(l.from, l.to);
    if (smallest == kNoNode || lo < smallest) smallest = lo;
  }
  return smallest;
}

}  // namespace

std::vector<Clique> enumerateMaximalCliques(const ConflictGraph& graph) {
  if (graph.numLinks() == 0) return {};
  std::vector<std::vector<int>> raw = BronKerbosch{graph}.run();

  // Deterministic order: by owning (smallest) node, then by member list.
  std::map<NodeId, std::vector<std::vector<int>>> byOwner;
  for (auto& c : raw) byOwner[smallestNode(graph, c)].push_back(std::move(c));

  std::vector<Clique> cliques;
  for (auto& [owner, group] : byOwner) {
    std::sort(group.begin(), group.end());
    int seq = 0;
    for (auto& members : group) {
      cliques.push_back(Clique{CliqueId{owner, seq++}, std::move(members)});
    }
  }

  // Invariant: every link belongs to at least one clique.
  std::vector<bool> covered(static_cast<std::size_t>(graph.numLinks()), false);
  for (const Clique& c : cliques)
    for (int idx : c.linkIndices) covered[static_cast<std::size_t>(idx)] = true;
  MAXMIN_CHECK(std::all_of(covered.begin(), covered.end(),
                           [](bool b) { return b; }));
  return cliques;
}

std::vector<std::vector<int>> cliquesByLink(const ConflictGraph& graph,
                                            const std::vector<Clique>& cliques) {
  std::vector<std::vector<int>> result(
      static_cast<std::size_t>(graph.numLinks()));
  for (std::size_t c = 0; c < cliques.size(); ++c) {
    for (int idx : cliques[c].linkIndices) {
      result.at(static_cast<std::size_t>(idx)).push_back(static_cast<int>(c));
    }
  }
  return result;
}

}  // namespace maxmin::topo
