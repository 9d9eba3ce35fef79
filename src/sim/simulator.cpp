// Cold path of the event queue: tombstone compaction. The per-event hot
// path lives in simulator.hpp.
#include "sim/simulator.hpp"

#include <vector>

namespace maxmin::sim {

// Sweep tombstones out of the heap, then re-heapify bottom up (Floyd: sift
// each internal node down, last parent first). Triggered when dead keys
// outnumber live ones, which bounds queue memory to O(live) and the
// amortized cost per cancel to a constant. Both passes work in place, so a
// compaction never allocates; pop order is the total (when, seq) order
// whatever shape the heap has.
void Simulator::compact() {
  ++compactions_;
  std::erase_if(heap_, [this](const Key& k) { return !isLive(k); });
  dead_ = 0;
  const std::size_t n = heap_.size();
  if (n < 2) return;
  for (std::size_t i = (n - 2) / kArity + 1; i-- > 0;) siftDown(i, heap_[i]);
}

}  // namespace maxmin::sim
