#include "net/packet_queue.hpp"

#include <utility>

#include "util/check.hpp"

namespace maxmin::net {

PacketQueue::PacketQueue(int capacity, TimePoint now) : capacity_{capacity} {
  MAXMIN_CHECK(capacity > 0);
  fullTime_.beginWindow(now);
}

void PacketQueue::noteState(TimePoint now) {
  fullTime_.set(full(), now);
}

void PacketQueue::pushBack(PacketPtr p, TimePoint now) {
  MAXMIN_CHECK(p != nullptr);
  packets_.push_back(std::move(p));
  noteState(now);
}

void PacketQueue::pushFront(PacketPtr p, TimePoint now) {
  MAXMIN_CHECK(p != nullptr);
  packets_.push_front(std::move(p));
  noteState(now);
}

PacketPtr PacketQueue::popFront(TimePoint now) {
  MAXMIN_CHECK(!packets_.empty());
  PacketPtr p = std::move(packets_.front());
  packets_.pop_front();
  noteState(now);
  return p;
}

void PacketQueue::overwriteTail(PacketPtr p) {
  MAXMIN_CHECK(!packets_.empty());
  packets_.back() = std::move(p);
}

}  // namespace maxmin::net
