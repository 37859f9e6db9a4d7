// Reference event queue: the single binary heap the timer wheel replaced.
//
// One min-heap by (when, seq) plus a live-id set for lazy cancellation —
// the simplest structure that fires events in pure (timestamp, scheduling
// sequence) order.  src/sim/event_queue.h must reproduce it op for op
// (ids, cancel results, firing order, clocks, pending counts); the
// property fuzz (EventQueueWheelFuzzTest) replays one random script
// through both.  Single-threaded; handlers may re-enter Schedule*/Cancel.
#ifndef SQUEEZY_TESTS_REFERENCE_EVENT_QUEUE_H_
#define SQUEEZY_TESTS_REFERENCE_EVENT_QUEUE_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <set>
#include <utility>
#include <vector>

#include "src/sim/event_queue.h"
#include "src/sim/time.h"

namespace squeezy {

class ReferenceHeapQueue {
 public:
  TimeNs now() const { return now_; }
  size_t pending() const { return live_.size(); }

  EventId ScheduleAt(TimeNs when, std::function<void()> fn) {
    const EventId id = next_id_++;
    heap_.push_back(Entry{std::max(when, now_), next_seq_++, id, std::move(fn)});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
    live_.insert(id);
    return id;
  }
  EventId ScheduleAfter(DurationNs delay, std::function<void()> fn) {
    return ScheduleAt(now_ + delay, std::move(fn));
  }
  bool Cancel(EventId id) { return live_.erase(id) > 0; }
  void AdvanceBy(DurationNs d) { now_ += d; }

  void RunUntil(TimeNs deadline) {
    while (PruneTop() && heap_.front().when <= deadline) {
      RunTop();
    }
    now_ = std::max(now_, deadline);
  }
  void RunAll() {
    while (PruneTop()) {
      RunTop();
    }
  }

 private:
  struct Entry {
    TimeNs when;
    uint64_t seq;
    EventId id;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      return a.when != b.when ? a.when > b.when : a.seq > b.seq;
    }
  };

  Entry Pop() {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    Entry e = std::move(heap_.back());
    heap_.pop_back();
    return e;
  }
  // Drops cancelled entries off the top; true when a live one remains.
  bool PruneTop() {
    while (!heap_.empty() && live_.count(heap_.front().id) == 0) {
      Pop();
    }
    return !heap_.empty();
  }
  void RunTop() {
    Entry e = Pop();
    live_.erase(e.id);
    now_ = std::max(now_, e.when);
    e.fn();  // May re-enter: the entry is already off the heap.
  }

  TimeNs now_ = 0;
  uint64_t next_seq_ = 1;
  EventId next_id_ = 1;
  std::vector<Entry> heap_;
  std::set<EventId> live_;
};

}  // namespace squeezy

#endif  // SQUEEZY_TESTS_REFERENCE_EVENT_QUEUE_H_
