#include "src/sim/event_queue.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace squeezy {
namespace {

// Compaction trigger floor: below this the tombstone overhead is noise
// and compacting every few cancels would thrash.
constexpr size_t kCompactMinStored = 64;

}  // namespace

EventQueue::EventQueue() {
  fine_slots_.resize(kFineSlots);
  coarse_slots_.resize(kCoarseSlots);
  super_slots_.resize(kSuperSlots);
}

EventId EventQueue::ScheduleAtLocked(TimeNs when, std::function<void()> fn) {
  if (when < now_) {
    when = now_;
  }
  const EventId id = next_id_++;
  Insert(Entry{when, next_seq_++, id, std::move(fn)});
  live_.insert(id);
  return id;
}

EventId EventQueue::ScheduleAt(TimeNs when, std::function<void()> fn) {
  MutexLock lock(&mu_);
  return ScheduleAtLocked(when, std::move(fn));
}

EventId EventQueue::ScheduleAfter(DurationNs delay, std::function<void()> fn) {
  assert(delay >= 0);
  MutexLock lock(&mu_);
  return ScheduleAtLocked(now_ + delay, std::move(fn));
}

void EventQueue::PushFine(Entry e) {
  const uint64_t tick = FineTickOf(e.when);
  if (tick < fine_cursor_) {
    // An event behind the scan position (RunUntil left now_ mid-region):
    // rewind the cursor so the scan cannot miss it.
    fine_cursor_ = tick;
  }
  std::vector<Entry>& slot = fine_slots_[tick & kFineMask];
  slot.push_back(std::move(e));
  std::push_heap(slot.begin(), slot.end(), Later{});
  ++fine_count_;
}

void EventQueue::Insert(Entry e) {
  const uint64_t region = RegionOf(e.when);
  if (region == region_) {
    PushFine(std::move(e));
    return;
  }
  if (region > region_ && region - region_ < kCoarseSlots) {
    // Far future inside the coarse horizon: O(1) unsorted bucket, to be
    // dumped into the fine wheel when the clock reaches its region.
    coarse_slots_[region & kCoarseMask].push_back(std::move(e));
    ++coarse_count_;
    return;
  }
  const uint64_t super = region >> kSuperRegionShift;
  if (super > super_pos_ && super - super_pos_ < kSuperSlots) {
    // Beyond the coarse horizon but inside the super horizon (~26 days):
    // O(1) unsorted block bucket, dumped into the coarse window when the
    // clock enters its block.  (super == super_pos_ with region > region_
    // implies region - region_ < kCoarseSlots, so such entries were
    // already taken by the branches above.)
    super_slots_[super & kSuperMask].push_back(std::move(e));
    ++super_count_;
    return;
  }
  // Beyond the super horizon, or behind an already-advanced region: the
  // overflow heap (always consulted by the peek comparison).
  overflow_.push_back(std::move(e));
  std::push_heap(overflow_.begin(), overflow_.end(), Later{});
}

void EventQueue::CascadeOverflow() {
  while (!overflow_.empty()) {
    const uint64_t region = RegionOf(overflow_.front().when);
    if (region < region_ || region - region_ >= kCoarseSlots) {
      break;  // Earliest remaining overflow entry is outside the window.
    }
    std::pop_heap(overflow_.begin(), overflow_.end(), Later{});
    Entry e = std::move(overflow_.back());
    overflow_.pop_back();
    if (region == region_) {
      PushFine(std::move(e));
    } else {
      coarse_slots_[region & kCoarseMask].push_back(std::move(e));
      ++coarse_count_;
    }
  }
}

void EventQueue::DumpSuperSlot() {
  std::vector<Entry>& slot = super_slots_[super_pos_ & kSuperMask];
  if (slot.empty()) {
    return;
  }
  super_count_ -= slot.size();
  for (Entry& e : slot) {
    // region_ sits at the block's first region, so every entry's region
    // is within [region_, region_ + kCoarseSlots).
    if (RegionOf(e.when) == region_) {
      PushFine(std::move(e));
    } else {
      coarse_slots_[RegionOf(e.when) & kCoarseMask].push_back(std::move(e));
      ++coarse_count_;
    }
  }
  slot.clear();
}

void EventQueue::MaybeEnterSuperBlock() {
  const uint64_t super = region_ >> kSuperRegionShift;
  if (super != super_pos_) {
    super_pos_ = super;
    DumpSuperSlot();
  }
}

bool EventQueue::RefillFine() {
  for (;;) {
    CascadeOverflow();
    if (fine_count_ > 0) {
      return true;
    }
    if (coarse_count_ > 0) {
      // Slide the region forward; dump the next coarse slot we reach.
      // Every coarse entry lies ahead of region_ and every slot we pass
      // is drained, so the scan meets the earliest one first.  Crossing
      // into a new super block first merges that block's super entries
      // into the coarse window (they share the window with entries
      // inserted after it moved here — no aliasing, same 1024 regions).
      ++region_;
      MaybeEnterSuperBlock();
      fine_cursor_ = region_ << (kCoarseShift - kFineShift);
      std::vector<Entry>& slot = coarse_slots_[region_ & kCoarseMask];
      if (!slot.empty()) {
        coarse_count_ -= slot.size();
        for (Entry& e : slot) {
          PushFine(std::move(e));
        }
        slot.clear();
      }
      continue;  // Cascade again: the window gained a slot at the far end.
    }
    if (super_count_ > 0) {
      // Coarse window fully drained: jump to the next non-empty super
      // slot (blocks cover disjoint, increasing time ranges, so the
      // first non-empty one holds the earliest super entry) and dump it.
      // An overflow entry may lie before this block — the peek always
      // compares the overflow top, so nothing behind is ever lost.
      uint64_t s = super_pos_;
      do {
        ++s;
      } while (super_slots_[s & kSuperMask].empty());
      region_ = s << kSuperRegionShift;
      super_pos_ = s;
      fine_cursor_ = region_ << (kCoarseShift - kFineShift);
      DumpSuperSlot();
      continue;
    }
    if (overflow_.empty()) {
      return false;
    }
    const uint64_t region = RegionOf(overflow_.front().when);
    if (region <= region_) {
      // The overflow's earliest entry is behind the current region; it
      // cannot enter the wheel but wins the peek comparison directly.
      return false;
    }
    // Wheels fully drained and the next work is beyond the super
    // horizon: jump the window to it (nothing behind can be stranded).
    region_ = region;
    super_pos_ = region_ >> kSuperRegionShift;
    fine_cursor_ = region_ << (kCoarseShift - kFineShift);
  }
}

const EventQueue::Entry* EventQueue::PeekEarliestLive() {
  for (;;) {
    // Prune cancelled tombstones off the overflow top.
    while (!overflow_.empty() && !live_.contains(overflow_.front().id)) {
      std::pop_heap(overflow_.begin(), overflow_.end(), Later{});
      overflow_.pop_back();
    }
    if (fine_count_ == 0 && !RefillFine()) {
      // RefillFine() false leaves the wheels empty and overflow
      // untouched, so the (already pruned) overflow top is the answer.
      if (overflow_.empty()) {
        return nullptr;
      }
      peek_overflow_ = true;
      return &overflow_.front();
    }
    // Position the fine cursor at the earliest live fine entry.
    const Entry* fine_top = nullptr;
    while (fine_count_ > 0) {
      std::vector<Entry>& slot = fine_slots_[fine_cursor_ & kFineMask];
      while (!slot.empty() && !live_.contains(slot.front().id)) {
        std::pop_heap(slot.begin(), slot.end(), Later{});
        slot.pop_back();
        --fine_count_;
      }
      if (!slot.empty()) {
        fine_top = &slot.front();
        break;
      }
      ++fine_cursor_;
    }
    if (fine_top == nullptr) {
      continue;  // Tombstones drained the fine wheel: refill and retry.
    }
    // Cascading can expose a cancelled overflow top; restart the prune.
    if (!overflow_.empty() && !live_.contains(overflow_.front().id)) {
      continue;
    }
    if (!overflow_.empty()) {
      const Entry& o = overflow_.front();
      if (o.when < fine_top->when ||
          (o.when == fine_top->when && o.seq < fine_top->seq)) {
        peek_overflow_ = true;
        return &overflow_.front();
      }
    }
    peek_overflow_ = false;
    return fine_top;
  }
}

EventQueue::Entry EventQueue::PopPeeked() {
  if (peek_overflow_) {
    std::pop_heap(overflow_.begin(), overflow_.end(), Later{});
    Entry e = std::move(overflow_.back());
    overflow_.pop_back();
    return e;
  }
  std::vector<Entry>& slot = fine_slots_[fine_cursor_ & kFineMask];
  std::pop_heap(slot.begin(), slot.end(), Later{});
  Entry e = std::move(slot.back());
  slot.pop_back();
  --fine_count_;
  return e;
}

bool EventQueue::Cancel(EventId id) {
  MutexLock lock(&mu_);
  // Lazy deletion: forget the id, skip its entry when popped.  Only an
  // issued-and-still-live id cancels; already-run, already-cancelled and
  // never-issued ids (including kInvalidEventId) are no-ops.
  if (!live_.erase(id)) {
    return false;
  }
  // Storage bound: a cancel-heavy workload (keep-alive churn) must not
  // grow the structures — or the closures its tombstones own — without
  // limit.  Compact once tombstones outnumber live entries.
  const size_t stored = StoredEntriesLocked();
  if (stored >= kCompactMinStored && live_.size() * 2 < stored) {
    Compact();
  }
  return true;
}

void EventQueue::Compact() {
  const auto dead = [this](const Entry& e) { return !live_.contains(e.id); };
  for (std::vector<Entry>& slot : fine_slots_) {
    const size_t before = slot.size();
    slot.erase(std::remove_if(slot.begin(), slot.end(), dead), slot.end());
    fine_count_ -= before - slot.size();
    std::make_heap(slot.begin(), slot.end(), Later{});
  }
  for (std::vector<Entry>& slot : coarse_slots_) {
    const size_t before = slot.size();
    slot.erase(std::remove_if(slot.begin(), slot.end(), dead), slot.end());
    coarse_count_ -= before - slot.size();
  }
  for (std::vector<Entry>& slot : super_slots_) {
    const size_t before = slot.size();
    slot.erase(std::remove_if(slot.begin(), slot.end(), dead), slot.end());
    super_count_ -= before - slot.size();
  }
  overflow_.erase(std::remove_if(overflow_.begin(), overflow_.end(), dead),
                  overflow_.end());
  std::make_heap(overflow_.begin(), overflow_.end(), Later{});
}

void EventQueue::AdvanceBy(DurationNs d) {
  assert(d >= 0);
  MutexLock lock(&mu_);
  now_ += d;
}

std::function<void()> EventQueue::TakePeeked() {
  Entry top = PopPeeked();
  live_.erase(top.id);
  if (top.when > now_) {
    now_ = top.when;
  }
  ++processed_;
  return std::move(top.fn);
}

bool EventQueue::PeekNext(TimeNs* when, uint64_t* seq) {
  MutexLock lock(&mu_);
  const Entry* e = PeekEarliestLive();
  if (e == nullptr) {
    return false;
  }
  *when = e->when;
  *seq = e->seq;
  return true;
}

void EventQueue::SyncNow(TimeNs t) {
  MutexLock lock(&mu_);
  if (now_ < t) {
    now_ = t;
  }
}

bool EventQueue::RunOne() {
  std::function<void()> fn;
  {
    MutexLock lock(&mu_);
    if (PeekEarliestLive() == nullptr) {
      return false;
    }
    fn = TakePeeked();
  }
  fn();  // Handler runs unlocked: it may re-enter Schedule*/Cancel.
  return true;
}

void EventQueue::RunUntil(TimeNs deadline) {
  // Peek-then-pop under ONE acquisition per event (RunOne would re-peek
  // what the deadline check already positioned — measurable at
  // fleet-scale event rates), handler invocation outside it.
  for (;;) {
    std::function<void()> fn;
    {
      MutexLock lock(&mu_);
      const Entry* peeked = PeekEarliestLive();
      if (peeked == nullptr || peeked->when > deadline) {
        if (now_ < deadline) {
          now_ = deadline;
        }
        return;
      }
      fn = TakePeeked();
    }
    fn();  // Handler runs unlocked: it may re-enter Schedule*/Cancel.
  }
}

void EventQueue::RunAll(uint64_t max_events) {
  uint64_t ran = 0;
  while (RunOne()) {
    if (++ran >= max_events) {
      assert(false && "EventQueue::RunAll exceeded max_events");
      break;
    }
  }
}

}  // namespace squeezy
