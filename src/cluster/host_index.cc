#include "src/cluster/host_index.h"

#include <algorithm>
#include <cassert>

namespace squeezy {

HostIndex::HostIndex(size_t nr_hosts) : nr_hosts_(nr_hosts) {
  assert(nr_hosts_ > 0);
  MutexLock lock(&mu_);
  rows_.resize(nr_hosts_);
  host_fns_.resize(nr_hosts_);
}

void HostIndex::InitHost(size_t host, uint64_t committed, uint64_t capacity,
                         size_t pending, bool draining) {
  MutexLock lock(&mu_);
  assert(host < nr_hosts_);
  HostRow& row = rows_[host];
  // Idempotent re-seed: drop any prior keys before inserting the new ones.
  by_available_.erase({row.available(), host});
  by_pressure_.erase({row.pending, host});
  row.capacity = capacity;
  ApplyRow(host, committed, pending, draining);
}

void HostIndex::Update(size_t host, uint64_t committed, size_t pending,
                       bool draining) {
  MutexLock lock(&mu_);
  assert(host < nr_hosts_);
  HostRow& row = rows_[host];
  ++stats_.updates;
  if (row.committed == committed && row.pending == pending &&
      row.draining == draining) {
    return;  // Spurious notification; every tree is already exact.
  }
  by_available_.erase({row.available(), host});
  by_pressure_.erase({row.pending, host});
  if (row.committed != committed) {
    for (const auto& [fn, replica] : host_fns_[host]) {
      fns_[fn].by_committed.erase({row.committed, replica});
    }
  }
  if (row.draining != draining) {
    for (const auto& [fn, replica] : host_fns_[host]) {
      fns_[fn].draining_replicas += draining ? 1 : -1;
    }
  }
  const uint64_t old_committed = row.committed;
  ApplyRow(host, committed, pending, draining);
  if (old_committed != committed) {
    for (const auto& [fn, replica] : host_fns_[host]) {
      fns_[fn].by_committed.insert({committed, replica});
    }
  }
}

void HostIndex::ApplyRow(size_t host, uint64_t committed, size_t pending,
                         bool draining) {
  HostRow& row = rows_[host];
  row.committed = committed;
  row.pending = pending;
  row.draining = draining;
  by_available_.insert({row.available(), host});
  by_pressure_.insert({pending, host});
}

void HostIndex::RegisterFunction(int fn, const std::vector<size_t>& replica_hosts) {
  MutexLock lock(&mu_);
  assert(fn >= 0);
  assert(static_cast<size_t>(fn) == fns_.size());  // Cluster-fn order.
  fns_.emplace_back();
  FnIndex& idx = fns_.back();
  idx.hosts = replica_hosts;
  for (size_t replica = 0; replica < replica_hosts.size(); ++replica) {
    const size_t host = replica_hosts[replica];
    assert(host < nr_hosts_);
    idx.by_committed.insert({rows_[host].committed, replica});
    if (rows_[host].draining) {
      ++idx.draining_replicas;
    }
    host_fns_[host].push_back({static_cast<size_t>(fn), replica});
  }
  ++stats_.functions;
  stats_.max_fn_replicas = std::max(stats_.max_fn_replicas, replica_hosts.size());
}

HostIndex::HostRow HostIndex::row(size_t host) const {
  MutexLock lock(&mu_);
  assert(host < nr_hosts_);
  return rows_[host];
}

std::vector<HostIndex::Candidate> HostIndex::CandidatesByAvailable(
    uint64_t need) const {
  MutexLock lock(&mu_);
  std::vector<Candidate> out;
  for (auto it = by_available_.lower_bound({need, 0}); it != by_available_.end();
       ++it) {
    const size_t host = it->second;
    if (rows_[host].draining) {
      continue;
    }
    out.push_back({host, rows_[host].committed, it->first});
  }
  // Callers see hosts in ascending index, so every downstream
  // stable_sort and cursor computation runs over one fixed sequence.
  std::sort(out.begin(), out.end(),
            [](const Candidate& a, const Candidate& b) { return a.host < b.host; });
  return out;
}

int HostIndex::FirstAdmittingByCommittedDesc(
    int fn, const std::function<bool(size_t)>& can_admit) const {
  // Snapshot the probe order under the lock, probe without it: can_admit
  // reaches into the host layer and must not run below `mu_`.
  std::vector<size_t> order;
  {
    MutexLock lock(&mu_);
    assert(static_cast<size_t>(fn) < fns_.size());
    const FnIndex& idx = fns_[fn];
    order.reserve(idx.hosts.size());
    auto it = idx.by_committed.rbegin();
    std::vector<size_t> group;
    while (it != idx.by_committed.rend()) {
      const uint64_t committed = it->first;
      group.clear();
      for (; it != idx.by_committed.rend() && it->first == committed; ++it) {
        group.push_back(it->second);  // Descending replica index.
      }
      order.insert(order.end(), group.rbegin(), group.rend());  // Ascending.
    }
  }
  for (size_t replica : order) {
    if (can_admit(replica)) {
      return static_cast<int>(replica);
    }
  }
  return -1;
}

std::vector<size_t> HostIndex::LeastCommittedTied(int fn) const {
  MutexLock lock(&mu_);
  assert(static_cast<size_t>(fn) < fns_.size());
  const FnIndex& idx = fns_[fn];
  // Every replica is eligible when ALL of them drain.
  const bool all_draining = idx.draining_replicas == idx.hosts.size();
  std::vector<size_t> tied;
  auto it = idx.by_committed.begin();
  while (it != idx.by_committed.end()) {
    const uint64_t committed = it->first;
    tied.clear();
    for (; it != idx.by_committed.end() && it->first == committed; ++it) {
      const size_t replica = it->second;
      if (all_draining || !rows_[idx.hosts[replica]].draining) {
        tied.push_back(replica);  // Ascending replica index (pair order).
      }
    }
    if (!tied.empty()) {
      return tied;  // First group with an eligible member is the minimum.
    }
  }
  return tied;
}

size_t HostIndex::EligibleCount(int fn) const {
  MutexLock lock(&mu_);
  assert(static_cast<size_t>(fn) < fns_.size());
  return fns_[fn].hosts.size() - fns_[fn].draining_replicas;
}

size_t HostIndex::EligibleAt(int fn, size_t k) const {
  MutexLock lock(&mu_);
  assert(static_cast<size_t>(fn) < fns_.size());
  const FnIndex& idx = fns_[fn];
  if (idx.draining_replicas == 0) {
    return k;  // Every replica eligible: identity mapping, O(1).
  }
  for (size_t replica = 0; replica < idx.hosts.size(); ++replica) {
    if (rows_[idx.hosts[replica]].draining) {
      continue;
    }
    if (k == 0) {
      return replica;
    }
    --k;
  }
  assert(false && "EligibleAt: k out of range");
  return 0;
}

int HostIndex::MostPressured(size_t min_pending) const {
  MutexLock lock(&mu_);
  for (const auto& [pending, host] : by_pressure_) {
    if (rows_[host].draining) {
      continue;
    }
    // First non-draining entry has the max pending (ties lowest host);
    // -1 when even the max misses min_pending.
    return pending >= min_pending ? static_cast<int>(host) : -1;
  }
  return -1;
}

}  // namespace squeezy
