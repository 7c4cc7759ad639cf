#include "dip/pit/pit.hpp"

#include <algorithm>
#include <functional>

namespace dip::pit {

namespace {

// Stale items the heap may hold beyond 2 x size(), so a small table does
// not rebuild on every interest.
constexpr std::size_t kHeapSlack = 64;

}  // namespace

void Pit::push_expiry(SimTime expiry, std::uint64_t name_code) {
  expiry_heap_.push_back({expiry, name_code});
  std::push_heap(expiry_heap_.begin(), expiry_heap_.end(), std::greater<>{});
  trim_expiry_heap();
}

void Pit::trim_expiry_heap() {
  if (expiry_heap_.size() <= 2 * entries_.size() + kHeapSlack) return;
  // Most items are stale (their entry was refreshed, consumed or swept):
  // keep one exact item per live entry. At least size() + 65 operations
  // made the stale items since the last rebuild, which pays for this one.
  expiry_heap_.clear();
  for (const auto& [code, entry] : entries_) expiry_heap_.push_back({entry.expiry, code});
  std::make_heap(expiry_heap_.begin(), expiry_heap_.end(), std::greater<>{});
}

std::optional<InterestResult> Pit::record_interest(std::uint64_t name_code, FaceId face,
                                                   SimTime now) {
  auto it = entries_.find(name_code);
  if (it != entries_.end() && it->second.expiry <= now) {
    // Stale entry: treat as absent.
    entries_.erase(it);
    it = entries_.end();
  }

  if (it == entries_.end()) {
    if (entries_.size() >= config_.max_entries) {
      // §2.4: hard per-node state limit; refuse rather than grow unbounded.
      expire(now);
      if (entries_.size() >= config_.max_entries) return std::nullopt;
    }
    Entry entry;
    entry.in_faces.push_back(face);
    entry.expiry = now + config_.entry_lifetime;
    entries_.emplace(name_code, std::move(entry));
    push_expiry(now + config_.entry_lifetime, name_code);
    return InterestResult::kCreated;
  }

  Entry& entry = it->second;
  if (std::find(entry.in_faces.begin(), entry.in_faces.end(), face) !=
      entry.in_faces.end()) {
    return InterestResult::kDuplicate;
  }
  entry.in_faces.push_back(face);
  // Refresh lifetime: any aggregated interest keeps the entry alive.
  entry.expiry = now + config_.entry_lifetime;
  push_expiry(entry.expiry, name_code);
  return InterestResult::kAggregated;
}

std::vector<FaceId> Pit::match_data(std::uint64_t name_code, SimTime now) {
  auto it = entries_.find(name_code);
  if (it == entries_.end() || it->second.expiry <= now) {
    if (it != entries_.end()) {
      entries_.erase(it);
      trim_expiry_heap();
    }
    return {};
  }
  std::vector<FaceId> faces = std::move(it->second.in_faces);
  entries_.erase(it);
  trim_expiry_heap();
  return faces;
}

bool Pit::has_entry(std::uint64_t name_code, SimTime now) const {
  const auto it = entries_.find(name_code);
  return it != entries_.end() && it->second.expiry > now;
}

std::size_t Pit::expire(SimTime now) {
  std::size_t removed = 0;
  while (!expiry_heap_.empty() && expiry_heap_.front().expiry <= now) {
    std::pop_heap(expiry_heap_.begin(), expiry_heap_.end(), std::greater<>{});
    const HeapItem item = expiry_heap_.back();
    expiry_heap_.pop_back();
    const auto it = entries_.find(item.name_code);
    // Lazy deletion: the heap may hold stale items for refreshed or
    // already-consumed entries; only honor an exact expiry match.
    if (it != entries_.end() && it->second.expiry == item.expiry &&
        it->second.expiry <= now) {
      entries_.erase(it);
      ++removed;
    }
  }
  trim_expiry_heap();
  return removed;
}

}  // namespace dip::pit
