#include "dip/ctrl/journal.hpp"

#include <algorithm>
#include <chrono>

namespace dip::ctrl {

namespace {

// A mutable copy of `base`, or an empty table when there is none yet. LPM
// copies adopt the generation.
template <typename T>
std::shared_ptr<T> copy_of(const T* base) {
  return base != nullptr ? std::make_shared<T>(*base) : std::make_shared<T>();
}

// Apply one delta (nullopt = remove). Every insert/remove bumps an LPM
// table's generation, whichever copy it lands on.
template <std::size_t W>
void apply(fib::TreeBitmap<W>& table, const fib::Prefix<W>& prefix,
           const std::optional<fib::NextHop>& nh) {
  if (nh) {
    table.insert(prefix, *nh);
  } else {
    table.remove(prefix);
  }
}

void apply(fib::XidTable& table, const RouteJournal::XidKey& key,
           const std::optional<fib::NextHop>& nh) {
  const auto type = static_cast<fib::XidType>(key.type);
  const fib::Xid xid{key.bytes};
  if (key.local) {
    table.set_local(type, xid);
  } else if (nh) {
    table.insert(type, xid, *nh);
  } else {
    table.remove(type, xid);
  }
}

}  // namespace

RouteJournal::RouteJournal(std::shared_ptr<ControlTables> tables)
    : tables_(std::move(tables)) {}

template <typename T, typename Key>
void RouteJournal::seed_lane(Lane<T, Key>& lane, SnapshotTable<T>& table,
                             const T* from) {
  if (from == nullptr) return;
  lane.live = copy_of(from);
  // No delta log leads from whatever this publish retires to the seed, so
  // the next flush clones.
  lane.standby.reset();
  lane.log.clear();
  table.publish(lane.live, tables_->domain);
}

void RouteJournal::seed(const fib::Ipv4Lpm* fib32, const fib::Ipv6Lpm* fib128,
                        const fib::XidTable* xid) {
  seed_lane(fib32_, tables_->fib32, fib32);
  seed_lane(fib128_, tables_->fib128, fib128);
  seed_lane(xid_, tables_->xid, xid);
}

template <typename T, typename Key>
void RouteJournal::put(Lane<T, Key>& lane, Key key, Delta delta) {
  ++stats_.ops_enqueued;
  const auto [it, inserted] =
      lane.pending.insert_or_assign(std::move(key), std::move(delta));
  (void)it;
  if (!inserted) ++stats_.ops_coalesced;
}

void RouteJournal::add_route32(fib::Prefix<32> prefix, fib::NextHop nh) {
  prefix.normalize();
  put(fib32_, prefix, Delta{nh});
}

void RouteJournal::remove_route32(fib::Prefix<32> prefix) {
  prefix.normalize();
  put(fib32_, prefix, Delta{});
}

void RouteJournal::add_route128(fib::Prefix<128> prefix, fib::NextHop nh) {
  prefix.normalize();
  put(fib128_, prefix, Delta{nh});
}

void RouteJournal::remove_route128(fib::Prefix<128> prefix) {
  prefix.normalize();
  put(fib128_, prefix, Delta{});
}

void RouteJournal::add_xid_route(fib::XidType type, const fib::Xid& xid,
                                 fib::NextHop nh) {
  put(xid_, XidKey{false, static_cast<std::uint8_t>(type), xid.bytes}, Delta{nh});
}

void RouteJournal::remove_xid_route(fib::XidType type, const fib::Xid& xid) {
  put(xid_, XidKey{false, static_cast<std::uint8_t>(type), xid.bytes}, Delta{});
}

void RouteJournal::set_xid_local(fib::XidType type, const fib::Xid& xid) {
  put(xid_, XidKey{true, static_cast<std::uint8_t>(type), xid.bytes}, Delta{});
}

RouteJournal::RouteDelta RouteJournal::assign_routes32(Routes32 want) {
  for (auto& route : want) route.first.normalize();
  const auto by_prefix = [](const auto& a, const auto& b) { return a.first < b.first; };
  if (!std::is_sorted(want.begin(), want.end(), by_prefix)) {
    std::stable_sort(want.begin(), want.end(), by_prefix);
  }
  // Entries that normalize to one prefix now sit together in input order;
  // keep the last of each run. std::unique keeps the first of a run, so it
  // walks backwards and the kept entries end up at the back.
  const auto kept = std::unique(want.rbegin(), want.rend(), [](const auto& a, const auto& b) {
    return a.first == b.first;
  });
  want.erase(want.begin(), kept.base());
  // Merge the old and new sorted sets: a prefix only in `want`, or with a
  // new next hop, is an add; a prefix only in the old set is a remove.
  RouteDelta delta;
  auto have = assigned32_.cbegin();
  const auto end = assigned32_.cend();
  for (const auto& [prefix, nh] : want) {
    for (; have != end && have->first < prefix; ++have) {
      remove_route32(have->first);
      ++delta.withdrawn;
    }
    const bool listed = have != end && have->first == prefix;
    const bool unchanged = listed && have->second == nh;
    if (listed) ++have;
    if (unchanged) continue;
    add_route32(prefix, nh);
    ++delta.installed;
  }
  for (; have != end; ++have) {
    remove_route32(have->first);
    ++delta.withdrawn;
  }
  assigned32_ = std::move(want);
  return delta;
}

bool RouteJournal::dirty() const noexcept { return pending() != 0; }

std::size_t RouteJournal::pending() const noexcept {
  return fib32_.pending.size() + fib128_.pending.size() + xid_.pending.size();
}

template <typename T, typename Key>
std::size_t RouteJournal::flush_lane(Lane<T, Key>& lane, SnapshotTable<T>& table) {
  if (lane.pending.empty()) return 0;
  std::shared_ptr<T> next;
  if (lane.standby && tables_->domain.elapsed(lane.standby_tag)) {
    // No reader can still hold the standby: catch it up with the deltas
    // the live copy has and it lacks, instead of copying the live table.
    next = std::move(lane.standby);
    for (const auto& [key, delta] : lane.log) apply(*next, key, delta);
  } else {
    if (lane.live) ++stats_.clones;
    next = copy_of(lane.live.get());
  }
  lane.log.assign(lane.pending.begin(), lane.pending.end());
  lane.pending.clear();
  for (const auto& [key, delta] : lane.log) apply(*next, key, delta);
  stats_.updates_applied += lane.log.size();
  lane.standby = std::exchange(lane.live, next);
  lane.standby_tag = table.publish(std::move(next), tables_->domain);
  return 1;
}

std::size_t RouteJournal::flush() {
  const auto start = std::chrono::steady_clock::now();
  std::size_t published = flush_lane(fib32_, tables_->fib32);
  published += flush_lane(fib128_, tables_->fib128);
  published += flush_lane(xid_, tables_->xid);

  if (published != 0) {
    stats_.snapshots_published += published;
    ++stats_.flushes;
    const auto elapsed = std::chrono::steady_clock::now() - start;
    const auto ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count());
    stats_.last_flush_ns = ns;
    stats_.max_flush_ns = std::max(stats_.max_flush_ns, ns);
    stats_.total_flush_ns += ns;
  }
  // Reclaim even when nothing was published: readers may have quiesced past
  // earlier retirees since the last call.
  tables_->domain.try_reclaim();
  return published;
}

}  // namespace dip::ctrl
