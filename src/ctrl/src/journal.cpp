#include "dip/ctrl/journal.hpp"

#include <algorithm>
#include <chrono>

#include "dip/fib/tree_bitmap.hpp"

namespace dip::ctrl {

RouteJournal::RouteJournal(std::shared_ptr<ControlTables> tables)
    : tables_(std::move(tables)) {}

void RouteJournal::seed(const fib::Ipv4Lpm* fib32, const fib::Ipv6Lpm* fib128,
                        const fib::XidTable* xid, const fib::NameFib* names) {
  if (fib32 != nullptr) {
    tables_->fib32.publish(std::shared_ptr<const fib::Ipv4Lpm>(fib32->clone()),
                           tables_->domain);
  }
  if (fib128 != nullptr) {
    tables_->fib128.publish(std::shared_ptr<const fib::Ipv6Lpm>(fib128->clone()),
                            tables_->domain);
  }
  if (xid != nullptr) {
    tables_->xid.publish(std::make_shared<const fib::XidTable>(*xid),
                         tables_->domain);
  }
  if (names != nullptr) {
    tables_->names.publish(std::make_shared<const fib::NameFib>(*names),
                           tables_->domain);
  }
}

template <typename K, typename V>
void RouteJournal::put(std::map<K, V>& map, K key, V value) {
  ++stats_.ops_enqueued;
  const auto [it, inserted] = map.insert_or_assign(std::move(key), std::move(value));
  (void)it;
  if (!inserted) ++stats_.ops_coalesced;
}

void RouteJournal::add_route32(fib::Prefix<32> prefix, fib::NextHop nh) {
  prefix.normalize();
  put(pending32_, prefix, std::optional<fib::NextHop>{nh});
}

void RouteJournal::remove_route32(fib::Prefix<32> prefix) {
  prefix.normalize();
  put(pending32_, prefix, std::optional<fib::NextHop>{});
}

void RouteJournal::add_route128(fib::Prefix<128> prefix, fib::NextHop nh) {
  prefix.normalize();
  put(pending128_, prefix, std::optional<fib::NextHop>{nh});
}

void RouteJournal::remove_route128(fib::Prefix<128> prefix) {
  prefix.normalize();
  put(pending128_, prefix, std::optional<fib::NextHop>{});
}

void RouteJournal::add_xid_route(fib::XidType type, const fib::Xid& xid,
                                 fib::NextHop nh) {
  put(pending_xid_, XidKey{static_cast<std::uint8_t>(type), xid.bytes},
      std::optional<fib::NextHop>{nh});
}

void RouteJournal::remove_xid_route(fib::XidType type, const fib::Xid& xid) {
  put(pending_xid_, XidKey{static_cast<std::uint8_t>(type), xid.bytes},
      std::optional<fib::NextHop>{});
}

void RouteJournal::set_xid_local(fib::XidType type, const fib::Xid& xid) {
  put(pending_xid_local_, XidKey{static_cast<std::uint8_t>(type), xid.bytes},
      true);
}

void RouteJournal::add_name_route(const fib::Name& name, fib::NextHop nh) {
  put(pending_names_, name.to_string(), std::optional<fib::NextHop>{nh});
}

void RouteJournal::remove_name_route(const fib::Name& name) {
  put(pending_names_, name.to_string(), std::optional<fib::NextHop>{});
}

bool RouteJournal::dirty() const noexcept { return pending() != 0; }

std::size_t RouteJournal::pending() const noexcept {
  return pending32_.size() + pending128_.size() + pending_xid_.size() +
         pending_xid_local_.size() + pending_names_.size();
}

std::size_t RouteJournal::flush() {
  const auto start = std::chrono::steady_clock::now();
  std::size_t published = 0;

  if (!pending32_.empty()) {
    const auto base = tables_->fib32.share();
    std::unique_ptr<fib::Ipv4Lpm> next =
        base ? base->clone() : std::make_unique<fib::TreeBitmap<32>>();
    for (const auto& [prefix, nh] : pending32_) {
      if (nh) {
        next->insert(prefix, *nh);
      } else {
        next->remove(prefix);
      }
    }
    stats_.updates_applied += pending32_.size();
    pending32_.clear();
    tables_->fib32.publish(
        std::shared_ptr<const fib::Ipv4Lpm>(std::move(next)), tables_->domain);
    ++published;
  }

  if (!pending128_.empty()) {
    const auto base = tables_->fib128.share();
    std::unique_ptr<fib::Ipv6Lpm> next =
        base ? base->clone() : std::make_unique<fib::TreeBitmap<128>>();
    for (const auto& [prefix, nh] : pending128_) {
      if (nh) {
        next->insert(prefix, *nh);
      } else {
        next->remove(prefix);
      }
    }
    stats_.updates_applied += pending128_.size();
    pending128_.clear();
    tables_->fib128.publish(
        std::shared_ptr<const fib::Ipv6Lpm>(std::move(next)), tables_->domain);
    ++published;
  }

  if (!pending_xid_.empty() || !pending_xid_local_.empty()) {
    const auto base = tables_->xid.share();
    auto next = base ? std::make_unique<fib::XidTable>(*base)
                     : std::make_unique<fib::XidTable>();
    for (const auto& [key, nh] : pending_xid_) {
      const auto type = static_cast<fib::XidType>(key.first);
      const fib::Xid xid{key.second};
      if (nh) {
        next->insert(type, xid, *nh);
      } else {
        next->remove(type, xid);
      }
    }
    for (const auto& [key, local] : pending_xid_local_) {
      if (local) {
        next->set_local(static_cast<fib::XidType>(key.first),
                        fib::Xid{key.second});
      }
    }
    stats_.updates_applied += pending_xid_.size() + pending_xid_local_.size();
    pending_xid_.clear();
    pending_xid_local_.clear();
    tables_->xid.publish(
        std::shared_ptr<const fib::XidTable>(std::move(next)), tables_->domain);
    ++published;
  }

  if (!pending_names_.empty()) {
    const auto base = tables_->names.share();
    auto next = base ? std::make_unique<fib::NameFib>(*base)
                     : std::make_unique<fib::NameFib>();
    for (const auto& [text, nh] : pending_names_) {
      const fib::Name name = fib::Name::parse(text);
      if (nh) {
        next->insert(name, *nh);
      } else {
        next->remove(name);
      }
    }
    stats_.updates_applied += pending_names_.size();
    pending_names_.clear();
    tables_->names.publish(
        std::shared_ptr<const fib::NameFib>(std::move(next)), tables_->domain);
    ++published;
  }

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
