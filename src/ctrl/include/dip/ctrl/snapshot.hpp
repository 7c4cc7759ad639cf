// RCU-style snapshot tables with quiescent-state grace-period reclamation.
//
// The data plane reads route tables on every packet; the control plane
// replaces them at churn rates that are orders of magnitude lower. The
// classic answer is read-copy-update: readers dereference a raw snapshot
// pointer with no locks and no reference-count traffic, writers publish a
// fully built replacement table with one atomic store, and the old table is
// freed (or rewritten by the writer) only after a *grace period* — once every
// reader has passed through a quiescent state (a burst boundary) at least
// once since the publish.
//
// Reader protocol (QSBR — quiescent-state-based reclamation):
//   - Each reader (RouterPool worker, or the calling thread for a scalar
//     Router) owns a ReaderSlot registered with the QsbrDomain.
//   - Between quiescent announcements the reader may hold raw pointers
//     obtained from SnapshotTable<T>::read(); it must drop them all before
//     announcing.
//   - At each burst boundary it calls QsbrDomain::quiesce(slot), which
//     copies the domain's current version into the slot.
//   - A reader that parks (blocks on a condvar with no packets in flight)
//     calls park(slot) first — setting the kIdle sentinel — so an idle
//     worker can never stall reclamation. On wakeup, resume(slot) re-joins
//     the protocol *before* any table read.
//
// Writer protocol:
//   - Build the replacement off to the side (RouteJournal brings a retired
//     table up to date, or clones the live one).
//   - SnapshotTable<T>::publish() stores the new raw pointer (seq_cst),
//     retires the old owning shared_ptr into the domain tagged with the
//     post-bump version, and returns that tag.
//   - QsbrDomain::elapsed(tag) says whether every non-idle reader has
//     announced that version (or a later one); try_reclaim() drops the
//     domain's reference to each retiree whose tag passes that test. A
//     writer that kept its own reference to a retiree may rewrite it once
//     elapsed() holds for its tag.
//
// Memory-order note: the publish store, the reader's snapshot load, the
// reader's quiesce/resume stores, and the reclaimer's slot loads are all
// seq_cst on purpose. The park/resume race (worker resumes and loads the
// *old* snapshot while the writer concurrently publishes and reclaims)
// is excluded by the seq_cst total order: if the resumed reader's load
// returned the old table, its `seen` store is ordered before the
// reclaimer's read of it, so the reclaimer observes seen < tag and keeps
// the table alive. We deliberately use seq_cst atomics rather than
// standalone fences; the cost is irrelevant at burst granularity and
// ThreadSanitizer reasons about atomics far better than about fences.
//
// Single-writer rule: publish/retire/elapsed/try_reclaim must come from one
// control thread at a time (RouteJournal enforces this); readers are
// unlimited.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <vector>

namespace dip::ctrl {

/// One reader's announcement word. Heap-allocated and shared so a slot can
/// outlive either side (worker teardown vs domain teardown) safely.
struct ReaderSlot {
  /// Version sentinel meaning "parked / not reading": never blocks a grace
  /// period. Also the initial state — a reader that has never run a burst
  /// holds no pointers.
  static constexpr std::uint64_t kIdle =
      std::numeric_limits<std::uint64_t>::max();

  std::atomic<std::uint64_t> seen{kIdle};
};

using ReaderHandle = std::shared_ptr<ReaderSlot>;

/// Grace-period tracker shared by every SnapshotTable of one control domain
/// (one per node: its fib32/fib128/xid/name tables retire into the same
/// domain, so one quiesce per burst covers all four).
class QsbrDomain {
 public:
  /// Current global version. Starts at 1 so kIdle (max) and "never
  /// announced" are distinguishable from any real version.
  [[nodiscard]] std::uint64_t version() const noexcept {
    return version_.load(std::memory_order_seq_cst);
  }

  /// Register a reader. Thread-safe; typically called at pool start.
  [[nodiscard]] ReaderHandle register_reader() {
    auto slot = std::make_shared<ReaderSlot>();
    std::lock_guard lock(mu_);
    // Prune slots whose readers tore down, so reader churn against a
    // long-lived domain (repeated pool restarts) doesn't grow the vector
    // monotonically. Registration is the natural churn point.
    std::erase_if(slots_,
                  [](const std::weak_ptr<ReaderSlot>& w) { return w.expired(); });
    slots_.push_back(slot);
    return slot;
  }

  /// Reader-side: announce a quiescent state (no snapshot pointers held).
  void quiesce(const ReaderHandle& slot) const noexcept {
    slot->seen.store(version_.load(std::memory_order_seq_cst),
                     std::memory_order_seq_cst);
  }

  /// Reader-side: about to block with no packets in flight.
  static void park(const ReaderHandle& slot) noexcept {
    slot->seen.store(ReaderSlot::kIdle, std::memory_order_seq_cst);
  }

  /// Reader-side: waking up; must run before the first table read.
  void resume(const ReaderHandle& slot) const noexcept {
    slot->seen.exchange(version_.load(std::memory_order_seq_cst),
                        std::memory_order_seq_cst);
  }

  /// Writer-side: take ownership of a replaced object until its grace
  /// period elapses. Bumps the version and returns the retiree's tag (the
  /// post-bump version); the retiree is released once every non-idle reader
  /// has announced that version (or later).
  std::uint64_t retire(std::shared_ptr<const void> obj) {
    const std::uint64_t tag =
        version_.fetch_add(1, std::memory_order_seq_cst) + 1;
    std::lock_guard lock(mu_);
    retired_.push_back(Retired{std::move(obj), tag});
    return tag;
  }

  /// Writer-side: has the grace period of the retiree tagged `tag` elapsed,
  /// so that no reader can still hold it? The test try_reclaim() applies.
  [[nodiscard]] bool elapsed(std::uint64_t tag) const {
    std::lock_guard lock(mu_);
    return tag <= min_seen_locked();
  }

  /// Writer-side: release every retiree whose grace period has elapsed.
  /// Returns how many objects were released (freed, unless the writer kept
  /// its own reference).
  std::size_t try_reclaim() {
    std::vector<std::shared_ptr<const void>> free_list;  // destroy unlocked
    std::size_t freed = 0;
    {
      std::lock_guard lock(mu_);
      const std::uint64_t horizon = min_seen_locked();
      auto it = retired_.begin();
      while (it != retired_.end()) {
        if (it->tag <= horizon) {
          free_list.push_back(std::move(it->obj));
          it = retired_.erase(it);
          ++freed;
        } else {
          ++it;
        }
      }
      reclaimed_total_ += freed;
    }
    return freed;
  }

  /// Retired-but-not-yet-freed object count (telemetry: reclamation backlog).
  [[nodiscard]] std::size_t backlog() const {
    std::lock_guard lock(mu_);
    return retired_.size();
  }

  /// Lifetime total of objects released by try_reclaim (telemetry).
  [[nodiscard]] std::uint64_t reclaimed_total() const {
    std::lock_guard lock(mu_);
    return reclaimed_total_;
  }

 private:
  struct Retired {
    std::shared_ptr<const void> obj;
    std::uint64_t tag;  ///< version after the retiring bump
  };

  /// Minimum version announced across live, non-idle readers; the current
  /// version if every reader is idle or dead (then everything is safe).
  [[nodiscard]] std::uint64_t min_seen_locked() const {
    std::uint64_t min = version_.load(std::memory_order_seq_cst);
    for (const auto& weak : slots_) {
      auto slot = weak.lock();
      if (!slot) continue;  // reader torn down: holds nothing
      const std::uint64_t seen = slot->seen.load(std::memory_order_seq_cst);
      if (seen == ReaderSlot::kIdle) continue;  // parked: holds nothing
      if (seen < min) min = seen;
    }
    return min;
  }

  std::atomic<std::uint64_t> version_{1};
  mutable std::mutex mu_;
  std::vector<std::weak_ptr<ReaderSlot>> slots_;
  std::vector<Retired> retired_;
  std::uint64_t reclaimed_total_ = 0;
};

/// One RCU-published table. Readers get a raw const pointer (no ref-count
/// cache-line bouncing on the per-packet path); the writer swaps in a new
/// snapshot and retires the old one into the domain.
template <typename T>
class SnapshotTable {
 public:
  SnapshotTable() = default;
  SnapshotTable(const SnapshotTable&) = delete;
  SnapshotTable& operator=(const SnapshotTable&) = delete;

  /// Reader-side: current snapshot, or nullptr before the first publish.
  /// Valid until the caller's next quiesce/park announcement.
  [[nodiscard]] const T* read() const noexcept {
    return current_.load(std::memory_order_seq_cst);
  }

  /// Writer-side (single writer): publish `next` and retire the previous
  /// snapshot into `domain` for grace-period reclamation. Returns the
  /// retiree's tag (QsbrDomain::retire), or 0 when there was none.
  std::uint64_t publish(std::shared_ptr<const T> next, QsbrDomain& domain) {
    std::shared_ptr<const T> old = std::move(owner_);
    owner_ = std::move(next);
    current_.store(owner_.get(), std::memory_order_seq_cst);
    if (!old) return 0;
    return domain.retire(std::shared_ptr<const void>(std::move(old)));
  }

 private:
  std::atomic<const T*> current_{nullptr};
  std::shared_ptr<const T> owner_;  // touched by the single writer only
};

}  // namespace dip::ctrl
