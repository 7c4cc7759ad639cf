#include "dip/core/router_pool.hpp"

#include <algorithm>
#include <thread>

namespace dip::core {

namespace {

// FNV-1a 64 over a byte span (matches the spirit of the flow-cache hash; a
// different function is fine — sharding and caching never compare hashes).
std::uint64_t fnv1a(std::span<const std::uint8_t> bytes) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

// The bytes that identify the packet's flow: the first router-side FN's
// sliced field. Decoded straight off the wire — sharding must not require a
// full (checksum-validated) bind, and malformed packets just need *some*
// deterministic shard.
std::span<const std::uint8_t> flow_bytes(std::span<const std::uint8_t> p) noexcept {
  if (p.size() < BasicHeader::kWireSize) return p;
  const std::uint8_t fn_num = p[1];
  const std::uint16_t param =
      static_cast<std::uint16_t>((p[3] << 8) | p[4]);
  const std::size_t loc_len = (param >> 1) & 0x3ff;  // reserved:5|loc_len:10|parallel:1
  const std::size_t locs_off =
      BasicHeader::kWireSize + std::size_t{fn_num} * FnTriple::kWireSize;
  if (p.size() < locs_off + loc_len) return p;

  for (std::size_t i = 0; i < fn_num; ++i) {
    const std::size_t off = BasicHeader::kWireSize + i * FnTriple::kWireSize;
    FnTriple fn;
    fn.field_loc = static_cast<std::uint16_t>((p[off] << 8) | p[off + 1]);
    fn.field_len = static_cast<std::uint16_t>((p[off + 2] << 8) | p[off + 3]);
    fn.op = static_cast<std::uint16_t>((p[off + 4] << 8) | p[off + 5]);
    if (fn.host_tagged()) continue;  // host FNs don't define router flow state
    const std::size_t byte_lo = fn.field_loc / 8;
    const std::size_t byte_hi = (std::size_t{fn.field_loc} + fn.field_len + 7) / 8;
    if (fn.field_len == 0 || byte_hi > loc_len) break;
    return p.subspan(locs_off + byte_lo, byte_hi - byte_lo);
  }
  return p;  // no usable field: hash the whole packet
}

}  // namespace

RouterPool::RouterPool(const OpRegistry* registry,
                       const std::function<RouterEnv(std::size_t)>& env_factory,
                       RouterPoolConfig config, Completion on_complete)
    : config_(config), on_complete_(std::move(on_complete)) {
  std::size_t n = config_.workers;
  if (n == 0) {
    n = std::thread::hardware_concurrency();
    if (n == 0) n = 1;
  }
  if (config_.max_batch == 0) config_.max_batch = 1;

  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto w = std::make_unique<Worker>(config_.ring_capacity);
    w->index = i;
    const std::size_t batch =
        config_.wake_batch != 0 ? config_.wake_batch : config_.max_batch;
    w->wake_threshold = std::max<std::size_t>(1, std::min(batch, w->ring.capacity()));
    w->router = std::make_unique<Router>(env_factory(i), registry);
    workers_.push_back(std::move(w));
  }
  // Start threads only after the vector is fully built.
  for (auto& w : workers_) {
    w->thread = std::thread([this, worker = w.get()] { worker_main(*worker); });
  }
}

RouterPool::~RouterPool() { stop(); }

std::size_t RouterPool::shard_of(std::span<const std::uint8_t> packet,
                                 std::size_t workers) noexcept {
  if (workers <= 1) return 0;
  return static_cast<std::size_t>(fnv1a(flow_bytes(packet)) % workers);
}

std::size_t RouterPool::submit(std::vector<std::uint8_t> packet, FaceId ingress,
                               SimTime now) {
  const std::size_t idx = shard_of(packet, workers_.size());
  Item item{std::move(packet), ingress, now};
  while (!enqueue(*workers_[idx], item)) std::this_thread::yield();
  return idx;
}

std::optional<std::size_t> RouterPool::try_submit(std::vector<std::uint8_t> packet,
                                                  FaceId ingress, SimTime now) {
  const std::size_t idx = shard_of(packet, workers_.size());
  Item item{std::move(packet), ingress, now};
  if (enqueue(*workers_[idx], item)) return idx;
  shed(idx, item);
  return std::nullopt;
}

bool RouterPool::enqueue(Worker& w, Item& item) {
  if (!w.ring.try_push(std::move(item))) {
    // Ring full: make sure the worker is draining it.
    if (w.parked.exchange(false, std::memory_order_seq_cst)) wake(w);
    return false;
  }
  ++w.submitted;
  // Dekker handshake with the worker's park sequence (store parked; fence;
  // check ring): after our release push, a seq_cst fence and a parked read
  // guarantee we either see parked==true here or the worker sees the item.
  // The wake_threshold batches wakeups (drain() flushes any sub-threshold
  // tail), and exchange() claims the wake, so a parked worker costs one
  // notify per park, not one per submit.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (w.ring.size() >= w.wake_threshold &&
      w.parked.load(std::memory_order_relaxed) &&
      w.parked.exchange(false, std::memory_order_seq_cst)) {
    wake(w);
  }
  return true;
}

void RouterPool::shed(std::size_t worker, Item& item) {
  ++workers_[worker]->shed;
  if (on_complete_) {
    // The one completion that runs on the dispatcher thread, not the
    // worker's: the packet never reached a worker.
    ProcessResult result;
    result.drop(DropReason::kOverloadShed);
    on_complete_(worker, item, result);
  }
}

std::uint64_t RouterPool::shed_total() const noexcept {
  std::uint64_t total = 0;
  for (const auto& w : workers_) total += w->shed.load();
  return total;
}

void RouterPool::wake(Worker& w) {
  // Lock before notifying: serializes with the worker between its ring
  // re-check and cv.wait, so the notify cannot fall into that window.
  std::lock_guard<std::mutex> lk(w.m);
  w.cv.notify_one();
}

void RouterPool::worker_main(Worker& w) {
  std::vector<Item> items(config_.max_batch);
  std::vector<PacketRef> refs(config_.max_batch);
  std::vector<ProcessResult> results(config_.max_batch);

  // Join the reader protocol before the first table read: the slot starts
  // at kIdle, and min_seen_locked() skips kIdle slots, so without this a
  // first-iteration burst (ring already non-empty at thread start) would
  // read snapshots a concurrent publish+reclaim is free to delete.
  w.router->env().ctrl_resume();

  for (;;) {
    const std::size_t n = w.ring.pop_bulk({items.data(), items.size()});
    if (n == 0) {
      if (!running_.load(std::memory_order_acquire)) return;
      {
        // About to block with no packets in flight: tell the control plane
        // this reader holds no snapshot pointers, so a parked worker never
        // stalls grace-period reclamation (no-op without a control plane).
        w.router->env().ctrl_park();
        std::unique_lock<std::mutex> lk(w.m);
        for (;;) {
          // Republish on every pass: the producer's exchange() may have
          // consumed the flag while we were (spuriously) awake.
          w.parked.store(true, std::memory_order_relaxed);
          std::atomic_thread_fence(std::memory_order_seq_cst);
          if (!w.ring.empty() || !running_.load(std::memory_order_acquire)) break;
          w.cv.wait(lk);
        }
        w.parked.store(false, std::memory_order_relaxed);
      }
      // Re-join the reader protocol before the next table read.
      w.router->env().ctrl_resume();
      continue;
    }

    // Process the burst in runs sharing (ingress, now) — process_batch takes
    // one of each; a steady trace produces full-length runs.
    std::size_t i = 0;
    while (i < n) {
      std::size_t j = i + 1;
      while (j < n && items[j].ingress == items[i].ingress &&
             items[j].now == items[i].now) {
        ++j;
      }
      for (std::size_t k = i; k < j; ++k) refs[k - i] = PacketRef(items[k].packet);
      w.router->process_batch({refs.data(), j - i}, items[i].ingress, items[i].now,
                              {results.data(), j - i});
      if (on_complete_) {
        for (std::size_t k = i; k < j; ++k) {
          on_complete_(w.index, items[k], results[k - i]);
        }
      }
      i = j;
    }
    w.completed.fetch_add(n, std::memory_order_release);
  }
}

void RouterPool::drain() {
  for (auto& w : workers_) {
    while (w->completed.load(std::memory_order_acquire) != w->submitted) {
      // Insurance against any transient park-with-work state.
      if (!w->ring.empty() && w->parked.exchange(false, std::memory_order_seq_cst)) {
        wake(*w);
      }
      std::this_thread::yield();
    }
  }
}

void RouterPool::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  for (auto& w : workers_) wake(*w);
  for (auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
  }
  // Workers drain their rings before exiting (pop_bulk hits empty before the
  // !running_ check), so stop() == drain + join for anything submitted
  // before the stop.
}

telemetry::CounterSnapshot RouterPool::counters() const {
  std::vector<const telemetry::RouterCounters*> all;
  all.reserve(workers_.size());
  for (const auto& w : workers_) all.push_back(&w->router->env().counters);
  return telemetry::aggregate(all);
}

namespace {

// KeyNamer over fn_by_key slots (slot = key % 32; live keys are 1..16, so
// the mapping is exact and unused slots never render).
std::string_view key_slot_name(std::size_t slot) {
  return op_key_name(static_cast<OpKey>(slot));
}

}  // namespace

void RouterPool::write_stats(telemetry::StatsWriter& w) const {
  // Fleet view: aggregated counters, then the RouterStats series merged
  // across every worker that has RouterEnv::stats installed.
  telemetry::write_counter_snapshot(w, counters(), {}, &key_slot_name);
  w.counter("dip_shed_total", {}, shed_total());

  telemetry::RouterStats::Snapshot merged;
  bool any_stats = false;
  for (const auto& worker : workers_) {
    if (const telemetry::RouterStats* stats = worker->router->env().stats.get()) {
      merged += stats->snapshot();
      any_stats = true;
    }
  }
  if (any_stats) telemetry::write_router_stats(w, merged, {}, &key_slot_name);

  // Per-worker series: the fleet counters above are exactly the sum of
  // these (stats_test pins that invariant), plus live queue depths.
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    const std::string idx = std::to_string(i);
    const telemetry::Label labels[] = {{"worker", idx}};
    telemetry::write_counter_snapshot(
        w, workers_[i]->router->env().counters.snapshot(), labels,
        &key_slot_name);
    w.counter("dip_worker_shed_total", labels, workers_[i]->shed.load());
    w.counter("dip_worker_queue_depth", labels, queue_depth(i));
  }
}

void RouterPool::register_stats(telemetry::StatsRegistry& registry) const {
  registry.add("router_pool",
               [this](telemetry::StatsWriter& w) { write_stats(w); });
}

std::string RouterPool::dump_stats() const {
  telemetry::StatsWriter w;
  write_stats(w);
  return w.take();
}

}  // namespace dip::core
