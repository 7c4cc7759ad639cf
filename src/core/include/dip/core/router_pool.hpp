// RouterPool — flow-affine sharding of the DIP data plane across workers.
//
// N worker threads each own a full Router (private PIT, content store, flow
// cache, OPT state) while sharing the read-mostly OpRegistry and route
// tables (RouterEnv's shared_ptr FIBs). Ingress packets are RSS-hashed on
// the first router-side FN's sliced field — the destination address for
// DIP-32/128, the name code for NDN interests AND data, the packet's flow
// identity in general — so every packet of a flow lands on the same worker.
// That affinity is what keeps stateful FNs correct without locks: the PIT
// entry an interest created is always on the worker its data packet hashes
// to, and OPT's per-flow chain state never migrates.
//
// Each worker consumes its SPSC ring in bursts of up to `max_batch` and
// runs Router::process_batch run-to-completion. The submit side is single
// threaded (one dispatcher, as one NIC rx queue would be).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "dip/core/ring.hpp"
#include "dip/core/router.hpp"
#include "dip/telemetry/counters.hpp"
#include "dip/telemetry/exposition.hpp"

namespace dip::core {

struct RouterPoolConfig {
  /// Worker count; 0 = one per hardware thread.
  std::size_t workers = 1;
  /// Per-worker ingress ring capacity (rounded up to a power of two).
  std::size_t ring_capacity = 1024;
  /// Max packets a worker pulls per process_batch call.
  std::size_t max_batch = 32;
  /// Don't wake a parked worker until this many packets queue in its ring
  /// (drain() always flushes the tail). 0 = max_batch. Larger values trade
  /// latency for fewer wakeups — a throughput-oriented dispatcher that
  /// submits a chunk and drains can set this to the chunk size.
  std::size_t wake_batch = 0;
};

class RouterPool {
 public:
  /// One queued unit of ingress work.
  struct Item {
    std::vector<std::uint8_t> packet;
    FaceId ingress = 0;
    SimTime now = 0;
  };

  /// Invoked on the worker's thread after each packet completes.
  using Completion =
      std::function<void(std::size_t worker, Item& item, ProcessResult& result)>;

  /// `env_factory(i)` builds worker i's environment (share FIBs across
  /// workers by handing each env the same shared_ptr tables).
  RouterPool(const OpRegistry* registry,
             const std::function<RouterEnv(std::size_t)>& env_factory,
             RouterPoolConfig config = {}, Completion on_complete = {});
  ~RouterPool();

  RouterPool(const RouterPool&) = delete;
  RouterPool& operator=(const RouterPool&) = delete;

  /// Enqueue one packet (single dispatcher thread only), waiting for a
  /// slot while the target worker's ring is full (the dispatcher absorbs
  /// backpressure). Returns the worker index chosen.
  std::size_t submit(std::vector<std::uint8_t> packet, FaceId ingress, SimTime now);

  /// Non-blocking submit (single dispatcher thread only). Returns the
  /// worker index, or nullopt when the target ring was full and the packet
  /// was shed: the completion callback fires immediately *on the dispatcher
  /// thread* with DropReason::kOverloadShed and the shed ledger advances. A
  /// router that sheds visibly beats one that stalls silently
  /// (docs/FAULTS.md).
  std::optional<std::size_t> try_submit(std::vector<std::uint8_t> packet,
                                        FaceId ingress, SimTime now);

  /// Packets shed at ingress (all workers).
  [[nodiscard]] std::uint64_t shed_total() const noexcept;

  /// The worker a packet would shard to: RSS hash of the first router-side
  /// FN's sliced field (whole-packet hash when no usable field exists).
  [[nodiscard]] static std::size_t shard_of(std::span<const std::uint8_t> packet,
                                            std::size_t workers) noexcept;

  /// Block until every submitted packet has completed.
  void drain();

  /// Drain, then stop and join all workers. Idempotent; the destructor
  /// calls it.
  void stop();

  [[nodiscard]] std::size_t workers() const noexcept { return workers_.size(); }
  [[nodiscard]] Router& router(std::size_t worker) { return *workers_[worker]->router; }

  /// Aggregated snapshot of every worker's counters (safe while running).
  [[nodiscard]] telemetry::CounterSnapshot counters() const;

  /// A (possibly stale) occupancy estimate of one worker's ingress ring.
  [[nodiscard]] std::size_t queue_depth(std::size_t worker) const noexcept {
    return workers_[worker]->ring.size();
  }

  /// Render the pool's stats page: fleet counters, merged latency
  /// histograms (workers with RouterEnv::stats installed), then per-worker
  /// counter series (`worker` label) and queue depths. Safe while running;
  /// series catalogue in docs/OBSERVABILITY.md.
  void write_stats(telemetry::StatsWriter& w) const;

  /// write_stats as a StatsRegistry section named "router_pool".
  void register_stats(telemetry::StatsRegistry& registry) const;

  /// One-call text exposition of write_stats().
  [[nodiscard]] std::string dump_stats() const;

 private:
  struct Worker {
    explicit Worker(std::size_t ring_capacity) : ring(ring_capacity) {}

    SpscRing<Item> ring;
    std::unique_ptr<Router> router;
    std::size_t index = 0;
    std::size_t wake_threshold = 1;
    std::uint64_t submitted = 0;  ///< dispatcher-side only
    telemetry::RelaxedCounter shed;  ///< ingress sheds (dispatcher bumps)
    std::atomic<std::uint64_t> completed{0};
    std::atomic<bool> parked{false};
    std::mutex m;
    std::condition_variable cv;
    std::thread thread;
  };

  void worker_main(Worker& w);
  static void wake(Worker& w);
  /// Push `item` into w's ring and wake the worker if it parked; false,
  /// leaving `item` intact, when the ring is full (the worker is nudged).
  static bool enqueue(Worker& w, Item& item);
  /// Count + report one ingress shed (dispatcher thread).
  void shed(std::size_t worker, Item& item);

  RouterPoolConfig config_;
  std::atomic<bool> running_{true};
  std::vector<std::unique_ptr<Worker>> workers_;
  Completion on_complete_;
};

}  // namespace dip::core
