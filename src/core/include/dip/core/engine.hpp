// RouterEngine — a uniform seam over the three production packet paths.
//
// The conformance harness (tests/conformance_test.cpp) must drive the same
// packet stream through Router::process (scalar), Router::process_batch
// (burst) and RouterPool (sharded workers) and compare every verdict and
// every rewritten byte against the executable-spec reference model. This
// header gives those three paths one shape: feed N packets with per-packet
// timestamps/ingress faces, get N verdicts back, packets mutated in place.
//
// It is a test seam, not a data path: no hot-loop code moves through here.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "dip/core/env.hpp"
#include "dip/core/registry.hpp"
#include "dip/core/router.hpp"

namespace dip::core {

/// Builds worker i's environment (the pool engine calls it once per worker;
/// scalar/batch engines call it once with i = 0). Hand every worker the same
/// shared_ptr tables to model one router with sharded cores.
using EnvFactory = std::function<RouterEnv(std::size_t)>;

struct EngineConfig {
  /// Burst size for the batch and pool paths. Callers must keep the
  /// per-packet `nows`/`ingresses` constant within each batch_size-aligned
  /// block of the stream: a burst is processed with its first packet's
  /// timestamp and ingress face.
  std::size_t batch_size = 32;
  /// Pool engine workers; their rings have RouterPoolConfig's default
  /// capacity.
  std::size_t pool_workers = 4;
  ValidationMode validation = ValidationMode::kStrict;
};

class RouterEngine {
 public:
  virtual ~RouterEngine() = default;

  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  /// Process the whole stream in order; returns one verdict per packet.
  /// Packets are mutated in place (hop limit, checksum, tag fields) exactly
  /// as the underlying path rewrites them. `nows.size()` and
  /// `ingresses.size()` must equal `packets.size()`.
  virtual std::vector<ProcessResult> run(std::span<std::vector<std::uint8_t>> packets,
                                         std::span<const SimTime> nows,
                                         std::span<const FaceId> ingresses) = 0;
};

/// Router::process, one packet at a time.
[[nodiscard]] std::unique_ptr<RouterEngine> make_scalar_engine(
    const OpRegistry* registry, const EnvFactory& env_factory, EngineConfig config = {});

/// Router::process_batch over batch_size-aligned bursts.
[[nodiscard]] std::unique_ptr<RouterEngine> make_batch_engine(
    const OpRegistry* registry, const EnvFactory& env_factory, EngineConfig config = {});

/// RouterPool with pool_workers flow-affine workers. Each run() builds a
/// fresh pool, submits the stream in order, stops it, and maps completions
/// back to stream order via RouterPool::shard_of (per-worker FIFO order is
/// guaranteed by the SPSC rings).
[[nodiscard]] std::unique_ptr<RouterEngine> make_pool_engine(
    const OpRegistry* registry, const EnvFactory& env_factory, EngineConfig config = {});

}  // namespace dip::core
