#include "dip/core/engine.hpp"

#include <cassert>
#include <deque>
#include <mutex>
#include <utility>

#include "dip/core/router_pool.hpp"

namespace dip::core {

namespace {

class ScalarEngine final : public RouterEngine {
 public:
  ScalarEngine(const OpRegistry* registry, const EnvFactory& env_factory,
               EngineConfig config)
      : router_(env_factory(0), registry) {
    router_.set_validation(config.validation);
  }

  [[nodiscard]] std::string_view name() const noexcept override { return "scalar"; }

  std::vector<ProcessResult> run(std::span<std::vector<std::uint8_t>> packets,
                                 std::span<const SimTime> nows,
                                 std::span<const FaceId> ingresses) override {
    assert(nows.size() == packets.size() && ingresses.size() == packets.size());
    std::vector<ProcessResult> results;
    results.reserve(packets.size());
    for (std::size_t i = 0; i < packets.size(); ++i) {
      results.push_back(router_.process(packets[i], ingresses[i], nows[i]));
    }
    return results;
  }

 private:
  Router router_;
};

class BatchEngine final : public RouterEngine {
 public:
  BatchEngine(const OpRegistry* registry, const EnvFactory& env_factory,
              EngineConfig config)
      : router_(env_factory(0), registry),
        batch_size_(config.batch_size == 0 ? 1 : config.batch_size) {
    router_.set_validation(config.validation);
  }

  [[nodiscard]] std::string_view name() const noexcept override { return "batch"; }

  std::vector<ProcessResult> run(std::span<std::vector<std::uint8_t>> packets,
                                 std::span<const SimTime> nows,
                                 std::span<const FaceId> ingresses) override {
    assert(nows.size() == packets.size() && ingresses.size() == packets.size());
    std::vector<ProcessResult> results(packets.size());
    std::vector<PacketRef> refs;
    for (std::size_t pos = 0; pos < packets.size(); pos += batch_size_) {
      const std::size_t n = std::min(batch_size_, packets.size() - pos);
      refs.assign(packets.begin() + static_cast<std::ptrdiff_t>(pos),
                  packets.begin() + static_cast<std::ptrdiff_t>(pos + n));
      // Burst semantics: the whole burst shares its first packet's clock
      // and ingress face (see EngineConfig::batch_size contract).
      router_.process_batch(refs, ingresses[pos], nows[pos],
                            std::span<ProcessResult>(results).subspan(pos, n));
    }
    return results;
  }

 private:
  Router router_;
  std::size_t batch_size_;
};

class PoolEngine final : public RouterEngine {
 public:
  PoolEngine(const OpRegistry* registry, const EnvFactory& env_factory,
             EngineConfig config)
      : registry_(registry), env_factory_(env_factory), config_(config) {}

  [[nodiscard]] std::string_view name() const noexcept override { return "pool"; }

  std::vector<ProcessResult> run(std::span<std::vector<std::uint8_t>> packets,
                                 std::span<const SimTime> nows,
                                 std::span<const FaceId> ingresses) override {
    assert(nows.size() == packets.size() && ingresses.size() == packets.size());
    const std::size_t workers = config_.pool_workers == 0 ? 1 : config_.pool_workers;

    // Flow-affine sharding is a pure function of the submitted bytes, and
    // each worker completes its packets in submission order (SPSC ring), so
    // the stream index of every completion is known up front.
    std::vector<std::deque<std::size_t>> expected(workers);
    for (std::size_t i = 0; i < packets.size(); ++i) {
      expected[RouterPool::shard_of(packets[i], workers)].push_back(i);
    }

    std::vector<ProcessResult> results(packets.size());
    std::mutex mu;
    RouterPoolConfig pool_config;
    pool_config.workers = workers;
    pool_config.max_batch = config_.batch_size;
    RouterPool pool(
        registry_, env_factory_, pool_config,
        [&](std::size_t worker, RouterPool::Item& item, ProcessResult& result) {
          const std::lock_guard<std::mutex> lock(mu);
          const std::size_t idx = expected[worker].front();
          expected[worker].pop_front();
          results[idx] = result;
          // Hand the rewritten bytes back so the harness can compare them.
          packets[idx] = std::move(item.packet);
        });
    for (std::size_t w = 0; w < workers; ++w) {
      pool.router(w).set_validation(config_.validation);
    }
    for (std::size_t i = 0; i < packets.size(); ++i) {
      pool.submit(packets[i], ingresses[i], nows[i]);
    }
    pool.stop();
    return results;
  }

 private:
  const OpRegistry* registry_;
  EnvFactory env_factory_;
  EngineConfig config_;
};

}  // namespace

std::unique_ptr<RouterEngine> make_scalar_engine(const OpRegistry* registry,
                                                 const EnvFactory& env_factory,
                                                 EngineConfig config) {
  return std::make_unique<ScalarEngine>(registry, env_factory, config);
}

std::unique_ptr<RouterEngine> make_batch_engine(const OpRegistry* registry,
                                                const EnvFactory& env_factory,
                                                EngineConfig config) {
  return std::make_unique<BatchEngine>(registry, env_factory, config);
}

std::unique_ptr<RouterEngine> make_pool_engine(const OpRegistry* registry,
                                               const EnvFactory& env_factory,
                                               EngineConfig config) {
  return std::make_unique<PoolEngine>(registry, env_factory, config);
}

}  // namespace dip::core
