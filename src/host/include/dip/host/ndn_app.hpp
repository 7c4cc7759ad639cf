// NDN application endpoints: consumer (expresses interests, retransmits on
// timeout) and producer (serves named content, optionally with OPT tags and
// F_pass labels).
//
// These sit on top of netsim::HostNode and give examples/tests a realistic
// application layer instead of hand-rolled receiver lambdas. The consumer's
// retransmissions run on the shared host::ReliableSender, keyed by name.
#pragma once

#include <functional>
#include <optional>
#include <unordered_map>

#include "dip/host/retry.hpp"
#include "dip/host/session_store.hpp"
#include "dip/opt/opt.hpp"
#include "dip/ndn/ndn.hpp"
#include "dip/netsim/dip_node.hpp"
#include "dip/security/pass.hpp"

namespace dip::host {

class NdnConsumer {
 public:
  /// A fixed 100 ms timeout and three retries.
  static constexpr RetryPolicy kDefaultRetry{3, 100 * kMillisecond, 1.0, 2 * kSecond};

  /// `node` must outlive the consumer and be attached to a network.
  NdnConsumer(netsim::HostNode& node, netsim::FaceId face,
              RetryPolicy retry = kDefaultRetry);

  using DataHandler =
      std::function<void(const fib::Name&, std::span<const std::uint8_t> payload)>;
  using FailureHandler = std::function<void(const fib::Name&)>;

  /// Express an interest; `on_data` fires at most once, `on_failure` fires
  /// after the final retry times out.
  void express_interest(const fib::Name& name, DataHandler on_data,
                        FailureHandler on_failure = {});

  [[nodiscard]] std::size_t pending() const noexcept { return pending_.size(); }
  [[nodiscard]] std::uint64_t retransmissions() const noexcept {
    return retry_.retransmissions();
  }

 private:
  struct PendingInterest {
    fib::Name name;
    DataHandler on_data;
  };

  void on_packet(netsim::FaceId face, netsim::PacketBytes packet, SimTime now);

  NetsimPort port_;
  ReliableSender retry_;  ///< keyed by name code
  std::unordered_map<std::uint32_t, PendingInterest> pending_;
};

/// Producer knobs.
struct ProducerOptions {
  /// Sign data with OPT tags from this session (NDN+OPT, §3).
  std::optional<opt::Session> opt_session;
  std::uint32_t opt_timestamp = 0;
  /// Attach an F_pass label issued under this AS key (§2.4).
  std::optional<crypto::Block> pass_key;
};

class NdnProducer {
 public:
  using Options = ProducerOptions;

  NdnProducer(netsim::HostNode& node, netsim::FaceId face,
              Options options = ProducerOptions());

  /// Serve `payload` under `name`.
  void publish(const fib::Name& name, std::vector<std::uint8_t> payload);

  [[nodiscard]] std::uint64_t interests_served() const noexcept { return served_; }
  [[nodiscard]] std::uint64_t interests_unknown() const noexcept { return unknown_; }

 private:
  void on_packet(netsim::FaceId face, netsim::PacketBytes packet, SimTime now);
  [[nodiscard]] netsim::PacketBytes make_data(std::uint32_t code,
                                              std::span<const std::uint8_t> payload) const;

  netsim::HostNode& node_;
  netsim::FaceId face_;
  Options options_;
  std::unordered_map<std::uint32_t, std::vector<std::uint8_t>> content_;
  std::uint64_t served_ = 0;
  std::uint64_t unknown_ = 0;
};

}  // namespace dip::host
