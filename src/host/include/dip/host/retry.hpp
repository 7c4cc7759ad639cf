// Host-side retransmission: a timeout/backoff policy and the keyed
// retransmitter every host endpoint shares, over a HostPort (port.hpp).
//
// Chaos links (netsim FaultPlan) drop, corrupt, and blackhole packets; the
// network layer only promises best effort, so host sessions that need an
// answer — OPT-verified requests, NDN interests, bundle fragments awaiting
// their first custodian — must retransmit. The policy is deliberately
// tiny: a retry budget and an exponentially backed off timeout with a
// ceiling, driven entirely by the substrate's event loop so recovery
// behaviour replays deterministically with the fault trace.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "dip/bytes/time.hpp"
#include "dip/host/port.hpp"

namespace dip::host {

/// Timeout/backoff schedule of a ReliableSender.
struct RetryPolicy {
  std::uint32_t max_retries = 3;
  SimDuration initial_timeout = 100 * kMillisecond;
  /// Timeout multiplier per attempt (1.0 = fixed interval).
  double backoff = 2.0;
  /// Ceiling for the backed-off timeout.
  SimDuration max_timeout = 2 * kSecond;

  /// The timeout armed after transmission `attempt` (0 = the original).
  [[nodiscard]] SimDuration timeout_for(std::uint32_t attempt) const noexcept {
    const double cap = static_cast<double>(max_timeout);
    double t = static_cast<double>(initial_timeout);
    for (std::uint32_t i = 0; i < attempt && t < cap; ++i) t *= backoff;
    return t < cap ? static_cast<SimDuration>(t) : max_timeout;
  }
};

/// The one host retransmitter: resends keyed requests until each is
/// acknowledged or its retry budget runs out. Keys name requests (an NDN
/// name code, a fragment's frag_key, ...), so many can be in flight at once,
/// each with its own attempt count, timer and epoch, and a key's state is
/// dropped on its ACK or its final failure. The caller keeps ownership of
/// the response matching (HostNode receiver, OPT verification, custody
/// ACKs, ...) and calls acknowledge() when satisfied; the factory is
/// re-invoked per attempt so retransmissions can refresh timestamps or
/// sequence numbers.
class ReliableSender {
 public:
  using Key = std::uint64_t;
  using PacketFactory = std::function<std::vector<std::uint8_t>(std::uint32_t attempt)>;
  using FailureHandler = std::function<void()>;
  /// Opaque token naming one send(); never reused by a sender.
  using Epoch = std::uint64_t;

  /// `port` must outlive the sender, and the sender its armed timers (they
  /// call back into it).
  explicit ReliableSender(HostPort& port, RetryPolicy policy = {})
      : port_(port), policy_(policy) {}
  ReliableSender(const ReliableSender&) = delete;
  ReliableSender& operator=(const ReliableSender&) = delete;

  /// Transmit factory(0) for `key` now; retransmit on each timeout until
  /// acknowledged, then give up after max_retries, drop the key and fire
  /// `on_failure`. A send() of a key still in flight supersedes its request.
  /// Returns the epoch token for acknowledging this request.
  Epoch send(Key key, PacketFactory factory, FailureHandler on_failure = {});

  /// The response for `key`'s request `epoch` arrived; cancel its
  /// retransmission. A stale token — e.g. a link-duplicated ACK of a request
  /// the key has since been re-sent under — is ignored, so a late duplicate
  /// can never cancel a newer in-flight send. Returns true iff this call
  /// retired the request.
  bool acknowledge(Key key, Epoch epoch) noexcept;
  /// For responses that name only the key (NDN data, custody ACKs): retire
  /// whatever request is in flight for `key`.
  bool acknowledge(Key key) noexcept;

  [[nodiscard]] bool pending(Key key) const noexcept { return flights_.contains(key); }
  /// Keys awaiting acknowledgement.
  [[nodiscard]] std::size_t in_flight() const noexcept { return flights_.size(); }
  [[nodiscard]] std::uint64_t retransmissions() const noexcept { return retx_; }

 private:
  struct Flight {
    PacketFactory factory;
    FailureHandler on_failure;
    Epoch epoch = 0;
    std::uint32_t attempt = 0;  ///< transmissions so far minus one
  };

  void arm(Key key, Epoch epoch, std::uint32_t attempt);
  void on_timeout(Key key, Epoch epoch);

  HostPort& port_;
  RetryPolicy policy_;
  std::unordered_map<Key, Flight> flights_;
  Epoch next_epoch_ = 1;
  std::uint64_t retx_ = 0;
};

}  // namespace dip::host
