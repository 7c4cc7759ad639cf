#include "dip/host/retry.hpp"

namespace dip::host {

ReliableSender::Epoch ReliableSender::send(Key key, PacketFactory factory,
                                           FailureHandler on_failure) {
  const Epoch epoch = next_epoch_++;
  Flight& flight = flights_[key];
  flight = Flight{std::move(factory), std::move(on_failure), epoch, 0};
  port_.send(flight.factory(0));
  arm(key, epoch, 0);
  return epoch;
}

bool ReliableSender::acknowledge(Key key, Epoch epoch) noexcept {
  const auto it = flights_.find(key);
  if (it == flights_.end() || it->second.epoch != epoch) return false;
  flights_.erase(it);
  return true;
}

bool ReliableSender::acknowledge(Key key) noexcept { return flights_.erase(key) != 0; }

void ReliableSender::arm(Key key, Epoch epoch, std::uint32_t attempt) {
  port_.schedule(policy_.timeout_for(attempt),
                 [this, key, epoch] { on_timeout(key, epoch); });
}

void ReliableSender::on_timeout(Key key, Epoch epoch) {
  const auto it = flights_.find(key);
  // Acknowledged, failed, or superseded by a newer send() of the key.
  if (it == flights_.end() || it->second.epoch != epoch) return;
  Flight& flight = it->second;
  if (flight.attempt >= policy_.max_retries) {
    const FailureHandler on_failure = std::move(flight.on_failure);
    flights_.erase(it);
    if (on_failure) on_failure();
    return;
  }
  const std::uint32_t attempt = ++flight.attempt;
  ++retx_;
  port_.send(flight.factory(attempt));
  arm(key, epoch, attempt);
}

}  // namespace dip::host
