// Host-side packet processing — the other half of Algorithm 1.
//
// Routers skip host-tagged FNs (tag bit = 1); hosts run exactly those.
// "Finally, the host receives and verifies the packet by performing F_ver"
// (§2.3). HostEngine walks the FN list of a received packet, executes the
// host-tagged operations it knows (F_ver against the session store, F_int
// telemetry readout), and reports a delivery verdict plus the payload.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "dip/core/header.hpp"
#include "dip/host/session_store.hpp"
#include "dip/opt/opt.hpp"
#include "dip/telemetry/telemetry.hpp"

namespace dip::host {

enum class DeliveryStatus : std::uint8_t {
  kDelivered,      ///< all host FNs passed; payload is good
  kVerifyFailed,   ///< F_ver rejected the packet
  kUnknownSession, ///< F_ver present but no session negotiated for it
  kMalformed,
};

struct Delivery {
  DeliveryStatus status = DeliveryStatus::kMalformed;
  /// Payload bytes (views into the caller's packet).
  std::span<const std::uint8_t> payload;
  /// Set when F_ver ran: the detailed OPT verdict.
  std::optional<opt::VerifyResult> verify_result;
  /// Set when an F_int field was present: the collected per-hop records.
  std::optional<telemetry::TelemetryReport> telemetry;
};

class HostEngine {
 public:
  explicit HostEngine(SessionStore* sessions = nullptr) : sessions_(sessions) {}

  /// Freshness window for F_ver timestamps (0 = disabled).
  void set_freshness(std::uint32_t now_seconds, std::uint32_t window) {
    now_seconds_ = now_seconds;
    freshness_window_ = window;
  }

  /// Process a received DIP packet: parse, run host-tagged FNs, deliver.
  /// The returned spans alias `packet`.
  [[nodiscard]] Delivery receive(std::span<const std::uint8_t> packet) const;

 private:
  SessionStore* sessions_;
  std::uint32_t now_seconds_ = 0;
  std::uint32_t freshness_window_ = 0;
};

}  // namespace dip::host
