// Simulated node types: DIP router, host, and the default module stack.
#pragma once

#include <functional>
#include <memory>

#include "dip/core/registry.hpp"
#include "dip/core/router.hpp"
#include "dip/netsim/network.hpp"
#include "dip/netsim/runtime.hpp"
#include "dip/telemetry/exposition.hpp"

namespace dip::netsim {

/// An OpRegistry with every operation module this repo implements (the
/// "pre-written modules" of §4.1): IP match/source, NDN FIB/PIT, OPT
/// parm/MAC/mark, XIA DAG/intent, F_pass, F_int.
[[nodiscard]] std::shared_ptr<core::OpRegistry> make_default_registry();

/// A DIP-capable router node: the shared NodeRuntime (runtime.hpp) plumbed
/// into the simulator — the runtime's port sends on simulated links.
class DipRouterNode : public Node, private NodePort {
 public:
  DipRouterNode(core::RouterEnv env, std::shared_ptr<const core::OpRegistry> registry)
      : runtime_(*this, std::move(env), std::move(registry)) {}

  void on_packet(FaceId face, PacketBytes packet, SimTime now) override {
    runtime_.process(face, packet, now, &packet);
  }

  [[nodiscard]] NodeRuntime& runtime() noexcept { return runtime_; }
  [[nodiscard]] const NodeRuntime& runtime() const noexcept { return runtime_; }
  [[nodiscard]] core::Router& router() noexcept { return runtime_.router(); }
  [[nodiscard]] core::RouterEnv& env() noexcept { return runtime_.env(); }

  /// Per-drop-reason counters (observability for tests/examples).
  [[nodiscard]] std::uint64_t drops(core::DropReason reason) const {
    return runtime_.drops(reason);
  }

  /// Render this node's stats: router counters and (when RouterEnv::stats
  /// is installed) latency histograms, all labelled node="<node_id>", plus
  /// dip_node_drops_total{reason=...} from the verdict ledger. Catalogue in
  /// docs/OBSERVABILITY.md.
  virtual void write_stats(telemetry::StatsWriter& w) const;

 private:
  void send(FaceId face, std::span<const std::uint8_t> packet) override {
    network()->send(*this, face, PacketBytes(packet.begin(), packet.end()));
  }
  void send(FaceId face, PacketBytes&& packet) override {
    network()->send(*this, face, std::move(packet));
  }
  [[nodiscard]] SimTime now() const override { return network()->now(); }

  NodeRuntime runtime_;
};

/// A host endpoint: delivers received packets to a callback and can send.
class HostNode final : public Node {
 public:
  using Receiver = std::function<void(FaceId, PacketBytes, SimTime)>;

  explicit HostNode(Receiver receiver = {}) : receiver_(std::move(receiver)) {}

  void set_receiver(Receiver r) { receiver_ = std::move(r); }

  void on_packet(FaceId face, PacketBytes packet, SimTime now) override {
    ++received_;
    if (receiver_) receiver_(face, std::move(packet), now);
  }

  /// Transmit a packet out of `face`.
  void send(FaceId face, PacketBytes packet) {
    network()->send(*this, face, std::move(packet));
  }

  [[nodiscard]] std::uint64_t received() const noexcept { return received_; }

 private:
  Receiver receiver_;
  std::uint64_t received_ = 0;
};

}  // namespace dip::netsim
