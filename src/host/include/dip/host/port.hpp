// HostPort — what a host endpoint needs from its substrate.
//
// The host endpoints (host::ReliableSender, dtn::BundleSender,
// dtn::BundleReceiver) send packets into their attachment router and arm
// retransmission timers; they never touch links, sockets or a particular
// event loop. A substrate adapts them through this port, the host-side twin
// of netsim::NodePort:
//
//   host::NetsimPort        ── HostNode::send on one face, the Network's loop
//   dtn::MeshCustodyFleet   ── router i's local face one loop round later,
//                              the MeshEventLoop's timers
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "dip/bytes/time.hpp"
#include "dip/netsim/dip_node.hpp"

namespace dip::host {

class HostPort {
 public:
  using Callback = std::function<void()>;

  /// Transmit `packet` toward the host's attachment router.
  virtual void send(std::vector<std::uint8_t> packet) = 0;
  /// Run `fn` after `delay` on the substrate's event loop.
  virtual void schedule(SimDuration delay, Callback fn) = 0;

 protected:
  ~HostPort() = default;
};

/// A netsim host's port: one face of a HostNode attached to a Network.
class NetsimPort final : public HostPort {
 public:
  /// `node` must outlive the port and be attached to a network.
  NetsimPort(netsim::HostNode& node, netsim::FaceId face) : node_(node), face_(face) {}

  void send(std::vector<std::uint8_t> packet) override {
    node_.send(face_, std::move(packet));
  }
  void schedule(SimDuration delay, Callback fn) override {
    node_.network()->loop().schedule_in(delay, std::move(fn));
  }

 private:
  netsim::HostNode& node_;
  netsim::FaceId face_;
};

}  // namespace dip::host
