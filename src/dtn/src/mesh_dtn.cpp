#include "dip/dtn/mesh_dtn.hpp"

#include <algorithm>

#include "dip/mesh/control.hpp"
#include "dip/netsim/dip_node.hpp"

namespace dip::dtn {

namespace {

/// Σ fn(item) over a vector of unique_ptrs: the fleet aggregates.
template <typename Items, typename Fn>
std::uint64_t sum(const Items& items, Fn fn) {
  std::uint64_t total = 0;
  for (const auto& item : items) total += fn(*item);
  return total;
}

}  // namespace

struct MeshCustodyFleet::Host {
  /// Router i's local face. A send is injected one loop round later, so an
  /// ACK the host sends from inside its router's delivery never re-enters
  /// that router's verdict path.
  class Port final : public host::HostPort {
   public:
    Port(mesh::MeshNet& mesh, std::size_t i) : mesh_(mesh), i_(i) {}

    void send(std::vector<std::uint8_t> packet) override {
      mesh_.loop().schedule_in(
          0, [&mesh = mesh_, i = i_, bytes = std::move(packet)]() mutable {
            mesh.router(i).inject(bytes, mesh.local_face_of(i));
          });
    }
    void schedule(SimDuration delay, Callback fn) override {
      mesh_.loop().schedule_in(delay, std::move(fn));
    }

   private:
    mesh::MeshNet& mesh_;
    std::size_t i_;
  };

  Host(mesh::MeshNet& mesh, std::size_t i, const BundleSender::Config& sender_config,
       const BundleReceiver::Config& receiver_config,
       BundleReceiver::BundleHandler on_bundle)
      : port(mesh, i),
        sender(port, sender_config),
        receiver(port, receiver_config, std::move(on_bundle)) {}

  Port port;
  BundleSender sender;
  BundleReceiver receiver;
};

std::shared_ptr<core::OpRegistry> MeshCustodyFleet::make_registry() {
  auto registry = netsim::make_default_registry();
  add_custody_modules(*registry);
  return registry;
}

MeshCustodyFleet::MeshCustodyFleet(mesh::MeshNet& mesh, Config config)
    : mesh_(mesh), config_(config) {
  const CustodyOverlay::Config overlay{config_.limits, config_.retry};
  mesh::MeshEventLoop& loop = mesh_.loop();
  const auto schedule = [&loop](SimDuration delay, std::function<void()> fn) {
    loop.schedule_in(delay, std::move(fn));
  };
  const auto on_bundle = [this](std::uint32_t bundle, std::vector<std::uint8_t>) {
    if (const auto it = bundle_times_.find(bundle); it != bundle_times_.end()) {
      it->second.second = mesh_.loop().now_ns();
    }
  };
  overlays_.reserve(mesh_.size());
  hosts_.reserve(mesh_.size());
  for (std::size_t i = 0; i < mesh_.size(); ++i) {
    mesh::MeshRouter& r = mesh_.router(i);
    r.env().custody_key = config_.custody_key;
    r.env().accept_custody = true;
    overlays_.push_back(std::make_unique<CustodyOverlay>(r.runtime(), overlay, schedule));

    // The host keeps its router's id and address.
    BundleSender::Config sender;
    sender.self = mesh::addr_of(node_id(i));
    sender.node_id = node_id(i);
    sender.custody_key = config_.custody_key;
    sender.mac = r.env().mac_kind;
    sender.frag_payload = config_.frag_payload;
    sender.retry = config_.retry;
    BundleReceiver::Config receiver;
    receiver.self = sender.self;
    receiver.custody_key = config_.custody_key;
    receiver.mac = r.env().mac_kind;
    hosts_.push_back(std::make_unique<Host>(mesh_, i, sender, receiver, on_bundle));
  }
  mesh_.set_delivery([this](std::size_t i, std::span<const std::uint8_t> packet,
                            std::uint64_t) {
    Host& host = *hosts_[i];
    if (!host.sender.on_packet(packet)) host.receiver.on_packet(packet);
  });
}

MeshCustodyFleet::~MeshCustodyFleet() = default;

std::uint32_t MeshCustodyFleet::send(std::size_t src, std::size_t dst,
                                     std::span<const std::uint8_t> payload) {
  const std::uint64_t now = mesh_.loop().now_ns();
  const std::uint32_t bundle =
      hosts_.at(src)->sender.send(mesh::addr_of(node_id(dst)), payload);
  bundle_times_[bundle] = {now, 0};
  return bundle;
}

bool MeshCustodyFleet::bundle_complete(std::uint32_t bundle) const {
  return std::ranges::any_of(hosts_,
                             [bundle](const auto& h) { return h->receiver.completed(bundle); });
}

std::size_t MeshCustodyFleet::bundles_completed() const {
  return sum(hosts_, [](const Host& h) { return h.receiver.bundles_completed(); });
}

std::uint64_t MeshCustodyFleet::fragments_delivered() const {
  return sum(hosts_, [](const Host& h) {
    const BundleReceiver& r = h.receiver;
    return r.fragments_received() - r.duplicate_fragments() - r.rejected_fragments();
  });
}

std::uint64_t MeshCustodyFleet::duplicate_fragments() const {
  return sum(hosts_, [](const Host& h) { return h.receiver.duplicate_fragments(); });
}

std::uint64_t MeshCustodyFleet::acks_sent() const {
  return sum(overlays_, [](const CustodyOverlay& o) { return o.acks_sent(); }) +
         sum(hosts_, [](const Host& h) { return h.receiver.acks_sent(); });
}

std::uint64_t MeshCustodyFleet::custody_drops() const {
  return sum(overlays_, [](const CustodyOverlay& o) { return o.custody_drops(); });
}

std::uint64_t MeshCustodyFleet::send_failures() const {
  return sum(hosts_, [](const Host& h) { return h.sender.failures(); });
}

bool MeshCustodyFleet::stores_empty() const {
  for (const auto& o : overlays_) {
    if (o->store().bundles() != 0) return false;
  }
  return true;
}

CustodyStoreStats MeshCustodyFleet::aggregate_store_stats() const {
  CustodyStoreStats total;
  for (const auto& o : overlays_) {
    const CustodyStoreStats& s = o->store().stats();
    total.commits += s.commits;
    total.duplicate_commits += s.duplicate_commits;
    total.refused_full += s.refused_full;
    total.released += s.released;
    total.evicted += s.evicted;
    total.retransmissions += s.retransmissions;
    total.duplicate_acks += s.duplicate_acks;
    total.bytes_high_water += s.bytes_high_water;
    total.bundles_high_water += s.bundles_high_water;
  }
  return total;
}

std::size_t MeshCustodyFleet::store_bytes_high_water() const {
  std::size_t high = 0;
  for (const auto& o : overlays_) {
    high = std::max(high, o->store().stats().bytes_high_water);
  }
  return high;
}

std::pair<std::uint64_t, std::uint64_t> MeshCustodyFleet::bundle_times(
    std::uint32_t bundle) const {
  const auto it = bundle_times_.find(bundle);
  return it == bundle_times_.end() ? std::pair<std::uint64_t, std::uint64_t>{0, 0}
                                   : it->second;
}

void MeshCustodyFleet::write_stats(telemetry::StatsWriter& w) const {
  for (std::size_t i = 0; i < overlays_.size(); ++i) {
    overlays_[i]->store().write_stats(w, node_id(i));
  }
  w.counter("dip_dtn_fragments_delivered_total", {}, fragments_delivered());
  w.counter("dip_dtn_duplicate_fragments_total", {}, duplicate_fragments());
  w.counter("dip_dtn_acks_total", {}, acks_sent());
  w.counter("dip_dtn_custody_drops_total", {}, custody_drops());
  w.gauge("dip_dtn_bundles_completed", {}, static_cast<double>(bundles_completed()));
}

}  // namespace dip::dtn
