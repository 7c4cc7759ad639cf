#include "dip/dtn/mesh_dtn.hpp"

#include <algorithm>

#include "dip/mesh/control.hpp"
#include "dip/netsim/dip_node.hpp"

namespace dip::dtn {

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
    (void)loop.schedule_in(delay, std::move(fn));
  };
  overlays_.reserve(mesh_.size());
  for (std::size_t i = 0; i < mesh_.size(); ++i) {
    mesh::MeshRouter& r = mesh_.router(i);
    r.env().custody_key = config_.custody_key;
    r.env().accept_custody = true;
    overlays_.push_back(std::make_unique<CustodyOverlay>(r.runtime(), overlay, schedule));
  }
  mesh_.set_delivery([this](std::size_t i, std::span<const std::uint8_t> packet,
                            std::uint64_t now) { on_delivery(i, packet, now); });
}

std::uint32_t MeshCustodyFleet::send(std::size_t src, std::size_t dst,
                                     std::span<const std::uint8_t> payload) {
  const std::uint32_t bundle = next_bundle_++;
  const std::size_t per = config_.frag_payload == 0 ? 1 : config_.frag_payload;
  const std::size_t total = payload.empty() ? 1 : (payload.size() + per - 1) / per;
  bundle_times_[bundle] = {mesh_.loop().now_ns(), 0};

  for (std::size_t f = 0; f < total; ++f) {
    CustodyTag tag;
    tag.flags = kCustodyRequest;
    tag.custodian = node_id(src);  // the source router is the initial custodian
    tag.prev_custodian = static_cast<std::uint16_t>(node_id(src));
    tag.bundle_id = bundle;
    tag.chain_digest = chain_mix(0, node_id(src));
    FragInfo frag;
    frag.index = static_cast<std::uint16_t>(f);
    frag.total = static_cast<std::uint16_t>(total);
    frag.bundle_id = bundle;

    const auto header = make_dip32_custody_header(
        mesh::addr_of(node_id(dst)), mesh::addr_of(node_id(src)), tag, frag,
        config_.custody_key, mesh_.router(src).env().mac_kind);
    if (!header) continue;
    mesh::PacketBytes packet = header->serialize();
    const std::size_t off = f * per;
    const std::size_t len =
        std::min(per, payload.size() - std::min(off, payload.size()));
    packet.insert(packet.end(), payload.begin() + static_cast<std::ptrdiff_t>(off),
                  payload.begin() + static_cast<std::ptrdiff_t>(off + len));
    offer(src, frag_key(bundle, frag.index), packet, 0);
  }
  return bundle;
}

void MeshCustodyFleet::offer(std::size_t src, std::uint64_t key,
                             const mesh::PacketBytes& packet, std::uint32_t attempt) {
  // The source router accepts custody of its own injection: its overlay
  // commits the fragment before it ever touches a wire — or refuses it.
  mesh::PacketBytes copy = packet;  // the router rewrites the tag in place
  mesh_.router(src).inject(copy, mesh_.local_face_of(src));
  if (overlays_[src]->store().contains(key)) return;
  if (attempt >= config_.retry.max_retries) {
    ++send_failures_;
    return;
  }
  (void)mesh_.loop().schedule_in(config_.retry.timeout_for(attempt),
                                 [this, src, key, packet, attempt] {
                                   offer(src, key, packet, attempt + 1);
                                 });
}

void MeshCustodyFleet::on_delivery(std::size_t i, std::span<const std::uint8_t> packet,
                                   std::uint64_t now) {
  const auto view = CustodyView::parse(packet);
  if (!view) return;
  mesh::MeshRouter& r = mesh_.router(i);
  const auto tag =
      verify_custody_tag(view->tag_field, config_.custody_key, r.env().mac_kind);
  if (!tag || tag->is_ack()) return;  // forged/corrupt custody plane: ignore

  // Terminal data fragment: ACK the custodian that delivered it (this
  // router), dedup, and assemble. The ACK enters through the local face
  // like any host packet, deferred so the router never re-enters its own
  // verdict path; its overlay consumes it.
  const auto ack = make_custody_ack_header(mesh::addr_of(tag->custodian),
                                           mesh::addr_of(node_id(i)), *tag, view->frag,
                                           config_.custody_key, r.env().mac_kind);
  if (ack) {
    ++delivery_acks_;
    (void)mesh_.loop().schedule_in(0, [this, i, bytes = ack->serialize()]() mutable {
      mesh_.router(i).inject(bytes, mesh_.local_face_of(i));
    });
  }
  const std::uint64_t key = frag_key(tag->bundle_id, view->frag.index);
  if (!rx_frags_.insert(key).second) {
    ++duplicates_;
    return;
  }
  ++fragments_delivered_;
  if (rx_complete_.count(tag->bundle_id) != 0) return;
  RxBundle& rx = rx_pending_[tag->bundle_id];
  if (rx.total == 0) rx.total = view->frag.total;
  rx.got.insert(view->frag.index);
  if (rx.total != 0 && rx.got.size() >= rx.total) {
    rx_complete_.insert(tag->bundle_id);
    rx_pending_.erase(tag->bundle_id);
    if (auto it = bundle_times_.find(tag->bundle_id); it != bundle_times_.end()) {
      it->second.second = now;
    }
  }
}

std::uint64_t MeshCustodyFleet::acks_sent() const noexcept {
  std::uint64_t total = delivery_acks_;
  for (const auto& o : overlays_) total += o->acks_sent();
  return total;
}

std::uint64_t MeshCustodyFleet::custody_drops() const noexcept {
  std::uint64_t total = 0;
  for (const auto& o : overlays_) total += o->custody_drops();
  return total;
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
  w.counter("dip_dtn_fragments_delivered_total", {}, fragments_delivered_);
  w.counter("dip_dtn_duplicate_fragments_total", {}, duplicates_);
  w.counter("dip_dtn_acks_total", {}, acks_sent());
  w.counter("dip_dtn_custody_drops_total", {}, custody_drops());
  w.gauge("dip_dtn_bundles_completed", {}, static_cast<double>(rx_complete_.size()));
}

}  // namespace dip::dtn
