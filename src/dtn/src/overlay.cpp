#include "dip/dtn/overlay.hpp"

#include "dip/mesh/control.hpp"

namespace dip::dtn {

std::optional<CustodyView> CustodyView::parse(std::span<const std::uint8_t> packet) {
  auto parsed = core::DipHeader::parse(packet);
  if (!parsed) return std::nullopt;
  CustodyView v;
  v.header = std::move(*parsed);
  const auto cf = find_custody_field(v.header.fns);
  if (!cf) return std::nullopt;
  const std::span<const std::uint8_t> locations(v.header.locations);
  const std::size_t at = cf->bit_offset / 8;
  if (locations.size() < at + kCustodyTagBytes) return std::nullopt;
  v.tag_field = locations.subspan(at, kCustodyTagBytes);
  v.tag = CustodyTag::read(v.tag_field);
  if (const auto ff = find_frag_field(v.header.fns)) {
    const std::size_t fat = ff->bit_offset / 8;
    if (locations.size() >= fat + kFragBytes) {
      v.frag = FragInfo::read(locations.subspan(fat, kFragBytes));
    }
  }
  return v;
}

bool CustodyView::addressed_to(const fib::Ipv4Addr& addr) const {
  const auto dst = dip32_destination(header);
  return dst && *dst == addr;
}

CustodyOverlay::CustodyOverlay(netsim::NodeRuntime& runtime, const Config& config,
                               Scheduler schedule)
    : runtime_(runtime),
      retry_(config.retry),
      schedule_(std::move(schedule)),
      store_(std::make_shared<CustodyStore>(config.limits)) {
  runtime_.env().custody_store = store_;
  runtime_.set_overlay(this);
}

fib::Ipv4Addr CustodyOverlay::address() const noexcept {
  return mesh::addr_of(runtime_.env().node_id);
}

bool CustodyOverlay::consume(netsim::FaceId /*ingress*/,
                             std::span<const std::uint8_t> packet) {
  const auto view = CustodyView::parse(packet);
  if (!view || !view->tag.is_ack()) return false;
  if (!view->addressed_to(address())) return false;  // in transit: route it
  // Terminal ACK: only a MAC-valid tag releases custody — a forged release
  // would strand the bundle as surely as a drop. Duplicate ACKs (chaos
  // links duplicate packets; downstream re-ACKs duplicate commits) find
  // the entry gone and are counted by the store.
  const core::RouterEnv& env = runtime_.env();
  if (const auto tag = verify_custody_tag(view->tag_field, env.custody_key, env.mac_kind)) {
    store_->release(frag_key(tag->bundle_id, view->frag.index));
  } else {
    runtime_.count_drop(core::DropReason::kAuthFailed);
  }
  return true;
}

bool CustodyOverlay::admit(netsim::FaceId ingress, std::span<const std::uint8_t> packet,
                           const core::ProcessResult& result) {
  const core::RouterEnv& env = runtime_.env();
  const SimTime now = runtime_.port().now();
  const auto view = CustodyView::parse(packet);
  // The op only rewrote the tag if the MAC verified; the custodian field
  // naming this node is the acceptance signal.
  const bool accepted = view && env.accept_custody && view->tag.requested() &&
                        !view->tag.is_ack() && view->tag.custodian == env.node_id &&
                        !result.egress.empty();
  if (!accepted) {
    retx_.on_primary(packet.size(), now);  // first-transmission band
    return true;
  }

  const std::uint64_t key = frag_key(view->tag.bundle_id, view->frag.index);
  bool duplicate = false;
  if (store_->commit(key, packet, result.egress[0], now, &duplicate) == nullptr) {
    ++custody_drops_;  // refused: no ACK, no forward — upstream retries
    return false;
  }
  if (view->tag.prev_custodian != static_cast<std::uint16_t>(env.node_id)) {
    const auto ack = make_custody_ack_header(mesh::addr_of(view->tag.prev_custodian),
                                             address(), view->tag, view->frag,
                                             env.custody_key, env.mac_kind);
    if (ack) {
      ++acks_sent_;
      runtime_.port().send(ingress, ack->serialize());
    }
  }
  if (duplicate) {
    // Upstream retransmitted before our ACK landed: re-ACKed above, but a
    // second copy never goes downstream.
    ++custody_drops_;
    return false;
  }
  retx_.on_primary(packet.size(), now);
  arm_retry(key);
  return true;
}

void CustodyOverlay::arm_retry(std::uint64_t key) {
  const CustodyStore::Entry* entry = store_->find(key);
  if (entry == nullptr) return;
  // Backoff per the retry policy, plus the DPS-priced pacing gap: custody
  // retransmissions drain at lower priority than first-transmission traffic.
  const SimDuration delay =
      retry_.timeout_for(entry->attempts) + retx_.gap_for(entry->packet.size());
  const std::uint32_t expected = entry->attempts;
  schedule_(delay, [this, key, expected] { on_retry(key, expected); });
}

void CustodyOverlay::on_retry(std::uint64_t key, std::uint32_t expected_attempts) {
  const CustodyStore::Entry* entry = store_->find(key);
  // Released (ACK arrived) or superseded by a newer timer generation.
  if (entry == nullptr || entry->attempts != expected_attempts) return;
  if (!store_->charge_retransmission(key)) return;  // exhausted: go quiet, stay evictable
  runtime_.port().send(entry->egress, std::span<const std::uint8_t>(entry->packet));
  arm_retry(key);  // attempts advanced, so this timer's generation is fresh
}

void CustodyOverlay::write_stats(telemetry::StatsWriter& w) const {
  const std::uint32_t node = runtime_.env().node_id;
  const std::string node_id = std::to_string(node);
  const telemetry::Label labels[] = {{"node", node_id}};
  store_->write_stats(w, node);
  w.counter("dip_dtn_acks_total", labels, acks_sent_);
  w.counter("dip_dtn_custody_drops_total", labels, custody_drops_);
}

}  // namespace dip::dtn
