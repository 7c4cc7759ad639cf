#include "dip/dtn/bundle.hpp"

#include <algorithm>

#include "dip/dtn/overlay.hpp"
#include "dip/mesh/control.hpp"

namespace dip::dtn {

std::uint32_t BundleSender::send(const fib::Ipv4Addr& dst,
                                 std::span<const std::uint8_t> payload) {
  const std::uint32_t bundle = (config_.node_id << 16) | next_sequence_++;
  const std::size_t per = config_.frag_payload == 0 ? 1 : config_.frag_payload;
  const std::size_t total =
      payload.empty() ? 1 : (payload.size() + per - 1) / per;

  for (std::size_t i = 0; i < total; ++i) {
    FragInfo frag;
    frag.index = static_cast<std::uint16_t>(i);
    frag.total = static_cast<std::uint16_t>(total);
    frag.bundle_id = bundle;
    const std::size_t off = std::min(i * per, payload.size());
    const std::size_t len = std::min(per, payload.size() - off);
    // The bytes are the same on every attempt; retry_ drops them with the
    // fragment's state on its ACK or final failure.
    retry_.send(
        frag_key(bundle, frag.index),
        [packet = build_packet(dst, frag, payload.subspan(off, len))](std::uint32_t) {
          return packet;
        },
        [this] { ++failures_; });
  }
  return bundle;
}

std::vector<std::uint8_t> BundleSender::build_packet(
    const fib::Ipv4Addr& dst, const FragInfo& frag,
    std::span<const std::uint8_t> payload) const {
  CustodyTag tag;
  tag.flags = kCustodyRequest;
  tag.chain_len = 0;
  tag.bundle_id = frag.bundle_id;
  tag.custodian = config_.node_id;  // the sender is the initial custodian
  tag.chain_digest = chain_mix(0, config_.node_id);
  const auto header = make_dip32_custody_header(dst, config_.self, tag, frag,
                                                config_.custody_key, config_.mac,
                                                config_.hop_limit);
  if (!header) return {};
  std::vector<std::uint8_t> packet = header->serialize();
  packet.insert(packet.end(), payload.begin(), payload.end());
  return packet;
}

bool BundleSender::on_packet(std::span<const std::uint8_t> packet) {
  const auto view = CustodyView::parse(packet);
  if (!view) return false;
  if (!view->tag.is_ack()) return false;
  if (!view->addressed_to(config_.self)) return false;
  const auto tag =
      verify_custody_tag(view->tag_field, config_.custody_key, config_.mac);
  if (!tag) return true;  // forged/corrupt ACK: consumed, ignored
  // A duplicate ACK finds the fragment already retired.
  if (retry_.acknowledge(frag_key(tag->bundle_id, view->frag.index))) ++committed_;
  return true;
}

bool BundleReceiver::on_packet(std::span<const std::uint8_t> packet) {
  const auto view = CustodyView::parse(packet);
  if (!view) return false;
  if (view->tag.is_ack()) return false;  // custody ACKs are sender business
  if (!view->addressed_to(config_.self)) return false;

  ++fragments_;
  const auto tag =
      verify_custody_tag(view->tag_field, config_.custody_key, config_.mac);
  if (!tag) {
    // A fragment whose custody chain fails the MAC is never ACKed: the
    // custodian keeps it and retries, eventually with a clean copy.
    ++rejected_;
    return true;
  }
  const FragInfo frag = view->frag;
  if (frag.total == 0 || frag.index >= frag.total) {
    ++rejected_;
    return true;
  }

  if (completed_.count(frag.bundle_id) != 0) {
    // The bundle already assembled; the custodian missed our ACK — re-ACK.
    ++duplicates_;
    send_ack(*tag, frag);
    return true;
  }

  auto [it, created] = pending_.try_emplace(frag.bundle_id);
  Pending& bundle = it->second;
  if (created) bundle.total = frag.total;
  if (bundle.poisoned) {
    ++rejected_;
    return true;
  }
  if (frag.total != bundle.total) {
    // Geometry conflict: this fragment cannot belong to the bundle we have
    // been assembling.
    ++rejected_;
    if (config_.strict) {
      bundle.poisoned = true;
      bundle.frags.clear();
      ++poisoned_;
    }
    return true;  // lenient: first-seen geometry wins, fragment quarantined
  }
  if (bundle.frags.count(frag.index) != 0) {
    ++duplicates_;
    send_ack(*tag, frag);  // the custodian is retrying: it missed the ACK
    return true;
  }

  const std::size_t header_size = view->header.wire_size();
  bundle.frags.emplace(frag.index,
                       std::vector<std::uint8_t>(packet.begin() +
                                                     static_cast<std::ptrdiff_t>(
                                                         std::min(header_size,
                                                                  packet.size())),
                                                 packet.end()));
  send_ack(*tag, frag);

  if (bundle.frags.size() == bundle.total) {
    std::vector<std::uint8_t> payload;
    for (auto& [index, piece] : bundle.frags) {
      payload.insert(payload.end(), piece.begin(), piece.end());
    }
    completed_.insert(frag.bundle_id);
    pending_.erase(it);
    if (handler_) handler_(frag.bundle_id, std::move(payload));
  }
  return true;
}

void BundleReceiver::send_ack(const CustodyTag& tag, const FragInfo& frag) {
  const auto ack =
      make_custody_ack_header(mesh::addr_of(tag.custodian), config_.self, tag, frag,
                              config_.custody_key, config_.mac);
  if (!ack) return;
  ++acks_;
  port_.send(ack->serialize());
}

}  // namespace dip::dtn
