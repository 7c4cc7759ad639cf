#include "dip/host/host_engine.hpp"

namespace dip::host {

Delivery HostEngine::receive(std::span<const std::uint8_t> packet) const {
  Delivery out;
  const auto header = core::DipHeader::parse(packet);
  if (!header) return out;

  out.payload = packet.subspan(header->wire_size());
  out.status = DeliveryStatus::kDelivered;

  for (const core::FnTriple& fn : header->fns) {
    // Telemetry readout is useful on arrival whether tagged or not.
    if (fn.key() == core::OpKey::kTelemetry) {
      const auto range = fn.range();
      if (range.byte_aligned() && bytes::fits(range, header->locations.size())) {
        const auto field = std::span<const std::uint8_t>(header->locations)
                               .subspan(range.bit_offset / 8, range.byte_length());
        if (auto report = telemetry::read_telemetry(field)) {
          out.telemetry = std::move(*report);
        }
      }
      continue;
    }

    if (!fn.host_tagged()) continue;  // router FN: nothing for us

    switch (fn.key()) {
      case core::OpKey::kVer: {
        const auto range = fn.range();
        if (!range.byte_aligned() || !bytes::fits(range, header->locations.size()) ||
            range.bit_length < opt::kBlockBytes * 8) {
          out.status = DeliveryStatus::kMalformed;
          return out;
        }
        const std::size_t block_offset = range.bit_offset / 8;
        // Find the session by the ID carried in the block.
        const crypto::SessionId sid = crypto::block_from(
            std::span<const std::uint8_t>(header->locations)
                .subspan(block_offset + opt::kSessionIdOffset, 16));
        if (sessions_ == nullptr) {
          out.status = DeliveryStatus::kUnknownSession;
          return out;
        }
        const opt::Session* session = sessions_->find(sid);
        if (session == nullptr) {
          out.status = DeliveryStatus::kUnknownSession;
          return out;
        }
        const auto verdict =
            opt::verify_packet(*session, header->locations, out.payload, now_seconds_,
                               freshness_window_, block_offset);
        out.verify_result = verdict;
        if (verdict != opt::VerifyResult::kOk) {
          out.status = DeliveryStatus::kVerifyFailed;
          return out;
        }
        break;
      }
      default:
        // Unknown host operation: per §2.4 semantics, ignore (it is not
        // path-critical once the packet has already arrived).
        break;
    }
  }
  return out;
}

}  // namespace dip::host
