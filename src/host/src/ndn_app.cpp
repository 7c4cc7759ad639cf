#include "dip/host/ndn_app.hpp"

#include "dip/core/builder.hpp"

namespace dip::host {

// ---------- consumer ----------

NdnConsumer::NdnConsumer(netsim::HostNode& node, netsim::FaceId face, RetryPolicy retry)
    : port_(node, face), retry_(port_, retry) {
  node.set_receiver([this](netsim::FaceId f, netsim::PacketBytes p, SimTime now) {
    on_packet(f, std::move(p), now);
  });
}

void NdnConsumer::express_interest(const fib::Name& name, DataHandler on_data,
                                   FailureHandler on_failure) {
  const std::uint32_t code = ndn::encode_name32(name);
  pending_[code] = PendingInterest{name, std::move(on_data)};
  retry_.send(
      code,
      [code](std::uint32_t) { return ndn::make_interest_header32(code)->serialize(); },
      [this, code, on_failure = std::move(on_failure)] {
        const auto it = pending_.find(code);
        if (it == pending_.end()) return;
        const fib::Name failed = std::move(it->second.name);
        pending_.erase(it);
        if (on_failure) on_failure(failed);
      });
}

void NdnConsumer::on_packet(netsim::FaceId, netsim::PacketBytes packet, SimTime) {
  const auto header = core::DipHeader::parse(packet);
  if (!header || header->fns.empty()) return;
  if (header->fns[0].key() != core::OpKey::kPit) return;  // not a data packet
  const auto code = ndn::extract_name_code(*header);
  if (!code) return;

  const auto it = pending_.find(static_cast<std::uint32_t>(*code));
  if (it == pending_.end()) return;  // unsolicited / already satisfied

  retry_.acknowledge(it->first);
  const auto on_data = std::move(it->second.on_data);
  const fib::Name name = it->second.name;
  pending_.erase(it);
  if (on_data) {
    on_data(name,
            std::span<const std::uint8_t>(packet).subspan(header->wire_size()));
  }
}

// ---------- producer ----------

NdnProducer::NdnProducer(netsim::HostNode& node, netsim::FaceId face, Options options)
    : node_(node), face_(face), options_(std::move(options)) {
  node_.set_receiver([this](netsim::FaceId f, netsim::PacketBytes p, SimTime now) {
    on_packet(f, std::move(p), now);
  });
}

void NdnProducer::publish(const fib::Name& name, std::vector<std::uint8_t> payload) {
  content_[ndn::encode_name32(name)] = std::move(payload);
}

netsim::PacketBytes NdnProducer::make_data(
    std::uint32_t code, std::span<const std::uint8_t> payload) const {
  if (options_.opt_session) {
    // NDN+OPT data (§3): tags over the payload, name behind the OPT block.
    const auto header = opt::make_ndn_opt_header(
        code, /*interest=*/false, *options_.opt_session, payload,
        options_.opt_timestamp);
    auto wire = header->serialize();
    wire.insert(wire.end(), payload.begin(), payload.end());
    return wire;
  }

  core::HeaderBuilder b;
  if (options_.pass_key) {
    const crypto::Block label = security::issue_label(*options_.pass_key, payload);
    b.add_router_fn(core::OpKey::kPass, label);
  }
  b.add_router_fn(core::OpKey::kPit, fib::ipv4_from_u32(code).bytes);
  auto wire = b.build()->serialize();
  wire.insert(wire.end(), payload.begin(), payload.end());
  return wire;
}

void NdnProducer::on_packet(netsim::FaceId face, netsim::PacketBytes packet, SimTime) {
  const auto header = core::DipHeader::parse(packet);
  if (!header || header->fns.empty()) return;
  if (header->fns[0].key() != core::OpKey::kFib) return;  // not an interest
  const auto code = ndn::extract_name_code(*header);
  if (!code) return;

  const auto it = content_.find(static_cast<std::uint32_t>(*code));
  if (it == content_.end()) {
    ++unknown_;
    return;
  }
  ++served_;
  node_.send(face, make_data(static_cast<std::uint32_t>(*code), it->second));
}

}  // namespace dip::host
