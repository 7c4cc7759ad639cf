#include "dip/netsim/runtime.hpp"

#include "dip/core/header.hpp"
#include "dip/ndn/ndn.hpp"
#include "dip/security/error_message.hpp"

namespace dip::netsim {

NodeRuntime::NodeRuntime(NodePort& port, core::RouterEnv env,
                         std::shared_ptr<const core::OpRegistry> registry)
    : port_(port), registry_(std::move(registry)), router_(std::move(env), registry_.get()) {}

void NodeRuntime::process(FaceId ingress, std::span<std::uint8_t> packet, SimTime now,
                          PacketBytes* owned) {
  if (overlay_ != nullptr && overlay_->consume(ingress, packet)) return;
  const core::ProcessResult result = router_.process(packet, ingress, now);
  apply_verdict(ingress, packet, owned, result);
}

void NodeRuntime::enqueue(FaceId ingress, std::span<const std::uint8_t> packet) {
  if (overlay_ != nullptr && overlay_->consume(ingress, packet)) return;
  Bucket* bucket = nullptr;
  for (Bucket& b : buckets_) {
    if (b.face == ingress) bucket = &b;
  }
  if (bucket == nullptr) {
    buckets_.push_back({ingress, {}, 0});
    bucket = &buckets_.back();
  }
  if (bucket->count < bucket->packets.size()) {
    bucket->packets[bucket->count].assign(packet.begin(), packet.end());
  } else {
    bucket->packets.emplace_back(packet.begin(), packet.end());
  }
  ++bucket->count;
}

void NodeRuntime::flush(SimTime now) {
  std::size_t drained = 0;
  for (const Bucket& bucket : buckets_) drained += bucket.count;
  if (drained == 0) return;
  for (Bucket& bucket : buckets_) {
    // The bound (see Bucket): at most twice this drain's packets stay.
    if (bucket.packets.size() > 2 * drained) bucket.packets.resize(2 * drained);
    if (bucket.count == 0) continue;
    const std::size_t n = bucket.count;
    const auto burst = std::span(bucket.packets).first(n);
    burst_refs_.assign(burst.begin(), burst.end());
    burst_results_.resize(n);
    router_.process_batch(burst_refs_, bucket.face, now, burst_results_);
    for (std::size_t i = 0; i < n; ++i) {
      apply_verdict(bucket.face, burst[i], &burst[i], burst_results_[i]);
    }
    bucket.count = 0;
  }
}

void NodeRuntime::apply_verdict(FaceId ingress, std::span<std::uint8_t> packet,
                                PacketBytes* owned, const core::ProcessResult& result) {
  switch (result.action) {
    case core::Action::kForward: {
      if (result.respond_from_cache) {
        respond_from_cache(packet, ingress);
        return;
      }
      if (overlay_ != nullptr && !overlay_->admit(ingress, packet, result)) return;
      // Replicate to every egress face (NDN data fan-out is >1); the last
      // copy takes the buffer when the caller owns one.
      for (std::size_t i = 0; i < result.egress.size(); ++i) {
        if (owned != nullptr && i + 1 == result.egress.size()) {
          port_.send(result.egress[i], std::move(*owned));
        } else {
          port_.send(result.egress[i], std::span<const std::uint8_t>(packet));
        }
      }
      return;
    }
    case core::Action::kDrop:
      count_drop(result.reason);
      return;
    case core::Action::kError:
      count_drop(result.reason);
      emit_error(packet, result.offending_key, ingress);
      return;
  }
}

void NodeRuntime::emit_error(std::span<const std::uint8_t> original,
                             core::OpKey offending, FaceId ingress) {
  // §2.4: notify the source through a mechanism similar to ICMP. The
  // notification leaves through the face the offending packet arrived on —
  // the reverse path, as ICMP would.
  const auto header = core::DipHeader::parse(original);
  if (!header) return;
  auto notification =
      security::make_fn_unsupported_packet(*header, offending, env().node_id);
  if (!notification) return;  // no F_source: nobody to notify
  port_.send(ingress, std::move(*notification));
}

void NodeRuntime::respond_from_cache(std::span<const std::uint8_t> interest,
                                     FaceId ingress) {
  // Footnote 2: a caching node answers the interest itself. Synthesize the
  // data packet from the content store and send it back out the ingress.
  auto& store = env().content_store;
  if (!store) return;
  const auto header = core::DipHeader::parse(interest);
  if (!header) return;
  const auto name_code = ndn::extract_name_code(*header);
  if (!name_code) return;
  const auto payload = store->lookup(*name_code);
  if (!payload) return;
  const auto data_header = ndn::make_data_header32(*name_code, core::NextHeader::kNone);
  if (!data_header) return;
  PacketBytes data = data_header->serialize();
  data.insert(data.end(), payload->begin(), payload->end());
  port_.send(ingress, std::move(data));
}

void NodeRuntime::write_router_stats(telemetry::StatsWriter& w) const {
  const std::string node_id = std::to_string(env().node_id);
  const telemetry::Label labels[] = {{"node", node_id}};
  const auto namer = [](std::size_t slot) {
    return core::op_key_name(static_cast<core::OpKey>(slot));
  };
  telemetry::write_counter_snapshot(w, env().counters.snapshot(), labels, +namer);
  if (const telemetry::RouterStats* stats = env().stats.get()) {
    telemetry::write_router_stats(w, stats->snapshot(), labels, +namer);
  }
}

void NodeRuntime::write_drops(telemetry::StatsWriter& w, std::string_view series) const {
  const std::string node_id = std::to_string(env().node_id);
  for (std::size_t r = 0; r < drop_counts_.size(); ++r) {
    if (drop_counts_[r] == 0) continue;
    const telemetry::Label drop_labels[] = {
        {"node", node_id},
        {"reason", core::to_string(static_cast<core::DropReason>(r))}};
    w.counter(series, drop_labels, drop_counts_[r]);
  }
}

}  // namespace dip::netsim
