#include "dip/mesh/traffic.hpp"

#include <algorithm>

#include "dip/core/ip.hpp"

namespace dip::mesh {

namespace {

constexpr std::uint32_t kProbeMagic = 0x4D505231u;  // "MPR1"
constexpr std::size_t kProbeBytes = 16;             // magic:4 flow:4 send_ns:8
constexpr double kZipfExponent = 1.0;               // destination popularity skew

void put32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 3; i >= 0; --i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 7; i >= 0; --i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

[[nodiscard]] std::uint32_t get32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v = (v << 8) | p[i];
  return v;
}

[[nodiscard]] std::uint64_t get64(const std::uint8_t* p) {
  return (static_cast<std::uint64_t>(get32(p)) << 32) | get32(p + 4);
}

}  // namespace

MeshTrafficGen::MeshTrafficGen(MeshNet& net, TrafficConfig config)
    : net_(net),
      config_(config),
      zipf_(std::max<std::size_t>(net.size(), 1), kZipfExponent, config.seed),
      rng_(config.seed ^ 0xA5A5'5A5A'DEAD'BEEFull) {
  for (std::size_t i = 0; i < config_.flows; ++i) flows_.push_back(make_flow());
  net_.set_delivery([this](std::size_t node, std::span<const std::uint8_t> packet,
                           std::uint64_t now) { on_delivered(node, packet, now); });
}

MeshTrafficGen::Flow MeshTrafficGen::make_flow() {
  Flow f;
  f.src = static_cast<std::size_t>(rng_.below(net_.size()));
  f.dst = zipf_.sample();
  if (f.dst == f.src) f.dst = (f.dst + 1) % net_.size();  // no self-traffic
  f.id = next_flow_id_++;
  return f;
}

std::size_t MeshTrafficGen::tick(std::size_t packets) {
  if (flows_.empty() || net_.size() < 2) return 0;
  std::size_t injected = 0;
  for (std::size_t i = 0; i < packets; ++i) {
    const Flow& flow = flows_[cursor_ % flows_.size()];
    ++cursor_;

    const auto header = core::make_dip32_header(
        addr_of(net_.router(flow.dst).node_id()),
        addr_of(net_.router(flow.src).node_id()));
    if (!header) continue;
    scratch_ = header->serialize();
    put32(scratch_, kProbeMagic);
    put32(scratch_, flow.id);
    put64(scratch_, net_.loop().now_ns());

    net_.router(flow.src).inject(scratch_, net_.local_face_of(flow.src));
    ++stats_.sent;
    ++injected;
  }
  return injected;
}

void MeshTrafficGen::churn() {
  for (std::size_t i = 0; i < config_.churn_flows && !flows_.empty(); ++i) {
    flows_.pop_front();
    flows_.push_back(make_flow());
    ++stats_.flows_churned;
  }
}

void MeshTrafficGen::on_delivered(std::size_t /*node*/,
                                  std::span<const std::uint8_t> packet,
                                  std::uint64_t now) {
  if (packet.size() < kProbeBytes) {
    ++stats_.mismatched;
    return;
  }
  const std::uint8_t* probe = packet.data() + packet.size() - kProbeBytes;
  if (get32(probe) != kProbeMagic) {
    ++stats_.mismatched;
    return;
  }
  ++stats_.received;
  const std::uint64_t sent_at = get64(probe + 8);
  const std::uint64_t latency = now >= sent_at ? now - sent_at : 0;
  stats_.latency_sum_ns += latency;
  stats_.latency_max_ns = std::max(stats_.latency_max_ns, latency);
}

void MeshTrafficGen::write_stats(telemetry::StatsWriter& w) const {
  w.counter("dip_mesh_traffic_sent_total", {}, stats_.sent);
  w.counter("dip_mesh_traffic_received_total", {}, stats_.received);
  w.counter("dip_mesh_traffic_mismatched_total", {}, stats_.mismatched);
  w.counter("dip_mesh_traffic_flows_churned_total", {}, stats_.flows_churned);
  w.gauge("dip_mesh_traffic_mean_latency_ns", {}, stats_.mean_latency_ns());
  w.gauge("dip_mesh_traffic_max_latency_ns", {},
          static_cast<double>(stats_.latency_max_ns));
}

}  // namespace dip::mesh
