#include "dip/legacy/ipv6.hpp"

#include <algorithm>

#include "dip/bytes/cursor.hpp"

namespace dip::legacy {

bytes::Status Ipv6Header::serialize(std::span<std::uint8_t> out) const {
  if (out.size() < kWireSize) return bytes::Unexpected{bytes::Error::kOverflow};
  bytes::Writer w(out);
  const std::uint32_t vtf = (6u << 28) | (static_cast<std::uint32_t>(traffic_class) << 20) |
                            (flow_label & 0xfffff);
  (void)w.u32(vtf);
  (void)w.u16(payload_length);
  (void)w.u8(next_header);
  (void)w.u8(hop_limit);
  (void)w.bytes(src.bytes);
  (void)w.bytes(dst.bytes);
  return {};
}

bytes::Result<Ipv6Header> Ipv6Header::parse(std::span<const std::uint8_t> data) {
  if (data.size() < kWireSize) return bytes::Err(bytes::Error::kTruncated);
  if ((data[0] >> 4) != 6) return bytes::Err(bytes::Error::kMalformed);

  Ipv6Header h;
  h.traffic_class = static_cast<std::uint8_t>(((data[0] & 0x0f) << 4) | (data[1] >> 4));
  h.flow_label = (static_cast<std::uint32_t>(data[1] & 0x0f) << 16) |
                 (static_cast<std::uint32_t>(data[2]) << 8) | data[3];
  h.payload_length = static_cast<std::uint16_t>((data[4] << 8) | data[5]);
  h.next_header = data[6];
  h.hop_limit = data[7];
  std::copy(data.begin() + 8, data.begin() + 24, h.src.bytes.begin());
  std::copy(data.begin() + 24, data.begin() + 40, h.dst.bytes.begin());
  return h;
}

ForwardDecision Ipv6Forwarder::forward(std::span<std::uint8_t> packet) const {
  if (packet.size() < Ipv6Header::kWireSize || (packet[0] >> 4) != 6) {
    return {ForwardStatus::kBadPacket, {}};
  }
  if (packet[7] <= 1) return {ForwardStatus::kTtlExpired, {}};
  packet[7] -= 1;

  fib::Ipv6Addr dst;
  std::copy(packet.begin() + 24, packet.begin() + 40, dst.bytes.begin());
  const auto nh = table_.lookup(dst);
  if (!nh) return {ForwardStatus::kNoRoute, {}};
  return {ForwardStatus::kForwarded, *nh};
}

}  // namespace dip::legacy
