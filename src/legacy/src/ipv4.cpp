#include "dip/legacy/ipv4.hpp"

#include "dip/bytes/cursor.hpp"

namespace dip::legacy {

std::uint16_t internet_checksum(std::span<const std::uint8_t> data) noexcept {
  std::uint32_t sum = 0;
  std::size_t i = 0;
  for (; i + 1 < data.size(); i += 2) {
    sum += static_cast<std::uint32_t>((data[i] << 8) | data[i + 1]);
  }
  if (i < data.size()) sum += static_cast<std::uint32_t>(data[i] << 8);
  while (sum >> 16) sum = (sum & 0xffff) + (sum >> 16);
  return static_cast<std::uint16_t>(~sum);
}

bytes::Status Ipv4Header::serialize(std::span<std::uint8_t> out) const {
  if (out.size() < kWireSize) return bytes::Unexpected{bytes::Error::kOverflow};
  bytes::Writer w(out);
  (void)w.u8(0x45);  // version 4, IHL 5
  (void)w.u8(dscp_ecn);
  (void)w.u16(total_length);
  (void)w.u16(identification);
  (void)w.u16(flags_fragment);
  (void)w.u8(ttl);
  (void)w.u8(protocol);
  (void)w.u16(0);  // checksum placeholder
  (void)w.bytes(src.bytes);
  (void)w.bytes(dst.bytes);
  const std::uint16_t check = internet_checksum(out.subspan(0, kWireSize));
  out[10] = static_cast<std::uint8_t>(check >> 8);
  out[11] = static_cast<std::uint8_t>(check);
  return {};
}

bytes::Result<Ipv4Header> Ipv4Header::parse(std::span<const std::uint8_t> data) {
  if (data.size() < kWireSize) return bytes::Err(bytes::Error::kTruncated);
  if ((data[0] >> 4) != 4) return bytes::Err(bytes::Error::kMalformed);
  if ((data[0] & 0x0f) != 5) return bytes::Err(bytes::Error::kUnsupported);  // options
  if (internet_checksum(data.subspan(0, kWireSize)) != 0) {
    return bytes::Err(bytes::Error::kChecksum);
  }

  Ipv4Header h;
  h.dscp_ecn = data[1];
  h.total_length = static_cast<std::uint16_t>((data[2] << 8) | data[3]);
  h.identification = static_cast<std::uint16_t>((data[4] << 8) | data[5]);
  h.flags_fragment = static_cast<std::uint16_t>((data[6] << 8) | data[7]);
  h.ttl = data[8];
  h.protocol = data[9];
  std::copy(data.begin() + 12, data.begin() + 16, h.src.bytes.begin());
  std::copy(data.begin() + 16, data.begin() + 20, h.dst.bytes.begin());
  return h;
}

ForwardDecision Ipv4Forwarder::forward(std::span<std::uint8_t> packet) const {
  if (packet.size() < Ipv4Header::kWireSize) return {ForwardStatus::kBadPacket, {}};
  if ((packet[0] >> 4) != 4 || (packet[0] & 0x0f) != 5) {
    return {ForwardStatus::kBadPacket, {}};
  }
  if (internet_checksum(packet.subspan(0, Ipv4Header::kWireSize)) != 0) {
    return {ForwardStatus::kBadPacket, {}};
  }
  if (packet[8] <= 1) return {ForwardStatus::kTtlExpired, {}};

  // Decrement TTL with the RFC 1624 incremental checksum update.
  packet[8] -= 1;
  std::uint16_t check = static_cast<std::uint16_t>((packet[10] << 8) | packet[11]);
  // HC' = HC + 0x0100 (one's complement arithmetic), since the TTL byte
  // dropped by one in the high byte of its 16-bit word.
  std::uint32_t sum = static_cast<std::uint32_t>(check) + 0x0100;
  sum = (sum & 0xffff) + (sum >> 16);
  check = static_cast<std::uint16_t>(sum);
  packet[10] = static_cast<std::uint8_t>(check >> 8);
  packet[11] = static_cast<std::uint8_t>(check);

  fib::Ipv4Addr dst;
  std::copy(packet.begin() + 16, packet.begin() + 20, dst.bytes.begin());
  const auto nh = table_.lookup(dst);
  if (!nh) return {ForwardStatus::kNoRoute, {}};
  return {ForwardStatus::kForwarded, *nh};
}

}  // namespace dip::legacy
