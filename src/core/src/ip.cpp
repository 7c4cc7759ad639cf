#include "dip/core/ip.hpp"

namespace dip::core {

bytes::Status Match32Op::execute(OpContext& ctx) {
  if (ctx.field.bit_length != 32) return bytes::Unexpected{bytes::Error::kMalformed};
  const fib::Ipv4Lpm* fib = ctx.env->fib32_view();
  if (fib == nullptr) {
    ctx.result->drop(DropReason::kNoRoute);
    return {};
  }
  const auto value = ctx.target_uint();
  if (!value) return bytes::Unexpected{value.error()};

  const auto nh = ctx.lpm(*fib, fib::ipv4_from_u32(static_cast<std::uint32_t>(*value)));
  if (!nh) {
    ctx.result->drop(DropReason::kNoRoute);
    return {};
  }
  ctx.result->egress.assign(1, *nh);
  return {};
}

bytes::Status Match128Op::execute(OpContext& ctx) {
  if (ctx.field.bit_length != 128) return bytes::Unexpected{bytes::Error::kMalformed};
  const fib::Ipv6Lpm* fib = ctx.env->fib128_view();
  if (fib == nullptr) {
    ctx.result->drop(DropReason::kNoRoute);
    return {};
  }

  fib::Ipv6Addr addr;
  if (const auto target = ctx.target_bytes(); !target.empty()) {
    std::copy(target.begin(), target.end(), addr.bytes.begin());
  } else {
    // Non-byte-aligned 128-bit field: take the slow extraction path.
    if (auto st = bytes::extract_bits(ctx.locations, ctx.field, addr.bytes); !st) {
      return st;
    }
  }

  const auto nh = ctx.lpm(*fib, addr);
  if (!nh) {
    ctx.result->drop(DropReason::kNoRoute);
    return {};
  }
  ctx.result->egress.assign(1, *nh);
  return {};
}

bytes::Result<DipHeader> make_dip32_header(const fib::Ipv4Addr& dst,
                                           const fib::Ipv4Addr& src, NextHeader next,
                                           std::uint8_t hop_limit) {
  HeaderBuilder b;
  b.next_header(next).hop_limit(hop_limit);
  b.add_router_fn(OpKey::kMatch32, dst.bytes);   // (loc 0,  len 32, key 1)
  b.add_router_fn(OpKey::kSource, src.bytes);    // (loc 32, len 32, key 3)
  return b.build();
}

bytes::Result<DipHeader> make_dip128_header(const fib::Ipv6Addr& dst,
                                            const fib::Ipv6Addr& src, NextHeader next,
                                            std::uint8_t hop_limit) {
  HeaderBuilder b;
  b.next_header(next).hop_limit(hop_limit);
  b.add_router_fn(OpKey::kMatch128, dst.bytes);  // (loc 0,   len 128, key 2)
  b.add_router_fn(OpKey::kSource, src.bytes);    // (loc 128, len 128, key 3)
  return b.build();
}

std::optional<bytes::BitRange> find_source_field(std::span<const FnTriple> fns) noexcept {
  for (const FnTriple& fn : fns) {
    if (fn.key() == OpKey::kSource) return fn.range();
  }
  return std::nullopt;
}

}  // namespace dip::core
