#include "dip/ndn/ndn.hpp"

namespace dip::ndn {

using core::DipHeader;
using core::DropReason;
using core::NextHeader;
using core::OpContext;
using core::OpKey;

bytes::Status FibOp::execute(OpContext& ctx) {
  if (ctx.field.bit_length != 32) return bytes::Unexpected{bytes::Error::kMalformed};
  const auto code = ctx.target_uint();
  if (!code) return bytes::Unexpected{code.error()};
  const auto name_code = static_cast<std::uint32_t>(*code);

  // Footnote 2: "first match the local content store and then match the
  // FIB". A cache hit answers the interest outright — no PIT state is
  // created (there is nothing in flight to wait for).
  if (ctx.env->content_store && ctx.env->content_store->contains(name_code)) {
    ctx.result->respond_from_cache = true;
    ctx.result->egress.assign(1, ctx.ingress);
    return {};
  }

  // Record the receiving port in the PIT (§3). A duplicate means this exact
  // interest already came in on this face: likely a loop — drop.
  const auto recorded = ctx.env->pit.record_interest(name_code, ctx.ingress, ctx.now);
  if (!recorded) {
    ctx.result->drop(DropReason::kBudgetExhausted);  // PIT full (§2.4 limit)
    return {};
  }
  if (*recorded == pit::InterestResult::kDuplicate) {
    ctx.result->drop(DropReason::kDuplicate);
    return {};
  }
  if (*recorded == pit::InterestResult::kAggregated) {
    // Another request for the same content is already in flight upstream;
    // suppress this one (its face is now recorded for the data fan-out).
    ctx.result->drop(DropReason::kAggregated);
    return {};
  }

  const fib::Ipv4Lpm* fib = ctx.env->fib32_view();
  if (fib == nullptr) {
    ctx.result->drop(DropReason::kNoRoute);
    return {};
  }
  const auto nh = ctx.lpm(*fib, fib::ipv4_from_u32(name_code));
  if (!nh) {
    ctx.result->drop(DropReason::kNoRoute);
    return {};
  }
  ctx.result->egress.assign(1, *nh);
  return {};
}

bytes::Status PitOp::execute(OpContext& ctx) {
  if (ctx.field.bit_length != 32) return bytes::Unexpected{bytes::Error::kMalformed};
  const auto code = ctx.target_uint();
  if (!code) return bytes::Unexpected{code.error()};
  const auto name_code = static_cast<std::uint32_t>(*code);

  auto faces = ctx.env->pit.match_data(name_code, ctx.now);
  if (faces.empty()) {
    // "or discards the packet (match miss)" — unsolicited data.
    ctx.result->drop(DropReason::kPitMiss);
    return {};
  }

  if (ctx.env->content_store) {
    ctx.env->content_store->insert(name_code, ctx.payload);
  }
  ctx.result->egress.assign(faces.begin(), faces.end());
  return {};
}

namespace {

bytes::Result<DipHeader> make_name_header(std::uint32_t name_code, OpKey op,
                                          NextHeader next, std::uint8_t hop_limit) {
  const auto code_addr = fib::ipv4_from_u32(name_code);
  core::HeaderBuilder b;
  b.next_header(next).hop_limit(hop_limit);
  b.add_router_fn(op, code_addr.bytes);  // (loc 0, len 32, key 4/5)
  return b.build();
}

}  // namespace

bytes::Result<DipHeader> make_interest_header(const fib::Name& name, NextHeader next,
                                              std::uint8_t hop_limit) {
  return make_name_header(encode_name32(name), OpKey::kFib, next, hop_limit);
}

bytes::Result<DipHeader> make_data_header(const fib::Name& name, NextHeader next,
                                          std::uint8_t hop_limit) {
  return make_name_header(encode_name32(name), OpKey::kPit, next, hop_limit);
}

bytes::Result<DipHeader> make_interest_header32(std::uint32_t name_code, NextHeader next,
                                                std::uint8_t hop_limit) {
  return make_name_header(name_code, OpKey::kFib, next, hop_limit);
}

bytes::Result<DipHeader> make_data_header32(std::uint32_t name_code, NextHeader next,
                                            std::uint8_t hop_limit) {
  return make_name_header(name_code, OpKey::kPit, next, hop_limit);
}

std::optional<std::uint32_t> extract_name_code(const DipHeader& header) noexcept {
  for (const core::FnTriple& fn : header.fns) {
    if (fn.key() == OpKey::kFib || fn.key() == OpKey::kPit) {
      const auto v = bytes::extract_uint(header.locations, fn.range());
      if (v) return static_cast<std::uint32_t>(*v);
    }
  }
  return std::nullopt;
}

}  // namespace dip::ndn
