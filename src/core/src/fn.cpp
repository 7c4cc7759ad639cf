#include "dip/core/fn.hpp"

namespace dip::core {

namespace {

// Table 1 of the paper plus the §2.4/§5 extension FNs. `requires_full_path`
// follows the §2.4 rule: FNs that need every on-path AS to participate (the
// path-authentication chain) trigger an FN-unsupported notification when a
// node cannot honor them; the rest may simply be ignored. Budget costs are
// not listed here: the router charges each registered module's cost().
// The fourth column marks order-independent FNs (§2.2 parallel bit): pure
// functions of their own field and read-mostly tables. Everything that
// composes through OpScratch (the OPT chain, EPIC), mutates per-flow state
// (PIT, DPS buckets), or feeds a later FN's verdict stays order-dependent.
// The last column is burst_commutes (cross-packet commutation, the wave-
// dispatch license): true for FNs that touch only their own packet or
// memoized read-mostly tables (matches, the OPT chain — whose scratch is
// per-packet even though it is order-dependent *within* the packet, EPIC,
// and F_DAG, which reads only the XID-table snapshot and writes its own
// DAG field). False for anything whose shared state a later packet
// observes: PIT and content store (kFib/kPit, and kIntent, whose CID
// intents read the CS), DPS buckets, CC estimators.
constexpr FnInfo kFnTable[] = {
    {OpKey::kMatch32, "F_32_match", false, true, true},
    {OpKey::kMatch128, "F_128_match", false, true, true},
    {OpKey::kSource, "F_source", false, true, true},
    {OpKey::kFib, "F_FIB", false, false, false},
    {OpKey::kPit, "F_PIT", false, false, false},
    {OpKey::kParm, "F_parm", true, false, true},
    {OpKey::kMac, "F_MAC", true, false, true},
    {OpKey::kMark, "F_mark", true, false, true},
    {OpKey::kVer, "F_ver", true, false, true},
    {OpKey::kDag, "F_DAG", false, false, true},
    {OpKey::kIntent, "F_intent", false, false, false},
    {OpKey::kPass, "F_pass", false, false, true},
    {OpKey::kTelemetry, "F_int", false, true, true},
    {OpKey::kCc, "F_cc", false, false, false},
    {OpKey::kDps, "F_dps", false, false, false},
    // Per-hop verification needs every on-path node, like the OPT chain.
    {OpKey::kHvf, "F_hvf", true, false, true},
    // Custody transfer mutates the tag in place (accept stamps the local
    // node as custodian) and its verdict depends on per-node custody state,
    // so neither FN-order nor cross-packet commutation is licensed. A
    // non-DTN router may skip it (requires_full_path=false): custody is an
    // overlay over whichever nodes opt in.
    {OpKey::kCustody, "F_custody", false, false, false},
    // Fragment metadata is carried for the receiving host's reassembly; the
    // router only bounds-checks it.
    {OpKey::kBundleFrag, "F_frag", false, true, true},
};

// A §2.2 packet that the router relaxes rides the burst's waves with its FNs
// mirrored. That is safe only because it carries no stateful FN, so it can
// never reorder cross-packet state: every order-independent FN must also
// commute across packets.
static_assert([] {
  for (const FnInfo& info : kFnTable) {
    if (info.order_independent && !info.burst_commutes) return false;
  }
  return true;
}());

}  // namespace

std::string_view op_key_name(OpKey key) noexcept {
  for (const FnInfo& info : kFnTable) {
    if (info.key == key) return info.notation;
  }
  return "F_?";
}

std::span<const FnInfo> fn_table() noexcept { return kFnTable; }

std::optional<FnInfo> fn_info(OpKey key) noexcept {
  for (const FnInfo& info : kFnTable) {
    if (info.key == key) return info;
  }
  return std::nullopt;
}

bool op_burst_commutes(OpKey key) noexcept {
  static constexpr auto kCommutes = [] {
    std::array<bool, 64> t{};
    for (const FnInfo& info : kFnTable) {
      const auto idx = static_cast<std::size_t>(info.key);
      if (idx < t.size()) t[idx] = info.burst_commutes;
    }
    return t;
  }();
  const auto idx = static_cast<std::size_t>(key);
  return idx < kCommutes.size() && kCommutes[idx];
}

}  // namespace dip::core
