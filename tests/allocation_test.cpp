// Zero-allocation guarantee for the batch fast path (DESIGN.md §10).
//
// This binary overrides the global allocation functions with counting
// wrappers. After a warmup (flow cache fill, burst arena growth, result-slot
// egress spill), a steady-state run of process_batch bursts must perform
// exactly zero heap allocations — the property the burst arena and the
// retained scratch vectors exist to provide. Any std::vector growth, trace
// push, or accidental by-value copy on the hot path trips the counter. The
// bursts cover DIP-32, mixed DIP-32/DIP-128, OPT and XIA.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "dip/core/ip.hpp"
#include "dip/core/router.hpp"
#include "dip/crypto/random.hpp"
#include "dip/netsim/topology.hpp"
#include "dip/opt/opt.hpp"
#include "dip/xia/xia.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

// Counting overrides: every user-facing form funnels into malloc so the
// counter sees all of them (scalar/array, aligned, nothrow).
void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                                   (size + static_cast<std::size_t>(align) - 1) &
                                       ~(static_cast<std::size_t>(align) - 1))) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return ::operator new(size, std::nothrow);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace dip::core {
namespace {

// Runs `warmup` then `measured` bursts of `burst` packets drawn round-robin
// from `templates` and returns the heap allocations the measured bursts
// made. Buffers, refs and result slots are allocated once and recycled
// burst over burst (hop limits decrement in place, so each burst refreshes
// the bytes from the templates).
std::uint64_t steady_state_allocations(Router& router,
                                       const std::vector<std::vector<std::uint8_t>>& templates,
                                       std::size_t burst, int warmup, int measured) {
  std::vector<std::vector<std::uint8_t>> bufs(burst);
  std::vector<PacketRef> refs(burst);
  std::vector<ProcessResult> results(burst);
  for (std::size_t i = 0; i < burst; ++i) {
    bufs[i] = templates[i % templates.size()];
    refs[i] = PacketRef(bufs[i]);
  }
  SimTime now = 0;
  auto run_burst = [&] {
    for (std::size_t i = 0; i < burst; ++i) {
      const auto& t = templates[i % templates.size()];
      bufs[i].assign(t.begin(), t.end());  // same size: no regrowth
    }
    router.process_batch(refs, /*ingress=*/0, ++now, results);
  };
  for (int b = 0; b < warmup; ++b) run_burst();
  const std::uint64_t before = g_allocations.load();
  for (int b = 0; b < measured; ++b) run_burst();
  return g_allocations.load() - before;
}

TEST(BatchAllocation, SteadyStateBurstsAllocateNothing) {
  RouterEnv env = netsim::make_basic_env(1);
  env.default_egress = 1;
  env.fib32->insert({fib::ipv4_from_u32(0x0A000000), 8}, 7);
  env.fib32->insert({fib::ipv4_from_u32(0x0A010000), 16}, 2);
  auto registry = netsim::make_default_registry();
  Router router(std::move(env), registry.get());

  // The bench's burst shape: 32 packets over a handful of flows, the flow
  // cache hot after warmup.
  std::vector<std::vector<std::uint8_t>> templates;
  for (std::size_t f = 0; f < 8; ++f) {
    const auto h = make_dip32_header(
        fib::ipv4_from_u32(0x0A010000 + static_cast<std::uint32_t>(f)),
        fib::ipv4_from_u32(0xC0A80001));
    templates.push_back(h->serialize());
  }
  const std::uint64_t allocs = steady_state_allocations(router, templates, 32, 64, 256);
  EXPECT_EQ(allocs, 0u) << allocs << " heap allocations on the steady-state batch path";

  // Sanity: the run actually exercised the fast path.
  EXPECT_EQ(router.env().counters.processed, (64u + 256u) * 32u);
  EXPECT_EQ(router.env().counters.dropped, 0u);
  EXPECT_GT(router.env().counters.flow_cache_hits, 0u);
}

// Same property for a mixed-program burst: alternate two different FN
// programs so every wave runs more than one group.
TEST(BatchAllocation, MixedProgramBurstsAllocateNothingSteadyState) {
  RouterEnv env = netsim::make_basic_env(1);
  env.default_egress = 1;
  env.fib32->insert({fib::ipv4_from_u32(0x0A000000), 8}, 7);
  env.fib128->insert({fib::parse_ipv6("2001:db8::").value(), 32}, 9);
  auto registry = netsim::make_default_registry();
  Router router(std::move(env), registry.get());

  std::vector<std::vector<std::uint8_t>> templates;
  templates.push_back(make_dip32_header(fib::ipv4_from_u32(0x0A000005),
                                        fib::ipv4_from_u32(0xC0A80001))
                          ->serialize());
  templates.push_back(
      make_dip128_header(fib::parse_ipv6("2001:db8::9").value(),
                         fib::parse_ipv6("2001:db8::1").value())
          ->serialize());
  EXPECT_EQ(steady_state_allocations(router, templates, 33, 64, 256), 0u);
  EXPECT_EQ(router.env().counters.dropped, 0u);
}

// OPT's F_parm/F_MAC/F_mark waves: per-packet DRKey schedules and 2EM MAC
// strips run on stack state only.
TEST(BatchAllocation, OptBurstsAllocateNothingSteadyState) {
  RouterEnv env = netsim::make_basic_env(1);
  env.default_egress = 1;
  const std::vector<crypto::Block> secrets{env.node_secret};
  auto registry = netsim::make_default_registry();
  Router router(std::move(env), registry.get());

  crypto::Xoshiro256 rng(0x0A11);
  const opt::Session session = opt::negotiate_session(rng.block(), secrets, rng.block());
  const std::vector<std::uint8_t> payload = {'d', 'i', 'p'};
  std::vector<std::vector<std::uint8_t>> templates;
  for (std::uint32_t ts = 0; ts < 8; ++ts) {
    templates.push_back(opt::make_opt_header(session, payload, 1000 + ts)->serialize());
  }
  EXPECT_EQ(steady_state_allocations(router, templates, 32, 16, 64), 0u);
  EXPECT_EQ(router.env().counters.dropped, 0u);
}

// XIA's F_DAG/F_intent: each parses the DAG off the wire, into inline
// storage bounded by the wire format's kMaxNodes/kMaxEdges.
TEST(BatchAllocation, XiaBurstsAllocateNothingSteadyState) {
  RouterEnv env = netsim::make_basic_env(1);
  env.default_egress = 1;
  std::vector<std::vector<std::uint8_t>> templates;
  for (int i = 0; i < 8; ++i) {
    const std::string n = std::to_string(i);
    const fib::Xid ad = xia::xid_from_label("ad-" + n);
    const fib::Xid sid = xia::xid_from_label("sid-" + n);
    env.xid_table->insert(fib::XidType::kAd, ad, 2);
    // Half the services route on the intent, half fall back to the AD.
    if (i % 2 == 0) env.xid_table->insert(fib::XidType::kSid, sid, 3);
    templates.push_back(xia::make_xia_header(xia::make_service_dag(
                                                 ad, xia::xid_from_label("hid-" + n),
                                                 fib::XidType::kSid, sid))
                            ->serialize());
  }
  auto registry = netsim::make_default_registry();
  Router router(std::move(env), registry.get());

  EXPECT_EQ(steady_state_allocations(router, templates, 32, 16, 64), 0u);
  EXPECT_EQ(router.env().counters.dropped, 0u);
}

}  // namespace
}  // namespace dip::core
