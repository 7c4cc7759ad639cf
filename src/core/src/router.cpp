#include "dip/core/router.hpp"

#include <cassert>
#include <cstring>
#include <new>

#include "dip/crypto/mac.hpp"

// Read-intent prefetch hint; no-op off GCC/Clang.
#if defined(__GNUC__) || defined(__clang__)
#define DIP_PREFETCH_R(p) __builtin_prefetch((p), 0, 3)
#else
#define DIP_PREFETCH_R(p) ((void)0)
#endif

namespace dip::core {

namespace {

// Width of the FIB an F_32_match, F_128_match or F_FIB looks its field up
// in, when the field is one byte-aligned address of exactly that width (the
// only fields a wave group resolves ahead of the module); else 0.
std::size_t lpm_width(const FnTriple& fn) noexcept {
  std::size_t width = 0;
  switch (fn.key()) {
    case OpKey::kMatch32:
    case OpKey::kFib: width = 32; break;
    case OpKey::kMatch128: width = 128; break;
    default: return 0;
  }
  return fn.range().byte_aligned() && fn.field_len == width ? width : 0;
}

}  // namespace

ProcessResult Router::process(std::span<std::uint8_t> packet, FaceId ingress,
                              SimTime now) {
  const PacketRef ref(packet);
  ProcessResult result;
  process_batch({&ref, 1}, ingress, now, {&result, 1});
  return result;
}

std::vector<ProcessResult> Router::process_batch(std::span<const PacketRef> packets,
                                                 FaceId ingress, SimTime now) {
  std::vector<ProcessResult> results(packets.size());
  process_batch(packets, ingress, now, results);
  return results;
}

void Router::process_batch(std::span<const PacketRef> packets, FaceId ingress,
                           SimTime now, std::span<ProcessResult> results) {
  assert(results.size() >= packets.size());
  ++env_.counters.batches;
  if (registry_ != nullptr && registry_->epoch() != module_epoch_) {
    refresh_module_table();
  }

  const std::size_t n = packets.size();
  views_.resize(n);
  bound_.resize(n);  // every slot is written by phase 1a below

  // Phase timing is burst-sampled: the three histograms cost four clock
  // reads per *sampled* burst, nothing on the rest.
  telemetry::RouterStats* stats = env_.stats.get();
  const bool burst_timed = stats != nullptr && stats->burst_sampler.tick();
  std::uint64_t t_phase = burst_timed ? telemetry::now_ns() : 0;
  const auto lap = [&](telemetry::LatencyHistogram& phase) {
    const std::uint64_t t = telemetry::now_ns();
    phase.record(t - t_phase);
    t_phase = t;
  };

  if (stats != nullptr) stats->burst_packets += n;

  // Phase 1a: bind every header in place (bind_into writes the batch
  // scratch slot directly — no by-value HeaderView copy). Headers are
  // prefetched one packet ahead: the basic header and FN triples of packet
  // i+1 land in L1 while packet i decodes.
  const bool lenient = validation_ == ValidationMode::kLenient;
  for (std::size_t i = 0; i < n; ++i) {
    if (i + 1 < n && !packets[i + 1].bytes.empty()) {
      DIP_PREFETCH_R(packets[i + 1].bytes.data());
      if (packets[i + 1].bytes.size() > 64) {
        DIP_PREFETCH_R(packets[i + 1].bytes.data() + 64);
      }
    }
    results[i].reset();
    bound_[i] = HeaderView::bind_into(packets[i].bytes, views_[i]) ? 1 : 0;
    if (bound_[i]) continue;
    if (lenient) {
      quarantine(nullptr, ingress, now, results[i]);
    } else {
      results[i].drop(DropReason::kMalformed);
    }
  }
  if (burst_timed) lap(stats->phase_bind);

  // Phase 1b: structural checks + hop-limit decrement for every bound
  // packet.
  std::uint64_t dropped = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (bound_[i]) {
      if (lenient && !fns_fit(views_[i])) {
        // A bindable header whose FN slices overrun the locations block is
        // byte damage, not a protocol violation: quarantine it.
        quarantine(&views_[i], ingress, now, results[i]);
      } else if (views_[i].fns().size() > env_.limits.max_fn_per_packet) {
        results[i].drop(DropReason::kBudgetExhausted);
      } else if (!views_[i].decrement_hop_limit()) {
        results[i].drop(DropReason::kHopLimitExceeded);
      } else {
        continue;
      }
      bound_[i] = 0;
    }
    ++dropped;
  }
  if (burst_timed) lap(stats->phase_validate);

  if (stats != nullptr) stats->burst_bound += n - dropped;

  // Phase 2: dispatch FNs (see dispatch_burst for the plan).
  std::uint64_t forwarded = 0;
  std::uint64_t errors = 0;
  dispatch_burst(n, ingress, now, results, stats, forwarded, dropped, errors);
  if (burst_timed) lap(stats->phase_dispatch);

  env_.counters.processed += packets.size();
  if (forwarded != 0) env_.counters.forwarded += forwarded;
  if (dropped != 0) env_.counters.dropped += dropped;
  if (errors != 0) env_.counters.errors += errors;

  // Burst boundary: no snapshot pointers survive past here, so announce a
  // quiescent state to the control plane (no-op without one).
  env_.ctrl_quiesce();
}

void Router::dispatch_burst(std::size_t n, FaceId ingress, SimTime now,
                            std::span<ProcessResult> results,
                            telemetry::RouterStats* stats, std::uint64_t& forwarded,
                            std::uint64_t& dropped, std::uint64_t& errors) {
  arena_.reset();
  BurstState b{.ingress = ingress,
               .now = now,
               .results = results,
               .run = arena_.alloc<FnRunState>(n),
               .alive = arena_.alloc<std::uint8_t>(n),
               .sampled = arena_.alloc<std::uint8_t>(n),
               .mirror = arena_.alloc<std::uint8_t>(n),
               .fn_idx = arena_.alloc<std::uint8_t>(n)};

  // Deterministic sampling: one tick per bound packet in arrival order —
  // the identical tick sequence whatever the burst's shape, so a replayed
  // stream samples the same packets. A sampled packet's trace record spans
  // the whole phase.
  bool any_sampled = false;
  for (std::size_t i = 0; i < n; ++i) {
    b.sampled[i] = stats != nullptr && bound_[i] != 0 && stats->packet_sampler.tick();
    any_sampled |= b.sampled[i] != 0;
  }
  const std::uint64_t t_start = any_sampled ? telemetry::now_ns() : 0;

  // Cut the burst, in arrival order, into segments: a segment ends before
  // any packet whose first stateful FN sits at an earlier position than
  // the last stateful FN already in it. Waves run position-major, and a
  // position's stateful FNs run as one arrival-order group, so inside a
  // segment every stateful FN still runs in per-packet order; segments run
  // one after another.
  // Commuting FNs are order-free across packets. A §2.2 packet that
  // relax_eligible accepts carries no stateful FN (fn.cpp asserts it), so
  // it rides any segment with its FNs mirrored, back to front.
  std::size_t seg_begin = 0;  // first bound packet of the open segment
  std::size_t seg_size = 0;   // bound packets in it
  std::size_t seg_fns = 0;    // longest FN list in it
  std::size_t seg_last = 0;   // position of its last stateful FN
  std::uint64_t wave_n = 0;
  std::uint64_t alone_n = 0;
  const auto run_segment = [&](std::size_t end) {
    if (seg_size == 1) {
      run_alone(b, seg_begin);
      ++alone_n;
    } else if (seg_size > 1) {
      run_waves(b, seg_begin, end, seg_fns);
      wave_n += seg_size;
    }
    seg_size = 0;
    seg_fns = 0;
    seg_last = 0;
  };
  for (std::size_t i = 0; i < n; ++i) {
    b.alive[i] = bound_[i];
    if (!bound_[i]) continue;
    new (&b.run[i]) FnRunState{env_.limits.per_packet_budget, {}};
    b.mirror[i] = 0;
    if (views_[i].basic().parallel) {
      // §2.2 modular parallelism: the sender asserts the FNs are
      // independent; the router verifies before relaxing the order and
      // falls back to header order otherwise.
      if (relax_eligible(views_[i])) {
        b.mirror[i] = 1;
        ++env_.counters.parallel_relaxed;
      } else {
        ++env_.counters.parallel_fallback;
      }
    }
    const auto fns = views_[i].fns();
    std::size_t first = HeaderView::kMaxFns;
    std::size_t last = 0;
    for (std::size_t f = 0; f < fns.size(); ++f) {
      if (bucket_of(fns[f]) != kStatefulBucket) continue;
      if (first == HeaderView::kMaxFns) first = f;
      last = f;
    }
    if (first < seg_last) run_segment(i);
    if (seg_size++ == 0) seg_begin = i;
    if (fns.size() > seg_fns) seg_fns = fns.size();
    if (first != HeaderView::kMaxFns) seg_last = last;
  }
  run_segment(n);

  // Epilogue: no match FN decided an egress -> the wired default port (the
  // paper's one-hop eval setup), else drop; then trace records and tallies.
  for (std::size_t i = 0; i < n; ++i) {
    if (!bound_[i]) continue;
    ProcessResult& result = results[i];
    if (result.action == Action::kForward && result.egress.empty()) {
      if (env_.default_egress) {
        result.egress.push_back(*env_.default_egress);
      } else {
        result.drop(DropReason::kNoRoute);
      }
    }
    if (b.sampled[i]) record_trace(views_[i], ingress, now, t_start, result);
    switch (result.action) {
      case Action::kForward: ++forwarded; break;
      case Action::kDrop: ++dropped; break;
      case Action::kError: ++errors; break;
    }
  }

  if (stats != nullptr) {
    stats->burst_wave += wave_n;
    stats->burst_legacy += alone_n;
    stats->arena_high_water.record(arena_.high_water());
    stats->arena_capacity.record(arena_.capacity());
  }
}

void Router::run_alone(BurstState& b, std::size_t i) {
  const auto fns = views_[i].fns();
  sample_this_packet_ = b.sampled[i] != 0;
  for (std::size_t k = 0; k < fns.size(); ++k) {
    const FnTriple& fn = fns[b.mirror[i] ? fns.size() - 1 - k : k];
    if (!run_fn(fn, views_[i], b.ingress, b.now, b.run[i], b.results[i])) break;
  }
  sample_this_packet_ = false;
}

void Router::run_waves(BurstState& b, std::size_t begin, std::size_t end,
                       std::size_t max_fns) {
  // Wave `pos` runs the pos-th FN (header order, or back to front for a
  // mirrored packet) of every still-alive packet, so per-packet sequencing
  // (early exit, budget, scratch chaining) is exactly run_alone's; only the
  // cross-packet interleaving at one position changes.
  constexpr std::uint8_t kTaken = 0xFF;
  // A wave's packets in arrival order with their buckets, and the group
  // being run.
  std::uint32_t* order = arena_.alloc<std::uint32_t>(end - begin);
  std::uint8_t* bucket = arena_.alloc<std::uint8_t>(end - begin);
  std::uint32_t* group = arena_.alloc<std::uint32_t>(end - begin);
  for (std::size_t pos = 0; pos < max_fns; ++pos) {
    std::size_t count = 0;
    for (std::size_t i = begin; i < end; ++i) {
      if (!b.alive[i]) continue;
      const auto fns = views_[i].fns();
      if (pos >= fns.size()) continue;
      const std::size_t f = b.mirror[i] ? fns.size() - 1 - pos : pos;
      b.fn_idx[i] = static_cast<std::uint8_t>(f);
      order[count] = static_cast<std::uint32_t>(i);
      bucket[count++] = bucket_of(fns[f]);
    }
    if (count == 0) break;  // every packet has stopped or run out of FNs
    // One group per bucket, groups in order of first appearance, each in
    // arrival order: a pass per distinct bucket, so grouped traffic costs
    // one compare per packet and no burst costs more than one pass per key.
    for (std::size_t g = 0; g < count; ++g) {
      const std::uint8_t key = bucket[g];
      if (key == kTaken) continue;
      std::size_t m = 0;
      for (std::size_t k = g; k < count; ++k) {
        if (bucket[k] != key) continue;
        group[m++] = order[k];
        bucket[k] = kTaken;
      }
      wave_group(b, key, group, m);
    }
  }
}

std::uint8_t Router::bucket_of(const FnTriple& fn) const noexcept {
  if (fn.host_tagged()) return kHostBucket;
  const OpKey key = fn.key();
  if (find_module(key) == nullptr) return kMiscBucket;
  // op_burst_commutes is false past the dense table: out-of-table modules
  // are assumed stateful.
  return op_burst_commutes(key) ? static_cast<std::uint8_t>(key) : kStatefulBucket;
}

void Router::wave_group(BurstState& b, std::uint8_t bucket, const std::uint32_t* items,
                        std::size_t count) {
  if (bucket == kHostBucket) {
    // Algorithm 1 line 5, for the whole group at once.
    env_.counters.fn_skipped_host += count;
    return;
  }
  if (bucket == kStatefulBucket || bucket == kMiscBucket) {
    wave_run_items(b, items, count);
    return;
  }
  const auto key = static_cast<OpKey>(bucket);
  OpModule* module = module_table_[bucket];
  if (!env_.supports(key)) {
    // run_fn's §2.4 heterogeneous-configuration path, once per group.
    const auto info = fn_info(key);
    if (info && info->requires_full_path) {
      for (std::size_t k = 0; k < count; ++k) {
        b.results[items[k]].fail_unsupported(key);
        b.alive[items[k]] = 0;
      }
    } else {
      env_.counters.fn_skipped_optional += count;
    }
    return;
  }
  switch (key) {
    case OpKey::kMatch32:
    case OpKey::kMatch128:
      if (env_.flow_cache != nullptr) {
        wave_match(b, key, module, items, count);
        return;
      }
      break;
    case OpKey::kParm:
      wave_parm(b, module, items, count);
      return;
    case OpKey::kMac:
      if (env_.mac_kind == crypto::MacKind::kEm2) {
        wave_mac(b, module, items, count);
        return;
      }
      break;
    default:
      break;
  }
  wave_run_items(b, items, count);
}

void Router::wave_run_items(BurstState& b, const std::uint32_t* items, std::size_t count) {
  // Unsampled F_FIB items (and match items, which reach this kernel only on
  // a router without a flow cache) get their FIB lookups resolved together
  // first; their modules then take the answer instead of walking the FIB.
  const fib::Ipv4Lpm* f32 = env_.fib32_view();
  const fib::Ipv6Lpm* f128 = env_.fib128_view();
  std::uint8_t* want = arena_.alloc<std::uint8_t>(count);
  fib::NextHop* answers = arena_.alloc<fib::NextHop>(count);
  bool any_want = false;
  for (std::size_t k = 0; k < count; ++k) {
    const std::size_t p = items[k];
    const std::size_t width = b.sampled[p] ? 0 : lpm_width(wave_fn(b, p));
    want[k] = width != 0 && (width == 32 ? f32 != nullptr : f128 != nullptr);
    any_want |= want[k] != 0;
  }
  if (any_want) resolve_lookups(b, items, count, want, f32, f128, answers);

  for (std::size_t k = 0; k < count; ++k) {
    const std::size_t p = items[k];
    sample_this_packet_ = b.sampled[p] != 0;
    const std::optional<fib::NextHop> next_hop =
        want[k] ? std::optional(answers[k]) : std::nullopt;
    if (!run_fn(wave_fn(b, p), views_[p], b.ingress, b.now, b.run[p], b.results[p],
                next_hop)) {
      b.alive[p] = 0;
    }
  }
  sample_this_packet_ = false;
}

void Router::resolve_lookups(const BurstState& b, const std::uint32_t* items,
                             std::size_t count, const std::uint8_t* want,
                             const fib::Ipv4Lpm* f32, const fib::Ipv6Lpm* f128,
                             fib::NextHop* answers) {
  // Gather each wanted field into its table's address list, issue one
  // lookup_batch per table, and scatter the answers back to item order.
  auto* addrs4 = arena_.alloc<fib::Ipv4Addr>(count);
  auto* addrs6 = arena_.alloc<fib::Ipv6Addr>(count);
  std::uint32_t* item4 = arena_.alloc<std::uint32_t>(count);
  std::uint32_t* item6 = arena_.alloc<std::uint32_t>(count);
  std::size_t n4 = 0;
  std::size_t n6 = 0;
  for (std::size_t k = 0; k < count; ++k) {
    if (!want[k]) continue;
    const FnTriple& fn = wave_fn(b, items[k]);
    const std::uint8_t* field = views_[items[k]].locations().data() + fn.field_loc / 8;
    if (fn.key() == OpKey::kMatch128) {
      std::memcpy(addrs6[n6].bytes.data(), field, 16);
      item6[n6++] = static_cast<std::uint32_t>(k);
    } else {
      std::memcpy(addrs4[n4].bytes.data(), field, 4);
      item4[n4++] = static_cast<std::uint32_t>(k);
    }
  }
  fib::NextHop* out = arena_.alloc<fib::NextHop>(n4 > n6 ? n4 : n6);
  if (n4 != 0) {
    f32->lookup_batch({addrs4, n4}, {out, n4});
    for (std::size_t i = 0; i < n4; ++i) answers[item4[i]] = out[i];
  }
  if (n6 != 0) {
    f128->lookup_batch({addrs6, n6}, {out, n6});
    for (std::size_t i = 0; i < n6; ++i) answers[item6[i]] = out[i];
  }
}

void Router::wave_match(BurstState& b, OpKey key, OpModule* module,
                        const std::uint32_t* items, std::size_t count) {
  FlowCache* cache = env_.flow_cache.get();
  const std::size_t want_bytes = key == OpKey::kMatch32 ? 4 : 16;
  const fib::Ipv4Lpm* f32 = key == OpKey::kMatch32 ? env_.fib32_view() : nullptr;
  const fib::Ipv6Lpm* f128 =
      key == OpKey::kMatch128 ? env_.fib128_view() : nullptr;
  const bool view_ok = key == OpKey::kMatch32 ? f32 != nullptr : f128 != nullptr;
  const std::uint64_t generation =
      view_ok ? (f32 != nullptr ? f32->generation() : f128->generation()) : 0;
  const std::uint32_t cost = module->cost();
  const std::size_t key_slot =
      static_cast<std::size_t>(key) % env_.counters.fn_by_key.size();

  // Pass A: hash every cacheable slice and prefetch its cache slot so the
  // pass-B probes hit warm lines. Sampled packets keep the exact run_fn
  // timing path; uncacheable slices keep run_fn's uncached module path.
  const std::uint8_t** slices = arena_.alloc<const std::uint8_t*>(count);
  std::uint64_t* hashes = arena_.alloc<std::uint64_t>(count);
  std::uint8_t* fast = arena_.alloc<std::uint8_t>(count);
  for (std::size_t k = 0; k < count; ++k) {
    const std::size_t p = items[k];
    fast[k] = 0;
    if (b.sampled[p] || !view_ok) continue;
    const FnTriple& fn = wave_fn(b, p);
    if (lpm_width(fn) == 0) continue;
    const std::uint8_t* slice = views_[p].locations().data() + fn.field_loc / 8;
    slices[k] = slice;
    hashes[k] = FlowCache::hash({slice, want_bytes});
    fast[k] = 1;
    cache->prefetch(hashes[k]);
  }

  // Predict pass B's misses and resolve their FIB lookups together, on
  // the view this group read. would_hit never erases a stale entry, so
  // pass B still probes and inserts in exactly the per-packet engine's
  // order, with its hits, misses and evictions. An item predicted to hit
  // that misses in pass B (an earlier insert of this group evicted it)
  // runs its module without an answer.
  std::uint8_t* want = arena_.alloc<std::uint8_t>(count);
  fib::NextHop* answers = arena_.alloc<fib::NextHop>(count);
  bool any_want = false;
  for (std::size_t k = 0; k < count; ++k) {
    want[k] = fast[k] && !cache->would_hit({slices[k], want_bytes}, hashes[k], generation);
    any_want |= want[k] != 0;
  }
  if (any_want) resolve_lookups(b, items, count, want, f32, f128, answers);

  // Pass B, in arrival order (a miss's insert must be visible to the next
  // identical flow, exactly as the per-packet engine fills the cache).
  // Counter deltas stay local and flush once per group: the relaxed
  // fetch_adds were the single largest per-packet cost on this path.
  std::uint64_t executed = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  for (std::size_t k = 0; k < count; ++k) {
    const std::size_t p = items[k];
    ProcessResult& result = b.results[p];
    FnRunState& state = b.run[p];
    if (!fast[k]) {
      sample_this_packet_ = b.sampled[p] != 0;
      if (!run_fn(wave_fn(b, p), views_[p], b.ingress, b.now, state, result)) {
        b.alive[p] = 0;
      }
      sample_this_packet_ = false;
      continue;
    }
    if (cost > state.budget) {
      result.drop(DropReason::kBudgetExhausted);
      b.alive[p] = 0;
      continue;
    }
    state.budget -= cost;
    const std::span<const std::uint8_t> slice{slices[k], want_bytes};
    ++executed;
    if (const FlowCache::Verdict* v =
            cache->find_hashed(slice, hashes[k], generation)) {
      ++hits;
      if (v->no_route) {
        result.drop(DropReason::kNoRoute);
        b.alive[p] = 0;
        continue;
      }
      result.egress.assign(1, v->egress);
      if (result.action != Action::kForward) b.alive[p] = 0;
      continue;
    }
    ++misses;
    const FnTriple& fn = wave_fn(b, p);
    OpContext ctx;
    ctx.locations = views_[p].locations();
    ctx.field = fn.range();
    ctx.fn = fn;
    ctx.payload = views_[p].payload();
    ctx.ingress = b.ingress;
    ctx.now = b.now;
    ctx.env = &env_;
    ctx.result = &result;
    ctx.scratch = &state.scratch;
    if (want[k]) ctx.next_hop = answers[k];
    const bool egress_was_empty = result.egress.empty();
    if (const auto st = module->execute(ctx); !st) {
      result.drop(DropReason::kMalformed);
      b.alive[p] = 0;
      continue;
    }
    if (result.action == Action::kForward && egress_was_empty &&
        result.egress.size() == 1) {
      cache->insert(slice, generation, {result.egress[0], false});
    } else if (result.action == Action::kDrop &&
               result.reason == DropReason::kNoRoute) {
      cache->insert(slice, generation, {0, true});
    }
    if (result.action != Action::kForward) b.alive[p] = 0;
  }
  env_.counters.fn_executed += executed;
  env_.counters.fn_by_key[key_slot] += executed;
  if (hits != 0) env_.counters.flow_cache_hits += hits;
  if (misses != 0) env_.counters.flow_cache_misses += misses;
}

void Router::wave_parm(BurstState& b, OpModule* module, const std::uint32_t* items,
                       std::size_t count) {
  // One AES key schedule for the whole group: K_i = AES_{node_secret}(sid_i)
  // is multi-block under the router's cached schedule (rebuilt only when
  // the node secret changes).
  if (!drkey_ ||
      std::memcmp(drkey_secret_.data(), env_.node_secret.data(),
                  drkey_secret_.size()) != 0) {
    drkey_.emplace(env_.node_secret);
    drkey_secret_ = env_.node_secret;
  }
  const std::uint32_t cost = module->cost();
  const std::size_t key_slot =
      static_cast<std::size_t>(OpKey::kParm) % env_.counters.fn_by_key.size();

  crypto::SessionId* sids = arena_.alloc<crypto::SessionId>(count);
  crypto::Block* keys = arena_.alloc<crypto::Block>(count);
  std::uint32_t* lanes = arena_.alloc<std::uint32_t>(count);
  std::size_t lane_n = 0;
  std::uint64_t executed = 0;
  for (std::size_t k = 0; k < count; ++k) {
    const std::size_t p = items[k];
    FnRunState& state = b.run[p];
    const FnTriple& fn = wave_fn(b, p);
    const bytes::BitRange range = fn.range();
    if (b.sampled[p] || range.bit_length != 128 || !range.byte_aligned()) {
      // ParmOp's malformed-field errors (and sampled timing) keep the
      // exact run_fn path.
      sample_this_packet_ = b.sampled[p] != 0;
      if (!run_fn(fn, views_[p], b.ingress, b.now, state, b.results[p])) b.alive[p] = 0;
      sample_this_packet_ = false;
      continue;
    }
    if (cost > state.budget) {
      b.results[p].drop(DropReason::kBudgetExhausted);
      b.alive[p] = 0;
      continue;
    }
    state.budget -= cost;
    ++executed;
    sids[lane_n] = crypto::block_from(
        views_[p].locations().subspan(range.bit_offset / 8, 16));
    lanes[lane_n] = static_cast<std::uint32_t>(p);
    ++lane_n;
  }
  if (lane_n != 0) {
    drkey_->derive_blocks(sids, keys, lane_n);
    for (std::size_t k = 0; k < lane_n; ++k) {
      b.run[lanes[k]].scratch.dynamic_key = keys[k];
    }
  }
  env_.counters.fn_executed += executed;
  env_.counters.fn_by_key[key_slot] += executed;
}

void Router::wave_mac(BurstState& b, OpModule* module, const std::uint32_t* items,
                      std::size_t count) {
  // Batch 2EM CMAC: every packet's tag chains in lockstep through the
  // shared P1/P2 permutations (two_em_mac_blocks), instead of one serial
  // CMAC per packet. kEm2 only — the dispatcher routes kAesCmac nodes to
  // the per-item path.
  const std::uint32_t cost = module->cost();
  const std::size_t key_slot =
      static_cast<std::size_t>(OpKey::kMac) % env_.counters.fn_by_key.size();
  crypto::MacBatchItem* batch = arena_.alloc<crypto::MacBatchItem>(count);
  std::size_t batch_n = 0;
  std::uint64_t executed = 0;
  for (std::size_t k = 0; k < count; ++k) {
    const std::size_t p = items[k];
    FnRunState& state = b.run[p];
    const FnTriple& fn = wave_fn(b, p);
    const bytes::BitRange range = fn.range();
    const bool batchable = !b.sampled[p] && state.scratch.dynamic_key.has_value() &&
                           range.byte_aligned() && range.bit_length != 0;
    if (!batchable) {
      // Missing F_parm (kState error), unaligned/empty coverage, or a
      // sampled packet: exact run_fn semantics.
      sample_this_packet_ = b.sampled[p] != 0;
      if (!run_fn(fn, views_[p], b.ingress, b.now, state, b.results[p])) b.alive[p] = 0;
      sample_this_packet_ = false;
      continue;
    }
    if (cost > state.budget) {
      b.results[p].drop(DropReason::kBudgetExhausted);
      b.alive[p] = 0;
      continue;
    }
    state.budget -= cost;
    ++executed;
    state.scratch.mac.emplace();
    new (&batch[batch_n]) crypto::MacBatchItem{
        *state.scratch.dynamic_key,
        std::span<const std::uint8_t>(
            views_[p].locations().data() + range.bit_offset / 8,
            range.bit_length / 8),
        &*state.scratch.mac};
    ++batch_n;
  }
  if (batch_n != 0) crypto::two_em_mac_blocks({batch, batch_n});
  env_.counters.fn_executed += executed;
  env_.counters.fn_by_key[key_slot] += executed;
}

void Router::record_trace(const HeaderView& view, FaceId ingress, SimTime now,
                          std::uint64_t t_start, const ProcessResult& result) {
  static_assert(telemetry::TraceRecord::kMaxFns == HeaderView::kMaxFns);
  telemetry::TraceRecord rec;
  rec.start_ns = t_start;
  rec.sim_now = now;
  rec.duration_ns =
      static_cast<std::uint32_t>(telemetry::now_ns() - t_start);
  rec.ingress = ingress;
  const auto fns = view.fns();
  rec.fn_count = static_cast<std::uint8_t>(fns.size());
  for (std::size_t i = 0; i < fns.size(); ++i) {
    rec.fns[i] = {fns[i].field_loc, fns[i].field_len, fns[i].op};
  }
  rec.action = static_cast<std::uint8_t>(result.action);
  rec.reason = static_cast<std::uint8_t>(result.reason);
  rec.egress_count = static_cast<std::uint8_t>(
      result.egress.size() < 255 ? result.egress.size() : 255);
  env_.stats->trace.push(rec);
}

bool Router::fns_fit(const HeaderView& view) noexcept {
  const std::size_t loc_bits = view.locations().size() * 8;
  for (const FnTriple& fn : view.fns()) {
    if (fn.host_tagged()) continue;  // routers never slice host-tagged fields
    if (static_cast<std::size_t>(fn.field_loc) + fn.field_len > loc_bits) {
      return false;
    }
  }
  return true;
}

void Router::quarantine(const HeaderView* view, FaceId ingress, SimTime now,
                        ProcessResult& result) {
  result.drop(DropReason::kCorruptQuarantine);
  ++env_.counters.quarantined;
  telemetry::RouterStats* stats = env_.stats.get();
  if (stats == nullptr) return;
  // Forced trace record — quarantines bypass the sampler so the TraceRing
  // holds evidence for every corrupt packet (bounded by ring overwrite).
  telemetry::TraceRecord rec;
  rec.start_ns = 0;
  rec.sim_now = now;
  rec.duration_ns = 0;
  rec.ingress = ingress;
  rec.fn_count = 0;
  if (view != nullptr) {
    const auto fns = view->fns();
    rec.fn_count = static_cast<std::uint8_t>(fns.size());
    for (std::size_t i = 0; i < fns.size(); ++i) {
      rec.fns[i] = {fns[i].field_loc, fns[i].field_len, fns[i].op};
    }
  }
  rec.action = static_cast<std::uint8_t>(result.action);
  rec.reason = static_cast<std::uint8_t>(result.reason);
  rec.egress_count = 0;
  stats->trace.push(rec);
}

bool Router::relax_eligible(const HeaderView& view) noexcept {
  const auto fns = view.fns();
  for (std::size_t i = 0; i < fns.size(); ++i) {
    if (fns[i].host_tagged()) continue;  // skipped by routers in any order
    const auto info = fn_info(fns[i].key());
    if (!info || !info->order_independent) return false;
    const std::uint32_t a_lo = fns[i].field_loc;
    const std::uint32_t a_hi = a_lo + fns[i].field_len;
    for (std::size_t j = i + 1; j < fns.size(); ++j) {
      if (fns[j].host_tagged()) continue;
      const std::uint32_t b_lo = fns[j].field_loc;
      const std::uint32_t b_hi = b_lo + fns[j].field_len;
      if (a_lo < b_hi && b_lo < a_hi) return false;  // overlapping slices
    }
  }
  return true;
}

OpModule* Router::find_module(OpKey key) const noexcept {
  const auto idx = static_cast<std::size_t>(key);
  if (idx < kModuleTableSize) return module_table_[idx];
  return registry_ != nullptr ? registry_->find(key) : nullptr;
}

void Router::refresh_module_table() {
  for (std::size_t k = 0; k < kModuleTableSize; ++k) {
    module_table_[k] = registry_->find(static_cast<OpKey>(k));
  }
  module_epoch_ = registry_->epoch();
}

bool Router::run_fn(const FnTriple& fn, HeaderView& view, FaceId ingress, SimTime now,
                    FnRunState& state, ProcessResult& result,
                    std::optional<fib::NextHop> next_hop) {
  // Algorithm 1, line 5: host-tagged operations are skipped by routers.
  if (fn.host_tagged()) {
    ++env_.counters.fn_skipped_host;
    return true;
  }

  OpModule* module = find_module(fn.key());
  if (module == nullptr || !env_.supports(fn.key())) {
    // §2.4 heterogeneous configuration: a path-critical FN that this node
    // cannot honor triggers an ICMP-like notification; others are skipped.
    const auto info = fn_info(fn.key());
    if (info && info->requires_full_path) {
      result.fail_unsupported(fn.key());
      return false;
    }
    ++env_.counters.fn_skipped_optional;
    return true;
  }

  const std::uint32_t cost = module->cost();
  if (cost > state.budget) {
    // §2.4: hard per-packet processing limit.
    result.drop(DropReason::kBudgetExhausted);
    return false;
  }
  state.budget -= cost;

  const OpKey key = fn.key();
  const std::size_t key_idx =
      static_cast<std::size_t>(key) % env_.counters.fn_by_key.size();
  // Per-FN latency, recorded only for packets the stats sampler picked
  // (sample_this_packet_ is always false with stats disabled).
  const std::uint64_t t0 = sample_this_packet_ ? telemetry::now_ns() : 0;

  bool ok;
  if (env_.flow_cache != nullptr &&
      (key == OpKey::kMatch32 || key == OpKey::kMatch128)) {
    ok = run_match(fn, module, view, ingress, now, state, result);
  } else {
    OpContext ctx;
    ctx.locations = view.locations();
    ctx.field = fn.range();
    ctx.fn = fn;
    ctx.payload = view.payload();
    ctx.ingress = ingress;
    ctx.now = now;
    ctx.env = &env_;
    ctx.result = &result;
    ctx.scratch = &state.scratch;
    ctx.next_hop = next_hop;

    ++env_.counters.fn_executed;
    ++env_.counters.fn_by_key[key_idx];
    if (const auto st = module->execute(ctx); !st) {
      result.drop(DropReason::kMalformed);
      ok = false;
    } else {
      ok = result.action == Action::kForward;
    }
  }

  if (sample_this_packet_) {
    env_.stats->fn_ns[key_idx].record(telemetry::now_ns() - t0);
  }
  return ok;
}

bool Router::run_match(const FnTriple& fn, OpModule* module, HeaderView& view,
                       FaceId ingress, SimTime now, FnRunState& state,
                       ProcessResult& result) {
  const OpKey key = fn.key();
  const auto key_idx = static_cast<std::size_t>(key) % env_.counters.fn_by_key.size();
  const bytes::BitRange range = fn.range();

  // The cache key is the sliced match field. Only the canonical byte-aligned
  // widths are memoized; anything else takes the module path untouched.
  std::span<const std::uint8_t> slice;
  std::uint64_t generation = 0;
  bool cacheable = false;
  if (range.byte_aligned()) {
    const std::size_t len_bytes = range.bit_length / 8;
    const bool width_ok = (key == OpKey::kMatch32 && len_bytes == 4) ||
                          (key == OpKey::kMatch128 && len_bytes == 16);
    const fib::Ipv4Lpm* f32 = env_.fib32_view();
    const fib::Ipv6Lpm* f128 = env_.fib128_view();
    if (width_ok && (key == OpKey::kMatch32 ? f32 != nullptr : f128 != nullptr)) {
      slice = view.locations().subspan(range.bit_offset / 8, len_bytes);
      generation = key == OpKey::kMatch32 ? f32->generation() : f128->generation();
      cacheable = true;
    }
  }

  if (cacheable) {
    if (const FlowCache::Verdict* v = env_.flow_cache->find(slice, generation)) {
      // The memoized verdict is exactly what the module would compute under
      // this FIB generation; counters advance as if it had run.
      ++env_.counters.flow_cache_hits;
      ++env_.counters.fn_executed;
      ++env_.counters.fn_by_key[key_idx];
      if (v->no_route) {
        result.drop(DropReason::kNoRoute);
        return false;
      }
      result.egress.assign(1, v->egress);
      return result.action == Action::kForward;
    }
    ++env_.counters.flow_cache_misses;
  }

  OpContext ctx;
  ctx.locations = view.locations();
  ctx.field = range;
  ctx.fn = fn;
  ctx.payload = view.payload();
  ctx.ingress = ingress;
  ctx.now = now;
  ctx.env = &env_;
  ctx.result = &result;
  ctx.scratch = &state.scratch;

  ++env_.counters.fn_executed;
  ++env_.counters.fn_by_key[key_idx];
  const bool egress_was_empty = result.egress.empty();
  if (const auto st = module->execute(ctx); !st) {
    result.drop(DropReason::kMalformed);
    return false;
  }

  if (cacheable) {
    if (result.action == Action::kForward && egress_was_empty &&
        result.egress.size() == 1) {
      env_.flow_cache->insert(slice, generation, {result.egress[0], false});
    } else if (result.action == Action::kDrop &&
               result.reason == DropReason::kNoRoute) {
      env_.flow_cache->insert(slice, generation, {0, true});
    }
  }
  return result.action == Action::kForward;
}

}  // namespace dip::core
