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
      quarantine(ingress, now, results[i]);
    } else {
      results[i].drop(DropReason::kMalformed);
    }
  }
  if (burst_timed) lap(stats->phase_bind);

  // Phase 1b: the FN-count limit + hop-limit decrement for every bound
  // packet (bind already refused every FN slice that overruns the
  // locations block).
  std::uint64_t dropped = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (bound_[i]) {
      if (views_[i].fns().size() > env_.limits.max_fn_per_packet) {
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
  for (std::size_t i = 0; i < n; ++i) {
    b.sampled[i] = stats != nullptr && bound_[i] != 0 && stats->packet_sampler.tick();
    b.timed |= b.sampled[i] != 0;
  }
  const std::uint64_t t_start = b.timed ? telemetry::now_ns() : 0;

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
  // A flow-cached F_32_match/F_128_match runs the match kernel as a group
  // of one (the conditions wave_group routes a match group there under),
  // so the flow cache has one implementation; every other FN takes run_fn,
  // which a lone packet reaches cheaper than the wave kernels' setup.
  const auto fns = views_[i].fns();
  const auto item = static_cast<std::uint32_t>(i);
  for (std::size_t k = 0; k < fns.size() && b.alive[i]; ++k) {
    b.fn_idx[i] = static_cast<std::uint8_t>(b.mirror[i] ? fns.size() - 1 - k : k);
    const FnTriple& fn = wave_fn(b, i);
    const OpKey key = fn.key();
    const bool match = (key == OpKey::kMatch32 || key == OpKey::kMatch128) &&
                       !fn.host_tagged() && env_.flow_cache != nullptr;
    OpModule* module = match ? find_module(key) : nullptr;
    if (module != nullptr && env_.supports(key)) {
      wave_match(b, key, module, &item, 1);
    } else {
      run_fn(b, i);
    }
  }
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
  // F_FIB items (and match items the flow cache does not serve) get their
  // FIB lookups resolved together first; their modules then take the
  // answer instead of walking the FIB.
  const fib::Ipv4Lpm* f32 = env_.fib32_view();
  const fib::Ipv6Lpm* f128 = env_.fib128_view();
  std::uint8_t* want = arena_.alloc<std::uint8_t>(count);
  fib::NextHop* answers = arena_.alloc<fib::NextHop>(count);
  std::size_t want_n = 0;
  bool timed = false;  // a sampled item takes an answer
  for (std::size_t k = 0; k < count; ++k) {
    const std::size_t width = lpm_width(wave_fn(b, items[k]));
    want[k] = width != 0 && (width == 32 ? f32 != nullptr : f128 != nullptr);
    want_n += want[k];
    timed |= want[k] && b.sampled[items[k]];
  }
  // A sampled item's fn_ns sample adds its share of the batched walk to its
  // module's own time.
  std::uint64_t walk_ns = 0;
  if (want_n != 0) {
    const std::uint64_t t0 = timed ? telemetry::now_ns() : 0;
    resolve_lookups(b, items, count, want, f32, f128, answers);
    if (timed) walk_ns = (telemetry::now_ns() - t0) / want_n;
  }

  for (std::size_t k = 0; k < count; ++k) {
    if (want[k]) {
      run_fn(b, items[k], answers[k], walk_ns);
    } else {
      run_fn(b, items[k]);
    }
  }
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
  const std::uint64_t t0 = group_sampled(b, items, count) ? telemetry::now_ns() : 0;
  FlowCache* cache = env_.flow_cache.get();
  const std::size_t want_bytes = key == OpKey::kMatch32 ? 4 : 16;
  const fib::Ipv4Lpm* f32 = key == OpKey::kMatch32 ? env_.fib32_view() : nullptr;
  const fib::Ipv6Lpm* f128 =
      key == OpKey::kMatch128 ? env_.fib128_view() : nullptr;
  if (f32 == nullptr && f128 == nullptr) {
    // No route table to stamp a cache generation from: nothing is cached,
    // and the modules report the missing table themselves.
    wave_run_items(b, items, count);
    return;
  }
  const std::uint64_t generation =
      f32 != nullptr ? f32->generation() : f128->generation();
  const std::uint32_t cost = module->cost();

  // Pass A: hash every cacheable slice (lpm_width's rule) and prefetch its
  // cache slot so the pass-B probes hit warm lines. The rest (their slice
  // stays null) run the uncached module through wave_run_items after this
  // kernel: they never touch the cache, and match FNs commute across
  // packets.
  struct Probe {
    const std::uint8_t* slice;
    std::uint64_t hash;
  };
  Probe* probes = arena_.alloc<Probe>(count);
  std::uint32_t* rest = nullptr;
  std::size_t rest_n = 0;
  for (std::size_t k = 0; k < count; ++k) {
    const std::size_t p = items[k];
    const FnTriple& fn = wave_fn(b, p);
    if (lpm_width(fn) == 0) {
      if (rest == nullptr) rest = arena_.alloc<std::uint32_t>(count);
      rest[rest_n++] = items[k];
      probes[k].slice = nullptr;
      continue;
    }
    const std::uint8_t* slice = views_[p].locations().data() + fn.field_loc / 8;
    probes[k] = {slice, FlowCache::hash({slice, want_bytes})};
    if (count > 1) cache->prefetch(probes[k].hash);
  }

  // Predict pass B's misses and resolve their FIB lookups together, on
  // the view this group read. would_hit never erases a stale entry, so
  // pass B still probes and inserts in exactly the per-packet order, with
  // its hits, misses and evictions. An item predicted to hit that misses
  // in pass B (an earlier insert of this group evicted it) runs its module
  // without an answer. A group of one skips this and the prefetch: one
  // lookup has nothing to overlap, so on a miss its module walks the FIB.
  std::uint8_t* want = nullptr;
  fib::NextHop* answers = nullptr;
  if (count > 1) {
    want = arena_.alloc<std::uint8_t>(count);
    answers = arena_.alloc<fib::NextHop>(count);
    bool any_want = false;
    for (std::size_t k = 0; k < count; ++k) {
      want[k] = probes[k].slice != nullptr &&
                !cache->would_hit({probes[k].slice, want_bytes}, probes[k].hash,
                                  generation);
      any_want |= want[k] != 0;
    }
    if (any_want) resolve_lookups(b, items, count, want, f32, f128, answers);
  }

  // Pass B, in arrival order (a miss's insert must be visible to the next
  // identical flow, exactly as packets one at a time fill the cache).
  // Counter deltas stay local and flush once per group: the relaxed
  // fetch_adds were the single largest per-packet cost on this path.
  std::uint64_t executed = 0;
  std::uint64_t sampled = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  for (std::size_t k = 0; k < count; ++k) {
    if (probes[k].slice == nullptr) continue;
    const std::size_t p = items[k];
    ProcessResult& result = b.results[p];
    FnRunState& state = b.run[p];
    if (cost > state.budget) {
      result.drop(DropReason::kBudgetExhausted);
      b.alive[p] = 0;
      continue;
    }
    state.budget -= cost;
    const std::span<const std::uint8_t> slice{probes[k].slice, want_bytes};
    ++executed;
    sampled += b.sampled[p];
    if (const FlowCache::Verdict* v =
            cache->find_hashed(slice, probes[k].hash, generation)) {
      // The memoized verdict is exactly what the module would compute
      // under this FIB generation; counters advance as if it had run.
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
    if (want != nullptr && want[k]) ctx.next_hop = answers[k];
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
  if (hits != 0) env_.counters.flow_cache_hits += hits;
  if (misses != 0) env_.counters.flow_cache_misses += misses;
  record_kernel(key, t0, executed, sampled);
  if (rest_n != 0) wave_run_items(b, rest, rest_n);
}

void Router::wave_parm(BurstState& b, OpModule* module, const std::uint32_t* items,
                       std::size_t count) {
  const std::uint64_t t0 = group_sampled(b, items, count) ? telemetry::now_ns() : 0;
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

  crypto::SessionId* sids = arena_.alloc<crypto::SessionId>(count);
  crypto::Block* keys = arena_.alloc<crypto::Block>(count);
  std::uint32_t* lanes = arena_.alloc<std::uint32_t>(count);
  std::uint32_t* rest = arena_.alloc<std::uint32_t>(count);
  std::size_t lane_n = 0;
  std::size_t rest_n = 0;
  std::uint64_t sampled = 0;
  for (std::size_t k = 0; k < count; ++k) {
    const std::size_t p = items[k];
    FnRunState& state = b.run[p];
    const bytes::BitRange range = wave_fn(b, p).range();
    if (range.bit_length != 128 || !range.byte_aligned()) {
      // ParmOp's malformed-field errors: wave_run_items, after this kernel.
      rest[rest_n++] = items[k];
      continue;
    }
    if (cost > state.budget) {
      b.results[p].drop(DropReason::kBudgetExhausted);
      b.alive[p] = 0;
      continue;
    }
    state.budget -= cost;
    sampled += b.sampled[p];
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
  record_kernel(OpKey::kParm, t0, lane_n, sampled);
  if (rest_n != 0) wave_run_items(b, rest, rest_n);
}

void Router::wave_mac(BurstState& b, OpModule* module, const std::uint32_t* items,
                      std::size_t count) {
  // Batch 2EM CMAC: every packet's tag chains in lockstep through the
  // shared P1/P2 permutations (two_em_mac_blocks), instead of one serial
  // CMAC per packet. kEm2 only — the dispatcher routes kAesCmac nodes to
  // the per-item path.
  const std::uint64_t t0 = group_sampled(b, items, count) ? telemetry::now_ns() : 0;
  const std::uint32_t cost = module->cost();
  crypto::MacBatchItem* batch = arena_.alloc<crypto::MacBatchItem>(count);
  std::uint32_t* rest = arena_.alloc<std::uint32_t>(count);
  std::size_t batch_n = 0;
  std::size_t rest_n = 0;
  std::uint64_t sampled = 0;
  for (std::size_t k = 0; k < count; ++k) {
    const std::size_t p = items[k];
    FnRunState& state = b.run[p];
    const bytes::BitRange range = wave_fn(b, p).range();
    if (!state.scratch.dynamic_key.has_value() || !range.byte_aligned() ||
        range.bit_length == 0) {
      // Missing F_parm (kState error) or unaligned/empty coverage: MacOp's
      // own handling through wave_run_items, after this kernel.
      rest[rest_n++] = items[k];
      continue;
    }
    if (cost > state.budget) {
      b.results[p].drop(DropReason::kBudgetExhausted);
      b.alive[p] = 0;
      continue;
    }
    state.budget -= cost;
    sampled += b.sampled[p];
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
  record_kernel(OpKey::kMac, t0, batch_n, sampled);
  if (rest_n != 0) wave_run_items(b, rest, rest_n);
}

bool Router::group_sampled(const BurstState& b, const std::uint32_t* items,
                           std::size_t count) noexcept {
  if (!b.timed) return false;
  for (std::size_t k = 0; k < count; ++k) {
    if (b.sampled[items[k]]) return true;
  }
  return false;
}

void Router::record_kernel(OpKey key, std::uint64_t t0, std::uint64_t executed,
                           std::uint64_t sampled) {
  const std::size_t slot = static_cast<std::size_t>(key) % env_.counters.fn_by_key.size();
  env_.counters.fn_executed += executed;
  env_.counters.fn_by_key[slot] += executed;
  if (sampled == 0) return;
  // Every execution's share of the kernel's wall time, once per sampled
  // packet it ran: fn_ns[slot].count stays the sampled executions.
  const std::uint64_t share = (telemetry::now_ns() - t0) / executed;
  for (; sampled != 0; --sampled) env_.stats->fn_ns[slot].record(share);
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

void Router::quarantine(FaceId ingress, SimTime now, ProcessResult& result) {
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

// Inline: this is the per-FN call of a lone packet and of the fallback
// kernel, where an out-of-line call costs a lone packet measurably.
inline void Router::run_fn(BurstState& b, std::size_t p,
                           std::optional<fib::NextHop> next_hop, std::uint64_t walk_ns) {
  const FnTriple& fn = wave_fn(b, p);
  ProcessResult& result = b.results[p];
  // Algorithm 1, line 5: host-tagged operations are skipped by routers.
  if (fn.host_tagged()) {
    ++env_.counters.fn_skipped_host;
    return;
  }

  const OpKey key = fn.key();
  OpModule* module = find_module(key);
  if (module == nullptr || !env_.supports(key)) {
    // §2.4 heterogeneous configuration: a path-critical FN that this node
    // cannot honor triggers an ICMP-like notification; others are skipped.
    const auto info = fn_info(key);
    if (info && info->requires_full_path) {
      result.fail_unsupported(key);
      b.alive[p] = 0;
      return;
    }
    ++env_.counters.fn_skipped_optional;
    return;
  }

  FnRunState& state = b.run[p];
  const std::uint32_t cost = module->cost();
  if (cost > state.budget) {
    // §2.4: hard per-packet processing limit.
    result.drop(DropReason::kBudgetExhausted);
    b.alive[p] = 0;
    return;
  }
  state.budget -= cost;

  const std::size_t key_idx =
      static_cast<std::size_t>(key) % env_.counters.fn_by_key.size();
  // Per-FN latency, recorded only for packets the stats sampler picked
  // (never with stats disabled).
  const bool sampled = b.sampled[p] != 0;
  const std::uint64_t t0 = sampled ? telemetry::now_ns() : 0;

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
  ctx.next_hop = next_hop;

  ++env_.counters.fn_executed;
  ++env_.counters.fn_by_key[key_idx];
  if (const auto st = module->execute(ctx); !st) result.drop(DropReason::kMalformed);
  if (result.action != Action::kForward) b.alive[p] = 0;

  if (sampled) env_.stats->fn_ns[key_idx].record(telemetry::now_ns() - t0 + walk_ns);
}

}  // namespace dip::core
