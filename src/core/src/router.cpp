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
  bound_.resize(n);  // every slot is written by phase 1 below

  // Phase timing is burst-sampled: the three histograms cost six clock
  // reads per *sampled* burst, nothing on the rest.
  telemetry::RouterStats* stats = env_.stats.get();
  const bool burst_timed = stats != nullptr && stats->burst_sampler.tick();
  std::uint64_t t_phase = burst_timed ? telemetry::now_ns() : 0;

  if (stats != nullptr) stats->burst_packets += n;

  // Waves pay per-burst setup (classification, group lists) that a batch
  // of one cannot amortize, so singletons keep the per-packet engine; work
  // items index packets in 16 bits, bounding the burst at 64k.
  const bool waves_allowed = n >= 2 && n <= 0xFFFF;

  // Uniform-program detection rides phase 1: line-rate traffic is
  // overwhelmingly homogeneous (every packet carries the same FN triples;
  // only the field *contents* differ flow to flow), and spotting that here
  // lets dispatch_burst classify the program once for the whole burst.
  // `exemplar` is the first bound packet; `uniform` stays true while every
  // later bound packet matches its program.
  std::size_t exemplar = n;
  bool uniform = waves_allowed;
  const auto track_uniform = [&](std::size_t i) {
    if (!uniform) return;
    if (exemplar == n) {
      exemplar = i;
      return;
    }
    const auto a = views_[exemplar].fns();
    const auto b = views_[i].fns();
    if (b.size() != a.size() ||
        views_[i].basic().parallel != views_[exemplar].basic().parallel) {
      uniform = false;
      return;
    }
    for (std::size_t f = 0; f < a.size(); ++f) {
      if (a[f] != b[f]) {
        uniform = false;
        return;
      }
    }
  };

  // Phase 1: bind every header in place (bind_into writes the batch
  // scratch slot directly — no by-value HeaderView copy), then the
  // structural checks + hop-limit decrement. Headers are prefetched one
  // packet ahead: the basic header and FN triples of packet i+1 land in L1
  // while packet i decodes. Untimed bursts take one merged pass; timed
  // bursts split it so the bind/validate histograms stay separable.
  std::uint64_t dropped = 0;
  const bool lenient = validation_ == ValidationMode::kLenient;
  if (!burst_timed) {
    for (std::size_t i = 0; i < n; ++i) {
      if (i + 1 < n && !packets[i + 1].bytes.empty()) {
        DIP_PREFETCH_R(packets[i + 1].bytes.data());
        if (packets[i + 1].bytes.size() > 64) {
          DIP_PREFETCH_R(packets[i + 1].bytes.data() + 64);
        }
      }
      results[i].reset();
      bound_[i] = 0;
      if (auto st = HeaderView::bind_into(packets[i].bytes, views_[i]); !st) {
        if (lenient) {
          quarantine(nullptr, ingress, now, results[i]);
        } else {
          results[i].drop(DropReason::kMalformed);
        }
        ++dropped;
        continue;
      }
      if (lenient && !fns_fit(views_[i])) {
        // A bindable header whose FN slices overrun the locations block is
        // byte damage, not a protocol violation: quarantine it.
        quarantine(&views_[i], ingress, now, results[i]);
        ++dropped;
        continue;
      }
      if (views_[i].fns().size() > env_.limits.max_fn_per_packet) {
        results[i].drop(DropReason::kBudgetExhausted);
        ++dropped;
        continue;
      }
      if (!views_[i].decrement_hop_limit()) {
        results[i].drop(DropReason::kHopLimitExceeded);
        ++dropped;
        continue;
      }
      bound_[i] = 1;
      track_uniform(i);
    }
  } else {
    // Phase 1a: bind.
    for (std::size_t i = 0; i < n; ++i) {
      if (i + 1 < n && !packets[i + 1].bytes.empty()) {
        DIP_PREFETCH_R(packets[i + 1].bytes.data());
        if (packets[i + 1].bytes.size() > 64) {
          DIP_PREFETCH_R(packets[i + 1].bytes.data() + 64);
        }
      }
      results[i].reset();
      bound_[i] = 0;
      if (auto st = HeaderView::bind_into(packets[i].bytes, views_[i]); !st) {
        if (lenient) {
          quarantine(nullptr, ingress, now, results[i]);
        } else {
          results[i].drop(DropReason::kMalformed);
        }
        continue;
      }
      bound_[i] = 1;
    }
    {
      const std::uint64_t t = telemetry::now_ns();
      stats->phase_bind.record(t - t_phase);
      t_phase = t;
    }

    // Phase 1b: structural checks + hop-limit decrement for every bound
    // packet.
    for (std::size_t i = 0; i < n; ++i) {
      if (!bound_[i]) {
        ++dropped;
        continue;
      }
      if (lenient && !fns_fit(views_[i])) {
        quarantine(&views_[i], ingress, now, results[i]);
        bound_[i] = 0;
        ++dropped;
        continue;
      }
      if (views_[i].fns().size() > env_.limits.max_fn_per_packet) {
        results[i].drop(DropReason::kBudgetExhausted);
        bound_[i] = 0;
        ++dropped;
        continue;
      }
      if (!views_[i].decrement_hop_limit()) {
        results[i].drop(DropReason::kHopLimitExceeded);
        bound_[i] = 0;
        ++dropped;
        continue;
      }
      track_uniform(i);
    }
    {
      const std::uint64_t t = telemetry::now_ns();
      stats->phase_validate.record(t - t_phase);
      t_phase = t;
    }
  }

  if (stats != nullptr) stats->burst_bound += n - dropped;

  // Phase 2: dispatch FNs. Eligible packets go through position-major
  // waves (module-major within a wave); the rest take the legacy
  // per-packet path. See dispatch_burst for the eligibility contract.
  std::uint64_t forwarded = 0;
  std::uint64_t errors = 0;
  dispatch_burst(packets, ingress, now, results, stats, waves_allowed, exemplar,
                 uniform, forwarded, dropped, errors);
  if (burst_timed) {
    stats->phase_dispatch.record(telemetry::now_ns() - t_phase);
  }

  env_.counters.processed += packets.size();
  if (forwarded != 0) env_.counters.forwarded += forwarded;
  if (dropped != 0) env_.counters.dropped += dropped;
  if (errors != 0) env_.counters.errors += errors;

  // Burst boundary: no snapshot pointers survive past here, so announce a
  // quiescent state to the control plane (no-op without one).
  env_.ctrl_quiesce();
}

void Router::dispatch_burst(std::span<const PacketRef> packets, FaceId ingress,
                            SimTime now, std::span<ProcessResult> results,
                            telemetry::RouterStats* stats, bool waves_allowed,
                            std::size_t exemplar, bool uniform,
                            std::uint64_t& forwarded, std::uint64_t& dropped,
                            std::uint64_t& errors) {
  const std::size_t n = packets.size();
  arena_.reset();

  // Per-packet phase-2 state, arena-backed (rewound wholesale next burst).
  constexpr std::uint8_t kDead = 0, kWave = 1, kLegacy = 2;
  std::uint8_t* alive = arena_.alloc<std::uint8_t>(n);
  std::uint8_t* smp = arena_.alloc<std::uint8_t>(n);
  FnRunState* states = arena_.alloc<FnRunState>(n);

  // Deterministic sampling: one tick per bound packet in arrival order —
  // the identical tick sequence the per-packet engine produced, so a
  // replayed stream samples the same packets whatever the dispatch shape.
  if (stats == nullptr) {
    std::memset(smp, 0, n);
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      smp[i] = bound_[i] != 0 && stats->packet_sampler.tick() ? 1 : 0;
    }
  }

  // ---- uniform-burst fast plan -------------------------------------------
  // Phase 1 already proved every bound packet carries the identical FN
  // program (see track_uniform in process_batch), so classify the program
  // once: each wave is a single same-key group already in arrival order,
  // and the per-packet classification and counting sort below are skipped
  // entirely. Mixed bursts fall through to the general plan.
  if (uniform && exemplar != n && !views_[exemplar].basic().parallel) {
    std::uint8_t stateful = 0;
    for (const FnTriple& fn : views_[exemplar].fns()) {
      if (fn.host_tagged()) continue;
      if (find_module(fn.key()) != nullptr && !op_burst_commutes(fn.key())) {
        ++stateful;
      }
    }
    if (stateful <= 1) {
      dispatch_burst_uniform(n, ingress, now, results, stats, exemplar, smp,
                             alive, states, forwarded, dropped, errors);
      return;
    }
  }

  // ---- classification ---------------------------------------------------
  // A packet rides the wave path iff it has no parallel bit (the §2.2
  // relax path and its counters stay per-packet) and at most one stateful
  // (non-burst_commutes) router-side FN. All stateful FNs across the burst
  // must sit at the same FN position: waves preserve arrival order within
  // one position, so that is exactly the condition under which cross-packet
  // state (PIT, DPS buckets, CC estimators) observes the legacy order.
  std::uint8_t* mode = arena_.alloc<std::uint8_t>(n);
  std::uint8_t* sfn = arena_.alloc<std::uint8_t>(n);  // stateful-FN count (capped at 2)
  bool stateful_ok = true;
  std::size_t stateful_pos = static_cast<std::size_t>(-1);
  std::size_t max_fns = 0;
  std::size_t wave_n = 0;
  std::size_t legacy_n = 0;

  for (std::size_t i = 0; i < n; ++i) {
    sfn[i] = 0;
    if (!bound_[i]) {
      mode[i] = kDead;
      continue;
    }
    if (!waves_allowed) {
      mode[i] = kLegacy;
      ++legacy_n;
      continue;
    }
    const auto fns = views_[i].fns();
    std::uint8_t stateful = 0;
    std::uint8_t pos = 0;
    for (std::size_t f = 0; f < fns.size(); ++f) {
      const FnTriple& fn = fns[f];
      if (fn.host_tagged()) continue;
      if (find_module(fn.key()) != nullptr && !op_burst_commutes(fn.key())) {
        if (stateful == 0) pos = static_cast<std::uint8_t>(f);
        if (stateful < 2) ++stateful;
      }
    }
    sfn[i] = stateful;
    if (views_[i].basic().parallel) {
      mode[i] = kLegacy;
      ++legacy_n;
      if (stateful != 0) stateful_ok = false;
      continue;
    }
    if (stateful > 1) {
      mode[i] = kLegacy;
      ++legacy_n;
      stateful_ok = false;
      continue;
    }
    if (stateful == 1) {
      if (stateful_pos == static_cast<std::size_t>(-1)) {
        stateful_pos = pos;
      } else if (stateful_pos != pos) {
        stateful_ok = false;
      }
    }
    mode[i] = kWave;
    ++wave_n;
    if (fns.size() > max_fns) max_fns = fns.size();
  }

  // Stateful FNs must execute in arrival order across the *whole* burst:
  // if any stateful packet fell off the wave path, or they disagree on
  // position, demote every stateful packet so one engine owns their order.
  if (!stateful_ok) {
    for (std::size_t i = 0; i < n; ++i) {
      if (mode[i] == kWave && sfn[i] != 0) {
        mode[i] = kLegacy;
        --wave_n;
        ++legacy_n;
      }
    }
  }

  if (stats != nullptr) {
    stats->burst_wave += wave_n;
    stats->burst_legacy += legacy_n;
  }

  // ---- wave (module-major) dispatch -------------------------------------
  if (wave_n != 0) {
    std::uint64_t t_wave = 0;
    for (std::size_t i = 0; i < n; ++i) {
      alive[i] = mode[i] == kWave ? 1 : 0;
      if (alive[i]) {
        new (&states[i]) FnRunState{env_.limits.per_packet_budget, {}};
        if (smp[i] && t_wave == 0) t_wave = telemetry::now_ns();
      }
    }

    // Group buckets: one per dense commuting key, plus the shared stateful
    // bucket (kept in arrival order), the host-tag bucket, and a generic
    // bucket for keys without a module (run_fn's skip/unsupported path).
    constexpr std::size_t kStatefulBucket = kModuleTableSize;
    constexpr std::size_t kHostBucket = kModuleTableSize + 1;
    constexpr std::size_t kMiscBucket = kModuleTableSize + 2;
    constexpr std::size_t kBuckets = kModuleTableSize + 3;

    std::uint16_t* order = arena_.alloc<std::uint16_t>(n);
    std::uint8_t* bucket_of = arena_.alloc<std::uint8_t>(n);

    // Wave i executes FN position i of every still-alive wave packet, so
    // per-packet sequencing (early exit, budget, scratch chaining) is
    // exactly the per-packet engine's; only cross-packet interleaving at
    // one position changes, and grouping made that safe.
    for (std::size_t pos = 0; pos < max_fns; ++pos) {
      std::array<std::uint16_t, kBuckets> counts{};
      std::size_t wave_items = 0;
      for (std::size_t i = 0; i < n; ++i) {
        if (!alive[i]) continue;
        const auto fns = views_[i].fns();
        if (pos >= fns.size()) continue;
        const FnTriple& fn = fns[pos];
        std::size_t b;
        if (fn.host_tagged()) {
          b = kHostBucket;
        } else {
          const auto key_idx = static_cast<std::size_t>(fn.key());
          if (key_idx < kModuleTableSize && module_table_[key_idx] != nullptr) {
            b = op_burst_commutes(fn.key()) ? key_idx : kStatefulBucket;
          } else if (find_module(fn.key()) != nullptr) {
            b = kStatefulBucket;  // out-of-table module: assume stateful
          } else {
            b = kMiscBucket;
          }
        }
        bucket_of[i] = static_cast<std::uint8_t>(b);
        ++counts[b];
        ++wave_items;
      }
      if (wave_items == 0) continue;

      // Stable counting sort: groups are contiguous in `order`, each in
      // arrival order.
      std::array<std::uint16_t, kBuckets> start{};
      std::uint16_t acc = 0;
      for (std::size_t b = 0; b < kBuckets; ++b) {
        start[b] = acc;
        acc = static_cast<std::uint16_t>(acc + counts[b]);
      }
      std::array<std::uint16_t, kBuckets> fill = start;
      for (std::size_t i = 0; i < n; ++i) {
        if (!alive[i] || pos >= views_[i].fns().size()) continue;
        order[fill[bucket_of[i]]++] = static_cast<std::uint16_t>(i);
      }

      for (std::size_t b = 0; b < kBuckets; ++b) {
        const std::size_t cnt = counts[b];
        if (cnt == 0) continue;
        const std::uint16_t* items = order + start[b];
        if (b == kHostBucket) {
          // Algorithm 1 line 5, for the whole group at once.
          env_.counters.fn_skipped_host += cnt;
          continue;
        }
        if (b == kStatefulBucket || b == kMiscBucket) {
          wave_run_items(pos, items, cnt, ingress, now, states, alive, smp, results);
          continue;
        }
        const OpKey key = static_cast<OpKey>(b);
        wave_group(key, module_table_[b], pos, items, cnt, ingress, now, states,
                   alive, smp, results);
      }
    }

    // Finalize wave packets: default-egress fallback, trace records, action
    // tallies — the per-packet engine's epilogue, verbatim.
    for (std::size_t i = 0; i < n; ++i) {
      if (mode[i] != kWave) continue;
      ProcessResult& result = results[i];
      if (result.action == Action::kForward && result.egress.empty()) {
        if (env_.default_egress) {
          result.egress.push_back(*env_.default_egress);
        } else {
          result.drop(DropReason::kNoRoute);
        }
      }
      if (smp[i]) record_trace(views_[i], ingress, now, t_wave, result);
      switch (result.action) {
        case Action::kForward: ++forwarded; break;
        case Action::kDrop: ++dropped; break;
        case Action::kError: ++errors; break;
      }
    }
  }

  // ---- legacy per-packet dispatch ----------------------------------------
  // Runs after the waves; safe because by construction either the wave set
  // or the legacy set holds all the burst's stateful FNs, never both, and
  // commuting FNs are order-free across packets.
  for (std::size_t i = 0; i < n; ++i) {
    if (mode[i] != kLegacy) continue;
    ProcessResult& result = results[i];
    const std::uint64_t t_dispatch = smp[i] ? telemetry::now_ns() : 0;
    sample_this_packet_ = smp[i] != 0;
    dispatch(views_[i], ingress, now, result);
    sample_this_packet_ = false;

    // No match FN decided an egress: fall back to the wired default port
    // (the paper's one-hop eval setup), else drop.
    if (result.action == Action::kForward && result.egress.empty()) {
      if (env_.default_egress) {
        result.egress.push_back(*env_.default_egress);
      } else {
        result.drop(DropReason::kNoRoute);
      }
    }

    if (smp[i]) record_trace(views_[i], ingress, now, t_dispatch, result);

    switch (result.action) {
      case Action::kForward: ++forwarded; break;
      case Action::kDrop: ++dropped; break;
      case Action::kError: ++errors; break;
    }
  }

  if (stats != nullptr) {
    stats->arena_high_water.record(arena_.high_water());
    stats->arena_capacity.record(arena_.capacity());
  }
}

void Router::dispatch_burst_uniform(std::size_t n, FaceId ingress, SimTime now,
                                    std::span<ProcessResult> results,
                                    telemetry::RouterStats* stats,
                                    std::size_t exemplar, std::uint8_t* smp,
                                    std::uint8_t* alive, FnRunState* states,
                                    std::uint64_t& forwarded, std::uint64_t& dropped,
                                    std::uint64_t& errors) {
  // The whole burst is one wave group per FN position: `live` lists the
  // still-running packets in arrival order and is compacted in place after
  // each wave, so group order is always arrival order (the stateful-FN
  // ordering contract holds trivially).
  std::uint16_t* live = arena_.alloc<std::uint16_t>(n);
  std::size_t live_n = 0;
  std::uint64_t t_wave = 0;
  for (std::size_t i = 0; i < n; ++i) {
    alive[i] = bound_[i];
    if (!bound_[i]) continue;
    new (&states[i]) FnRunState{env_.limits.per_packet_budget, {}};
    live[live_n++] = static_cast<std::uint16_t>(i);
    if (smp[i] && t_wave == 0) t_wave = telemetry::now_ns();
  }
  if (stats != nullptr) stats->burst_wave += live_n;

  const auto fns = views_[exemplar].fns();
  for (std::size_t pos = 0; pos < fns.size() && live_n != 0; ++pos) {
    const FnTriple& fn = fns[pos];
    if (fn.host_tagged()) {
      // Algorithm 1 line 5, for the whole burst at once.
      env_.counters.fn_skipped_host += live_n;
      continue;
    }
    const OpKey key = fn.key();
    wave_group(key, find_module(key), pos, live, live_n, ingress, now, states,
               alive, smp, results);
    std::size_t w = 0;
    for (std::size_t k = 0; k < live_n; ++k) {
      if (alive[live[k]]) live[w++] = live[k];
    }
    live_n = w;
  }

  // Epilogue: default-egress fallback, trace records, action tallies —
  // identical to the per-packet engine's.
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
    if (smp[i]) record_trace(views_[i], ingress, now, t_wave, result);
    switch (result.action) {
      case Action::kForward: ++forwarded; break;
      case Action::kDrop: ++dropped; break;
      case Action::kError: ++errors; break;
    }
  }

  if (stats != nullptr) {
    stats->arena_high_water.record(arena_.high_water());
    stats->arena_capacity.record(arena_.capacity());
  }
}

void Router::wave_group(OpKey key, OpModule* module, std::size_t pos,
                        const std::uint16_t* items, std::size_t count,
                        FaceId ingress, SimTime now, FnRunState* states,
                        std::uint8_t* alive, const std::uint8_t* sampled,
                        std::span<ProcessResult> results) {
  if (module == nullptr || !env_.supports(key)) {
    // run_fn's §2.4 heterogeneous-configuration path, once per group.
    const auto info = fn_info(key);
    if (info && info->requires_full_path) {
      for (std::size_t k = 0; k < count; ++k) {
        results[items[k]].fail_unsupported(key);
        alive[items[k]] = 0;
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
        wave_match(key, module, pos, items, count, ingress, now, states, alive,
                   sampled, results);
        return;
      }
      break;
    case OpKey::kParm:
      wave_parm(module, pos, items, count, states, alive, sampled, results,
                ingress, now);
      return;
    case OpKey::kMac:
      if (env_.mac_kind == crypto::MacKind::kEm2) {
        wave_mac(module, pos, items, count, states, alive, sampled, results,
                 ingress, now);
        return;
      }
      break;
    default:
      break;
  }
  wave_run_items(pos, items, count, ingress, now, states, alive, sampled, results);
}

void Router::wave_run_items(std::size_t pos, const std::uint16_t* items,
                            std::size_t count, FaceId ingress, SimTime now,
                            FnRunState* states, std::uint8_t* alive,
                            const std::uint8_t* sampled,
                            std::span<ProcessResult> results) {
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
    const std::size_t width = sampled[p] ? 0 : lpm_width(views_[p].fns()[pos]);
    want[k] = width != 0 && (width == 32 ? f32 != nullptr : f128 != nullptr);
    any_want |= want[k] != 0;
  }
  if (any_want) resolve_lookups(pos, items, count, want, f32, f128, answers);

  for (std::size_t k = 0; k < count; ++k) {
    const std::size_t p = items[k];
    sample_this_packet_ = sampled[p] != 0;
    const std::optional<fib::NextHop> next_hop =
        want[k] ? std::optional(answers[k]) : std::nullopt;
    if (!run_fn(views_[p].fns()[pos], views_[p], ingress, now, states[p], results[p],
                next_hop)) {
      alive[p] = 0;
    }
  }
  sample_this_packet_ = false;
}

void Router::resolve_lookups(std::size_t pos, const std::uint16_t* items,
                             std::size_t count, const std::uint8_t* want,
                             const fib::Ipv4Lpm* f32, const fib::Ipv6Lpm* f128,
                             fib::NextHop* answers) {
  // Gather each wanted field into its table's address list, issue one
  // lookup_batch per table, and scatter the answers back to item order.
  auto* addrs4 = arena_.alloc<fib::Ipv4Addr>(count);
  auto* addrs6 = arena_.alloc<fib::Ipv6Addr>(count);
  std::uint16_t* item4 = arena_.alloc<std::uint16_t>(count);
  std::uint16_t* item6 = arena_.alloc<std::uint16_t>(count);
  std::size_t n4 = 0;
  std::size_t n6 = 0;
  for (std::size_t k = 0; k < count; ++k) {
    if (!want[k]) continue;
    const HeaderView& view = views_[items[k]];
    const FnTriple& fn = view.fns()[pos];
    const std::uint8_t* field = view.locations().data() + fn.field_loc / 8;
    if (fn.key() == OpKey::kMatch128) {
      std::memcpy(addrs6[n6].bytes.data(), field, 16);
      item6[n6++] = static_cast<std::uint16_t>(k);
    } else {
      std::memcpy(addrs4[n4].bytes.data(), field, 4);
      item4[n4++] = static_cast<std::uint16_t>(k);
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

void Router::wave_match(OpKey key, OpModule* module, std::size_t pos,
                        const std::uint16_t* items, std::size_t count,
                        FaceId ingress, SimTime now, FnRunState* states,
                        std::uint8_t* alive, const std::uint8_t* sampled,
                        std::span<ProcessResult> results) {
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
    if (sampled[p] || !view_ok) continue;
    const FnTriple& fn = views_[p].fns()[pos];
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
  if (any_want) resolve_lookups(pos, items, count, want, f32, f128, answers);

  // Pass B, in arrival order (a miss's insert must be visible to the next
  // identical flow, exactly as the per-packet engine fills the cache).
  // Counter deltas stay local and flush once per group: the relaxed
  // fetch_adds were the single largest per-packet cost on this path.
  std::uint64_t executed = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  for (std::size_t k = 0; k < count; ++k) {
    const std::size_t p = items[k];
    ProcessResult& result = results[p];
    FnRunState& state = states[p];
    if (!fast[k]) {
      sample_this_packet_ = sampled[p] != 0;
      if (!run_fn(views_[p].fns()[pos], views_[p], ingress, now, state, result)) {
        alive[p] = 0;
      }
      sample_this_packet_ = false;
      continue;
    }
    if (cost > state.budget) {
      result.drop(DropReason::kBudgetExhausted);
      alive[p] = 0;
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
        alive[p] = 0;
        continue;
      }
      result.egress.assign(1, v->egress);
      if (result.action != Action::kForward) alive[p] = 0;
      continue;
    }
    ++misses;
    const FnTriple& fn = views_[p].fns()[pos];
    OpContext ctx;
    ctx.locations = views_[p].locations();
    ctx.field = fn.range();
    ctx.fn = fn;
    ctx.payload = views_[p].payload();
    ctx.ingress = ingress;
    ctx.now = now;
    ctx.env = &env_;
    ctx.result = &result;
    ctx.scratch = &state.scratch;
    if (want[k]) ctx.next_hop = answers[k];
    const bool egress_was_empty = result.egress.empty();
    if (const auto st = module->execute(ctx); !st) {
      result.drop(DropReason::kMalformed);
      alive[p] = 0;
      continue;
    }
    if (result.action == Action::kForward && egress_was_empty &&
        result.egress.size() == 1) {
      cache->insert(slice, generation, {result.egress[0], false});
    } else if (result.action == Action::kDrop &&
               result.reason == DropReason::kNoRoute) {
      cache->insert(slice, generation, {0, true});
    }
    if (result.action != Action::kForward) alive[p] = 0;
  }
  env_.counters.fn_executed += executed;
  env_.counters.fn_by_key[key_slot] += executed;
  if (hits != 0) env_.counters.flow_cache_hits += hits;
  if (misses != 0) env_.counters.flow_cache_misses += misses;
}

void Router::wave_parm(OpModule* module, std::size_t pos,
                       const std::uint16_t* items, std::size_t count,
                       FnRunState* states, std::uint8_t* alive,
                       const std::uint8_t* sampled,
                       std::span<ProcessResult> results, FaceId ingress,
                       SimTime now) {
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
  std::uint16_t* lanes = arena_.alloc<std::uint16_t>(count);
  std::size_t lane_n = 0;
  std::uint64_t executed = 0;
  for (std::size_t k = 0; k < count; ++k) {
    const std::size_t p = items[k];
    FnRunState& state = states[p];
    const FnTriple& fn = views_[p].fns()[pos];
    const bytes::BitRange range = fn.range();
    if (sampled[p] || range.bit_length != 128 || !range.byte_aligned()) {
      // ParmOp's malformed-field errors (and sampled timing) keep the
      // exact run_fn path.
      sample_this_packet_ = sampled[p] != 0;
      if (!run_fn(fn, views_[p], ingress, now, state, results[p])) alive[p] = 0;
      sample_this_packet_ = false;
      continue;
    }
    if (cost > state.budget) {
      results[p].drop(DropReason::kBudgetExhausted);
      alive[p] = 0;
      continue;
    }
    state.budget -= cost;
    ++executed;
    sids[lane_n] = crypto::block_from(
        views_[p].locations().subspan(range.bit_offset / 8, 16));
    lanes[lane_n] = static_cast<std::uint16_t>(p);
    ++lane_n;
  }
  if (lane_n != 0) {
    drkey_->derive_blocks(sids, keys, lane_n);
    for (std::size_t k = 0; k < lane_n; ++k) {
      states[lanes[k]].scratch.dynamic_key = keys[k];
    }
  }
  env_.counters.fn_executed += executed;
  env_.counters.fn_by_key[key_slot] += executed;
}

void Router::wave_mac(OpModule* module, std::size_t pos,
                      const std::uint16_t* items, std::size_t count,
                      FnRunState* states, std::uint8_t* alive,
                      const std::uint8_t* sampled,
                      std::span<ProcessResult> results, FaceId ingress,
                      SimTime now) {
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
    FnRunState& state = states[p];
    const FnTriple& fn = views_[p].fns()[pos];
    const bytes::BitRange range = fn.range();
    const bool batchable = !sampled[p] && state.scratch.dynamic_key.has_value() &&
                           range.byte_aligned() && range.bit_length != 0;
    if (!batchable) {
      // Missing F_parm (kState error), unaligned/empty coverage, or a
      // sampled packet: exact run_fn semantics.
      sample_this_packet_ = sampled[p] != 0;
      if (!run_fn(fn, views_[p], ingress, now, state, results[p])) alive[p] = 0;
      sample_this_packet_ = false;
      continue;
    }
    if (cost > state.budget) {
      results[p].drop(DropReason::kBudgetExhausted);
      alive[p] = 0;
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

void Router::dispatch(HeaderView& view, FaceId ingress, SimTime now,
                      ProcessResult& result) {
  if (view.basic().parallel) {
    // §2.2 modular parallelism: the sender asserts the FNs are independent;
    // the router verifies (order-independent keys, disjoint fields) before
    // relaxing the schedule, and falls back to sequential order otherwise.
    if (relax_eligible(view)) {
      ++env_.counters.parallel_relaxed;
      dispatch_relaxed(view, ingress, now, result);
      return;
    }
    ++env_.counters.parallel_fallback;
  }
  FnRunState state{env_.limits.per_packet_budget, {}};
  for (const FnTriple& fn : view.fns()) {
    if (!run_fn(fn, view, ingress, now, state, result)) return;
  }
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

void Router::dispatch_relaxed(HeaderView& view, FaceId ingress, SimTime now,
                              ProcessResult& result) {
  // Relaxed ordering: any schedule is legal for independent FNs. Running
  // back to front is the cheapest observably different one — it keeps the
  // relaxation honest (a dependence bug shows up as a verdict difference in
  // the batch-equivalence property test).
  FnRunState state{env_.limits.per_packet_budget, {}};
  const auto fns = view.fns();
  for (std::size_t i = fns.size(); i-- > 0;) {
    if (!run_fn(fns[i], view, ingress, now, state, result)) return;
  }
}

}  // namespace dip::core
