#include "dip/pisa/table.hpp"

namespace dip::pisa {

Action MatchTable::lookup(const Phv& phv) const {
  const std::uint32_t key = phv.get(key_);

  switch (kind_) {
    case MatchKind::kExact: {
      for (const TableEntry& e : entries_) {
        if (e.key == key) return e.action;
      }
      break;
    }
    case MatchKind::kLpm: {
      const TableEntry* best = nullptr;
      for (const TableEntry& e : entries_) {
        const std::uint32_t mask =
            e.qualifier == 0 ? 0u : ~0u << (32 - e.qualifier);
        if ((key & mask) == (e.key & mask)) {
          // >= : a re-added entry (same prefix) overrides the older one,
          // matching control-plane replace semantics.
          if (best == nullptr || e.qualifier >= best->qualifier) best = &e;
        }
      }
      if (best) return best->action;
      break;
    }
    case MatchKind::kTernary: {
      const TableEntry* best = nullptr;
      for (const TableEntry& e : entries_) {
        if ((key & e.qualifier) == (e.key & e.qualifier)) {
          // >= : later equal-priority entries override (replace semantics).
          if (best == nullptr || e.priority >= best->priority) best = &e;
        }
      }
      if (best) return best->action;
      break;
    }
  }
  return default_action_;
}

Cycles apply_action(const Action& action, Phv& phv) noexcept {
  switch (action.kind) {
    case ActionKind::kNoop:
      return 0;
    case ActionKind::kSetContainer:
      phv.set(action.a, action.imm);
      return tna::kAluCycles;
    case ActionKind::kCopy:
      phv.set(action.a, phv.get(action.b));
      return tna::kAluCycles;
    case ActionKind::kAdd:
      phv.set(action.a, phv.get(action.a) + action.imm);
      return tna::kAluCycles;
    case ActionKind::kXor:
      phv.set(action.a, phv.get(action.a) ^ action.imm);
      return tna::kAluCycles;
    case ActionKind::kXorReg:
      phv.set(action.a, phv.get(action.a) ^ phv.get(action.b));
      return tna::kAluCycles;
    case ActionKind::kDrop:
      phv.set(phv_layout::kDropFlag, 1);
      return tna::kAluCycles;
    case ActionKind::kCryptoRound: {
      // A lightweight stand-in mixing: enough to make data flow observable
      // in tests; the *cost* is what matters for the Figure-2 shape.
      std::uint32_t v = phv.get(action.a);
      v ^= phv.get(action.b);
      v = (v << 7) | (v >> 25);
      v *= 0x9e3779b1u;
      phv.set(action.a, v);
      return tna::kCryptoRoundCycles;
    }
  }
  return 0;
}

}  // namespace dip::pisa
