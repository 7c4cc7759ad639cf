// Match-action tables — the workhorse of a PISA stage.
//
// A table matches one PHV container (exact / LPM / ternary) and executes a
// small fixed action. Actions are a closed set, as on real hardware: set a
// container, drop, ALU ops, or a crypto permutation round.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "dip/pisa/phv.hpp"
#include "dip/pisa/tna_model.hpp"

namespace dip::pisa {

enum class MatchKind : std::uint8_t { kExact, kLpm, kTernary };

enum class ActionKind : std::uint8_t {
  kNoop,
  kSetContainer,   ///< phv[a] = imm
  kCopy,           ///< phv[a] = phv[b]
  kAdd,            ///< phv[a] += imm
  kXor,            ///< phv[a] ^= imm
  kXorReg,         ///< phv[a] ^= phv[b]
  kDrop,           ///< phv[kDropFlag] = 1
  kCryptoRound,    ///< models one public-permutation round over containers
};

struct Action {
  ActionKind kind = ActionKind::kNoop;
  Container a = 0;
  Container b = 0;
  std::uint32_t imm = 0;
};

struct TableEntry {
  std::uint32_t key = 0;
  /// kExact: ignored. kLpm: prefix length (0..32). kTernary: bit mask.
  std::uint32_t qualifier = 0;
  /// kTernary only: higher wins among multiple matches.
  std::int32_t priority = 0;
  Action action;
};

class MatchTable {
 public:
  MatchTable(MatchKind kind, Container key_container)
      : kind_(kind), key_(key_container) {}

  void add_entry(TableEntry entry) { entries_.push_back(entry); }
  void set_default_action(Action a) { default_action_ = a; }

  [[nodiscard]] MatchKind kind() const noexcept { return kind_; }
  [[nodiscard]] std::size_t entry_count() const noexcept { return entries_.size(); }

  /// Match against phv; returns the selected action (default if no hit).
  [[nodiscard]] Action lookup(const Phv& phv) const;

  [[nodiscard]] Cycles lookup_cost() const noexcept {
    switch (kind_) {
      case MatchKind::kExact: return tna::kExactCycles;
      case MatchKind::kLpm: return tna::kLpmCycles;
      case MatchKind::kTernary: return tna::kTernaryCycles;
    }
    return tna::kExactCycles;
  }

 private:
  MatchKind kind_;
  Container key_;
  std::vector<TableEntry> entries_;
  Action default_action_;
};

/// Execute one action; returns its cycle cost.
Cycles apply_action(const Action& action, Phv& phv) noexcept;

}  // namespace dip::pisa
