// The switch model: one fixed description of the Tofino-like target.
//
// The paper's Tofino prototype (§4.1) fits DIP only through hand
// compromises; these constants state the resources those compromises
// ration, in the style of the synapse-klee TNAProperty model (SNIPPETS.md):
// a fixed number of match-action stages, per-stage SRAM/TCAM bit budgets, a
// bounded PHV container pool, per-stage action/ALU and crypto slots, and the
// parser's 4-byte-per-condition limit ("the Tofino compiler complains if we
// access more than 4 bytes of the packet on the same if statement").
//
// They also price the *relative* cycle costs that shape Figure 2: parsing,
// match-action lookups, ALU operations, cryptographic permutation rounds,
// and the full second transit that made AES unattractive and 2EM the MAC of
// choice ("2EM ... can be completed without resubmitting the packet, while
// the AES needs to resubmit the packet"). Cycles are abstract; only ratios
// matter. Extraction is free, as on real hardware.
//
// Like a P4 target description, the model is fixed: the stage-budget
// compiler (compiler.hpp) places against it and the emulator (Parser,
// Pipeline, Phv, MatchTable, RegisterArray) charges and bounds by it, so the
// compiler's verdicts and the emulator's budgets cannot disagree. Numbers
// are deliberately round, Tofino-*like*, not Tofino-exact, and tuned so the
// six Table-1 compositions land where the paper says they do (all
// deployable in a single pass with the 2EM MAC); the tests/vectors/pisa_*
// goldens pin them.
#pragma once

#include <cstddef>
#include <cstdint>

namespace dip::pisa {

using Cycles = std::uint64_t;

namespace tna {

// --- pipeline geometry ------------------------------------------------
inline constexpr std::size_t kStages = 12;     ///< match-action stages per pass
inline constexpr std::size_t kMaxPasses = 4;   ///< recirculation budget (incl. 1st)

// --- per-stage budgets ------------------------------------------------
inline constexpr std::uint64_t kSramBitsPerStage = 128ull * 1024 * 8;  ///< 128 KiB
inline constexpr std::uint64_t kTcamBitsPerStage = 44ull * 512 * 24;   ///< 66 KiB-ish
inline constexpr std::size_t kTablesPerStage = 8;       ///< logical tables
inline constexpr std::size_t kActionSlotsPerStage = 8;  ///< VLIW ALU lanes
inline constexpr std::size_t kCryptoSlotsPerStage = 4;  ///< permutation rounds

// --- header / parser budgets -----------------------------------------
inline constexpr std::size_t kPhvContainers = 64;       ///< 32-bit PHV containers
inline constexpr std::size_t kParserStates = 32;        ///< states one parse may visit
inline constexpr std::size_t kConditionBytes = 4;       ///< bytes per if-condition
inline constexpr std::size_t kMaxUnrolledFns = 8;       ///< FN ladder depth per pass
inline constexpr std::size_t kMaxLocationsBytes = 128;  ///< preset-slice loc ceiling

// --- table sizing (entries provisioned per logical table) -------------
inline constexpr std::uint32_t kSramEntriesPerTable = 1024;
inline constexpr std::uint32_t kTcamEntriesPerTable = 512;

// --- cycle costs ------------------------------------------------------
inline constexpr Cycles kParserStateCycles = 1;  ///< one parser state traversal
inline constexpr Cycles kExactCycles = 1;        ///< exact-match lookup
inline constexpr Cycles kLpmCycles = 2;          ///< LPM (TCAM/ALPM) lookup
inline constexpr Cycles kTernaryCycles = 2;      ///< ternary lookup
inline constexpr Cycles kAluCycles = 1;          ///< add/xor/shift on a PHV container
inline constexpr Cycles kCryptoRoundCycles = 4;  ///< one permutation round (2EM half)
/// Fixed ingress->egress latency; a resubmission or recirculation pays it
/// again in full.
inline constexpr Cycles kTransitCycles = 10;

}  // namespace tna
}  // namespace dip::pisa
