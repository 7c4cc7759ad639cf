// PISA model: parser state machine on real DIP bytes, match-action tables,
// pipeline cost accounting against the fixed switch model, the
// Figure-2-shaped analytical cost ordering, and the stage-budget compiler
// (golden cost reports for the Table-1 fit matrix + a property suite over
// generated compositions; see docs/PISA.md).
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "dip/core/ip.hpp"
#include "dip/dtn/custody.hpp"
#include "dip/ndn/ndn.hpp"
#include "dip/opt/opt.hpp"
#include "dip/pisa/compiler.hpp"
#include "dip/pisa/dip_program.hpp"
#include "dip/pisa/pipeline.hpp"
#include "dip/pisa/table1.hpp"
#include "proptest/proptest.hpp"

namespace dip::pisa {
namespace {

using core::FnTriple;
using core::OpKey;

// ---------- parser ----------

TEST(Parser, ExtractsDipBasicHeaderAndTriples) {
  const auto header = core::make_dip32_header(fib::ipv4_from_u32(0xC0000201),
                                              fib::ipv4_from_u32(0x0A000001));
  ASSERT_TRUE(header.has_value());
  const auto wire = header->serialize();

  const Parser parser = build_dip_parser(/*fn_count=*/2, /*locations_bytes=*/8);
  const auto outcome = parser.parse(wire);
  ASSERT_TRUE(outcome);

  const Phv& phv = outcome->phv;
  EXPECT_EQ(phv.get(phv_layout::kFnNum), 2u);
  EXPECT_EQ(phv.get(phv_layout::kHopLimit), 64u);
  // First triple: loc 0, len 32 -> container holds 0x00000020.
  EXPECT_EQ(phv.get(phv_layout::kFnBase), 0x00000020u);
  EXPECT_EQ(phv.get(phv_layout::kFnBase + 1), 1u);  // key 1 = F_32_match
  // Locations: destination address in the first loc container.
  EXPECT_EQ(phv.get(phv_layout::kLocBase), 0xC0000201u);
  EXPECT_EQ(phv.get(phv_layout::kLocBase + 1), 0x0A000001u);
  EXPECT_EQ(outcome->consumed, wire.size());
}

TEST(Parser, RejectsFnNumBeyondLadder) {
  // A 3-FN packet against a 2-deep ladder: the static if-else cannot handle
  // it — exactly the §4.1 compromise made observable.
  core::HeaderBuilder b;
  std::array<std::uint8_t, 4> field{};
  const auto loc = b.add_location(field);
  for (int i = 0; i < 3; ++i) b.add_fn(FnTriple::router(loc, 32, OpKey::kSource));
  const auto wire = b.build()->serialize();

  const Parser parser = build_dip_parser(2, 4);
  EXPECT_FALSE(parser.parse(wire));
}

TEST(Parser, TruncatedPacketRejected) {
  const Parser parser = build_dip_parser(2, 8);
  const std::array<std::uint8_t, 4> stub = {0, 2, 64, 0};
  EXPECT_FALSE(parser.parse(stub));
}

TEST(Parser, LoopGuardStopsRunawayMachines) {
  Parser parser;
  ParserState s;
  s.advance = 0;
  s.default_next = 0;  // self-loop
  parser.add_state(std::move(s));
  const std::array<std::uint8_t, 8> data{};
  const auto outcome = parser.parse(data);
  ASSERT_FALSE(outcome);
  EXPECT_EQ(outcome.error(), bytes::Error::kOverflow);
}

// ---------- tables ----------

TEST(MatchTable, ExactMatch) {
  MatchTable table(MatchKind::kExact, 0);
  table.add_entry({42, 0, 0, {ActionKind::kSetContainer, 1, 0, 99}});
  table.set_default_action({ActionKind::kDrop, 0, 0, 0});

  Phv phv;
  phv.set(0, 42);
  const Action hit = table.lookup(phv);
  EXPECT_EQ(hit.kind, ActionKind::kSetContainer);

  phv.set(0, 43);
  EXPECT_EQ(table.lookup(phv).kind, ActionKind::kDrop);
}

TEST(MatchTable, LpmPrefersLongerPrefix) {
  MatchTable table(MatchKind::kLpm, 0);
  table.add_entry({0x0A000000, 8, 0, {ActionKind::kSetContainer, 1, 0, 1}});
  table.add_entry({0x0A010000, 16, 0, {ActionKind::kSetContainer, 1, 0, 2}});

  Phv phv;
  phv.set(0, 0x0A010105);
  EXPECT_EQ(table.lookup(phv).imm, 2u);
  phv.set(0, 0x0A020105);
  EXPECT_EQ(table.lookup(phv).imm, 1u);
  phv.set(0, 0x0B000000);
  EXPECT_EQ(table.lookup(phv).kind, ActionKind::kNoop);  // default default
}

TEST(MatchTable, TernaryPriority) {
  MatchTable table(MatchKind::kTernary, 0);
  table.add_entry({0x1000, 0xF000, 1, {ActionKind::kSetContainer, 1, 0, 1}});
  table.add_entry({0x1200, 0xFF00, 5, {ActionKind::kSetContainer, 1, 0, 2}});

  Phv phv;
  phv.set(0, 0x1234);
  EXPECT_EQ(table.lookup(phv).imm, 2u) << "higher priority wins";
  phv.set(0, 0x1934);
  EXPECT_EQ(table.lookup(phv).imm, 1u);
}

TEST(Actions, AluSemantics) {
  Phv phv;
  apply_action({ActionKind::kSetContainer, 3, 0, 7}, phv);
  EXPECT_EQ(phv.get(3), 7u);
  apply_action({ActionKind::kAdd, 3, 0, 5}, phv);
  EXPECT_EQ(phv.get(3), 12u);
  apply_action({ActionKind::kXor, 3, 0, 0xF}, phv);
  EXPECT_EQ(phv.get(3), 3u);
  phv.set(4, 0xFF);
  apply_action({ActionKind::kXorReg, 3, 4, 0}, phv);
  EXPECT_EQ(phv.get(3), 0xFCu);
  apply_action({ActionKind::kCopy, 5, 3, 0}, phv);
  EXPECT_EQ(phv.get(5), 0xFCu);
  apply_action({ActionKind::kDrop, 0, 0, 0}, phv);
  EXPECT_EQ(phv.get(phv_layout::kDropFlag), 1u);
}

// ---------- pipeline ----------

TEST(Pipeline, StageCostIsMaxOfTables) {
  Pipeline pipe;
  Stage stage;
  stage.tables.emplace_back(MatchKind::kExact, 0);   // cost 1
  stage.tables.emplace_back(MatchKind::kLpm, 1);     // cost 2
  ASSERT_TRUE(pipe.add_stage(std::move(stage)));

  Phv phv;
  const auto run = pipe.run(phv);
  EXPECT_EQ(run.cycles, tna::kTransitCycles + tna::kLpmCycles);
}

TEST(Pipeline, DropShortCircuitsRemainingStages) {
  Pipeline pipe;
  Stage s1;
  MatchTable t(MatchKind::kExact, 0);
  t.set_default_action({ActionKind::kDrop, 0, 0, 0});
  s1.tables.push_back(std::move(t));
  ASSERT_TRUE(pipe.add_stage(std::move(s1)));

  Stage s2;
  MatchTable t2(MatchKind::kExact, 0);
  t2.set_default_action({ActionKind::kSetContainer, 9, 0, 1});
  s2.tables.push_back(std::move(t2));
  ASSERT_TRUE(pipe.add_stage(std::move(s2)));

  Phv phv;
  const auto run = pipe.run(phv);
  EXPECT_TRUE(run.dropped);
  EXPECT_EQ(phv.get(9), 0u) << "stage 2 must not run after drop";
}

TEST(Pipeline, ResubmitsCostFullTransits) {
  Pipeline pipe;
  Phv phv;
  const auto once = pipe.run(phv);
  const auto twice = pipe.run_with_resubmits(phv, 1);
  ASSERT_TRUE(twice);
  EXPECT_EQ(twice->cycles, 2 * once.cycles);
  EXPECT_EQ(twice->resubmissions, 1u);
  EXPECT_FALSE(pipe.run_with_resubmits(phv, tna::kMaxPasses));
}

TEST(Pipeline, StageBudgetEnforced) {
  Pipeline pipe;
  for (std::size_t i = 0; i < tna::kStages; ++i) {
    ASSERT_TRUE(pipe.add_stage(Stage{}));
  }
  EXPECT_FALSE(pipe.add_stage(Stage{}));
}

// ---------- Figure-2-shaped cost ordering ----------

struct ProtocolCost {
  const char* name;
  Cycles cycles;
};

SwitchCostBreakdown cost_of(std::span<const FnTriple> fns, std::size_t loc_bytes,
                            bool aes = false) {
  return estimate_protocol_cycles(fns, loc_bytes, aes);
}

TEST(Figure2Shape, OrderingMatchesPaper) {
  const auto dip32 = core::make_dip32_header(fib::ipv4_from_u32(1), fib::ipv4_from_u32(2));
  const auto dip128 = core::make_dip128_header(fib::parse_ipv6("::1").value(),
                                               fib::parse_ipv6("::2").value());
  const auto ndn = ndn::make_interest_header32(7);
  const auto opt_fns = opt::opt_fn_triples();

  const Cycles c32 = cost_of(dip32->fns, dip32->locations.size()).total();
  const Cycles c128 = cost_of(dip128->fns, dip128->locations.size()).total();
  const Cycles cndn = cost_of(ndn->fns, ndn->locations.size()).total();
  const Cycles copt = cost_of(opt_fns, opt::kBlockBytes).total();

  // The Figure 2 shape: IP-style and NDN forwarding are close; OPT is
  // clearly more expensive (MAC-dominated).
  EXPECT_LT(c32, copt);
  EXPECT_LT(c128, copt);
  EXPECT_LT(cndn, copt);
  EXPECT_GT(copt, 2 * cndn) << "MAC dominates: a clear gap, not noise";

  // NDN+OPT ~ OPT + a name lookup.
  std::vector<FnTriple> ndn_opt{FnTriple::router(544, 32, OpKey::kFib)};
  ndn_opt.insert(ndn_opt.end(), opt_fns.begin(), opt_fns.end());
  const Cycles cndnopt = cost_of(ndn_opt, opt::kBlockBytes + 4).total();
  EXPECT_GT(cndnopt, copt);
  EXPECT_LT(cndnopt - copt, copt / 2);
}

TEST(Figure2Shape, AesMacNeedsResubmitAndCostsMore) {
  const auto fns = opt::opt_fn_triples();
  const auto em2 = cost_of(fns, opt::kBlockBytes, /*aes=*/false);
  const auto aes = cost_of(fns, opt::kBlockBytes, /*aes=*/true);
  EXPECT_EQ(em2.resubmissions, 0u) << "2EM completes in one pass (4.1)";
  EXPECT_EQ(aes.resubmissions, 1u) << "AES resubmits the packet (4.1)";
  EXPECT_GT(aes.total(), em2.total());
}

TEST(Figure2Shape, HostTaggedFnsCostNothingOnSwitch) {
  const std::vector<FnTriple> with_ver = opt::opt_fn_triples();
  std::vector<FnTriple> without_ver(with_ver.begin(), with_ver.end() - 1);
  const auto a = cost_of(with_ver, opt::kBlockBytes);
  const auto b = cost_of(without_ver, opt::kBlockBytes);
  EXPECT_EQ(a.match, b.match);
  EXPECT_EQ(a.crypto, b.crypto);
}

TEST(FnProfiles, MacScalesWithCoverage) {
  const auto small = fn_switch_profile(FnTriple::router(0, 128, OpKey::kMac));
  const auto large = fn_switch_profile(FnTriple::router(0, 416, OpKey::kMac));
  EXPECT_LT(small.crypto_rounds, large.crypto_rounds);
}

}  // namespace
}  // namespace dip::pisa

// ---------- switch-mode DIP-32 forwarder (differential vs core::Router) ----

#include "dip/netsim/topology.hpp"
#include "dip/pisa/switch_forwarder.hpp"

namespace dip::pisa {
namespace {

TEST(SwitchForwarder, ForwardsByLpm) {
  SwitchForwarder sw;
  sw.add_route({fib::parse_ipv4("10.0.0.0").value(), 8}, 1);
  sw.add_route({fib::parse_ipv4("10.1.0.0").value(), 16}, 2);

  const auto h = core::make_dip32_header(fib::parse_ipv4("10.1.2.3").value(),
                                         fib::parse_ipv4("172.16.0.1").value());
  const auto outcome = sw.forward(h->serialize());
  ASSERT_TRUE(outcome.has_value());
  ASSERT_TRUE(outcome->egress.has_value());
  EXPECT_EQ(*outcome->egress, 2u) << "longest prefix must win on the switch too";
  EXPECT_GT(outcome->cycles, 0u);
}

TEST(SwitchForwarder, DropsWithoutRoute) {
  SwitchForwarder sw;
  sw.add_route({fib::parse_ipv4("10.0.0.0").value(), 8}, 1);
  const auto h = core::make_dip32_header(fib::parse_ipv4("11.0.0.1").value(),
                                         fib::parse_ipv4("172.16.0.1").value());
  const auto outcome = sw.forward(h->serialize());
  ASSERT_TRUE(outcome.has_value());
  EXPECT_FALSE(outcome->egress.has_value());
}

TEST(SwitchForwarder, RejectsTruncatedPackets) {
  SwitchForwarder sw;
  const std::array<std::uint8_t, 5> stub = {0, 2, 64, 0, 0};
  EXPECT_FALSE(sw.forward(stub));
}

// Differential: software Algorithm-1 router and the PISA program must agree
// on every packet for the DIP-32 composition.
TEST(SwitchForwarder, AgreesWithSoftwareRouter) {
  crypto::Xoshiro256 rng(2024);
  SwitchForwarder sw;
  core::RouterEnv env = netsim::make_basic_env(1);
  const auto registry = netsim::make_default_registry();

  // 50 clustered random routes into both planes.
  for (int i = 0; i < 50; ++i) {
    fib::Ipv4Prefix p{fib::ipv4_from_u32(0x0A000000 | (rng.u32() & 0x00FFFFFF)),
                      static_cast<std::uint8_t>(8 + rng.below(25))};
    p.normalize();
    const auto nh = static_cast<fib::NextHop>(rng.below(64));
    sw.add_route(p, nh);
    env.fib32->insert(p, nh);
  }
  core::Router router(std::move(env), registry.get());

  for (int i = 0; i < 500; ++i) {
    const auto dst = fib::ipv4_from_u32(0x0A000000 | (rng.u32() & 0x00FFFFFF));
    const auto h = core::make_dip32_header(dst, fib::ipv4_from_u32(0xC0A80001));
    auto wire = h->serialize();

    const auto sw_out = sw.forward(wire);
    ASSERT_TRUE(sw_out.has_value());
    const auto rt_out = router.process(wire, 0, 0);

    if (rt_out.action == core::Action::kForward) {
      ASSERT_TRUE(sw_out->egress.has_value()) << "switch dropped, router forwarded";
      EXPECT_EQ(*sw_out->egress, rt_out.egress[0]);
    } else {
      EXPECT_FALSE(sw_out->egress.has_value()) << "switch forwarded, router dropped";
    }
  }
}

TEST(SwitchForwarder, RuntimeRouteInstallationWorks) {
  // FIB updates land in the match table without rebuilding the pipeline —
  // the runtime-programmability story at the table-entry level.
  SwitchForwarder sw;
  const auto h = core::make_dip32_header(fib::parse_ipv4("10.9.9.9").value(),
                                         fib::parse_ipv4("172.16.0.1").value());
  const auto wire = h->serialize();
  EXPECT_FALSE(sw.forward(wire)->egress.has_value());
  sw.add_route({fib::parse_ipv4("10.9.0.0").value(), 16}, 5);
  EXPECT_EQ(sw.forward(wire)->egress.value(), 5u);
  EXPECT_EQ(sw.route_count(), 1u);
}

// ---------- parser: malformed-program and malformed-packet outcomes ----------

TEST(Parser, EmptyParserIsAStateError) {
  const Parser parser;
  const auto outcome = parser.parse(std::vector<std::uint8_t>(8, 0));
  ASSERT_FALSE(outcome.has_value());
  EXPECT_EQ(outcome.error(), bytes::Error::kState);
}

TEST(Parser, ZeroOrOversizedExtractWidthIsTruncated) {
  // Width 0 and width > 4 both violate the container extract contract, even
  // when the packet has plenty of bytes.
  for (const std::uint8_t width : {std::uint8_t{0}, std::uint8_t{5}}) {
    Parser parser;
    ParserState s;
    s.extracts = {{0, width, phv_layout::kNextHeader}};
    parser.add_state(std::move(s));
    const auto outcome = parser.parse(std::vector<std::uint8_t>(16, 0xAB));
    ASSERT_FALSE(outcome.has_value()) << unsigned{width};
    EXPECT_EQ(outcome.error(), bytes::Error::kTruncated) << unsigned{width};
  }
}

TEST(Parser, AdvancePastPacketEndIsTruncated) {
  Parser parser;
  ParserState s;
  s.advance = 9;
  parser.add_state(std::move(s));
  const auto outcome = parser.parse(std::vector<std::uint8_t>(8, 0));
  ASSERT_FALSE(outcome.has_value());
  EXPECT_EQ(outcome.error(), bytes::Error::kTruncated);
}

TEST(Parser, TransitionToOutOfRangeStateIsMalformed) {
  // A select whose transition names a state the program never defined: the
  // machine must fail closed, not walk off the state table.
  Parser parser;
  ParserState s;
  s.extracts = {{0, 1, phv_layout::kFnNum}};
  s.advance = 1;
  s.has_select = true;
  s.select = phv_layout::kFnNum;
  s.transitions = {{0x42u, 7}};  // state 7 does not exist
  s.default_next = ParserState::kAccept;
  parser.add_state(std::move(s));

  const auto bad = parser.parse(std::vector<std::uint8_t>{0x42, 0, 0, 0});
  ASSERT_FALSE(bad.has_value());
  EXPECT_EQ(bad.error(), bytes::Error::kMalformed);

  // The same program accepts when the select misses the bad transition.
  const auto good = parser.parse(std::vector<std::uint8_t>{0x01, 0, 0, 0});
  ASSERT_TRUE(good.has_value());
  EXPECT_EQ(good->consumed, 1u);
}

TEST(Parser, DipParserSkipsLadderWhenFnNumIsZero) {
  // FN_Num = 0 takes the ladder-skip transition straight to the locations
  // block (Algorithm 1 line 3: nothing to execute).
  core::DipHeader h;
  h.basic.hop_limit = 64;
  h.locations.assign(8, 0x5A);
  const auto wire = h.serialize();

  const Parser parser = build_dip_parser(/*fn_count=*/2, /*locations_bytes=*/8);
  const auto outcome = parser.parse(wire);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->phv.get(phv_layout::kFnNum), 0u);
  EXPECT_EQ(outcome->phv.get(phv_layout::kLocBase), 0x5A5A5A5Au);
  EXPECT_EQ(outcome->consumed, wire.size());
}

// ---------- tables: replace semantics, default routes, stage overflow ----------

TEST(MatchTable, LpmZeroQualifierIsADefaultRouteEntry) {
  // qualifier 0 => mask 0 => matches every key, beaten by any longer prefix.
  MatchTable table(MatchKind::kLpm, phv_layout::kLocBase);
  table.add_entry({0, 0, 0, {ActionKind::kSetContainer, phv_layout::kEgressPort, 0, 99}});
  table.add_entry({0x0A000000u, 8, 0,
                   {ActionKind::kSetContainer, phv_layout::kEgressPort, 0, 7}});

  Phv phv;
  phv.set(phv_layout::kLocBase, 0xC0A80101u);  // only the default matches
  Cycles cost = apply_action(table.lookup(phv), phv);
  EXPECT_EQ(phv.get(phv_layout::kEgressPort), 99u);
  EXPECT_GT(cost, 0u);

  phv.set(phv_layout::kLocBase, 0x0A010203u);  // /8 beats the default
  cost = apply_action(table.lookup(phv), phv);
  EXPECT_EQ(phv.get(phv_layout::kEgressPort), 7u);
}

TEST(MatchTable, ReAddedPrefixReplacesOlderEntry) {
  // Same prefix added twice: the later entry must win (control-plane
  // replace semantics, the documented ">=" in MatchTable::lookup).
  MatchTable table(MatchKind::kLpm, phv_layout::kLocBase);
  table.add_entry({0x0A000000u, 8, 0,
                   {ActionKind::kSetContainer, phv_layout::kEgressPort, 0, 1}});
  table.add_entry({0x0A000000u, 8, 0,
                   {ActionKind::kSetContainer, phv_layout::kEgressPort, 0, 2}});

  Phv phv;
  phv.set(phv_layout::kLocBase, 0x0A0B0C0Du);
  (void)apply_action(table.lookup(phv), phv);
  EXPECT_EQ(phv.get(phv_layout::kEgressPort), 2u);

  // Ternary tables document the same override for equal priorities.
  MatchTable ternary(MatchKind::kTernary, phv_layout::kLocBase);
  ternary.add_entry({0x0A000000u, 0xFF000000u, 5,
                     {ActionKind::kSetContainer, phv_layout::kEgressPort, 0, 3}});
  ternary.add_entry({0x0A000000u, 0xFF000000u, 5,
                     {ActionKind::kSetContainer, phv_layout::kEgressPort, 0, 4}});
  (void)apply_action(ternary.lookup(phv), phv);
  EXPECT_EQ(phv.get(phv_layout::kEgressPort), 4u);
}

TEST(Pipeline, StageOverflowRefusedAndMutableStageBounded) {
  Pipeline pipe;
  for (std::size_t i = 0; i < tna::kStages; ++i) {
    EXPECT_TRUE(pipe.add_stage({})) << i;
  }
  EXPECT_FALSE(pipe.add_stage({})) << "stage past the hardware budget accepted";
  EXPECT_EQ(pipe.stage_count(), tna::kStages);
  EXPECT_NE(pipe.mutable_stage(tna::kStages - 1), nullptr);
  EXPECT_EQ(pipe.mutable_stage(tna::kStages), nullptr);
}

TEST(Pipeline, DropShortCircuitsResubmissions) {
  // A packet dropped on the first pass must not be re-injected: the
  // resubmission loop stops and reports zero resubmissions.
  Pipeline pipe;
  Stage stage;
  MatchTable table(MatchKind::kExact, phv_layout::kFnNum);
  table.set_default_action({ActionKind::kDrop});
  stage.tables.push_back(table);
  ASSERT_TRUE(pipe.add_stage(std::move(stage)));

  Phv phv;
  const auto run = pipe.run_with_resubmits(phv, 2);
  ASSERT_TRUE(run.has_value());
  EXPECT_TRUE(run->dropped);
  EXPECT_EQ(run->resubmissions, 0u);

  // And the runaway guard still rejects over-budget resubmit requests.
  Phv phv2;
  const auto over = pipe.run_with_resubmits(phv2, tna::kMaxPasses);
  ASSERT_FALSE(over.has_value());
  EXPECT_EQ(over.error(), bytes::Error::kOverflow);
}

// ---------- stage-budget compiler: Table-1 goldens ----------

std::filesystem::path pisa_vector_path(const std::string& name) {
  return std::filesystem::path(DIP_VECTORS_DIR) / ("pisa_" + name + ".txt");
}

TEST(StageBudget, GoldenCostReportsForTable1) {
  // The paper's claim in executable form: every §3 composition deploys on
  // the Tofino-like model in a single pass with the 2EM MAC. Each report is
  // pinned byte-identical as a golden vector.
  const bool regen = std::getenv("DIP_REGEN_VECTORS") != nullptr;
  const auto& compositions = table1_compositions();
  ASSERT_EQ(compositions.size(), 6u);

  for (const auto& comp : compositions) {
    ASSERT_FALSE(comp.fns.empty()) << comp.name << ": composer failed";
    const PlacementReport report = compile(comp.fns, comp.locations_bytes);
    EXPECT_EQ(report.verdict, FitVerdict::kFit) << comp.name << ": " << report.reason;
    EXPECT_EQ(report.passes.size(), 1u) << comp.name;
    EXPECT_LE(report.stages_used, tna::kStages) << comp.name;

    const std::string text =
        format_report(comp.name, comp.fns, comp.locations_bytes, report);
    const auto path = pisa_vector_path(comp.name);
    if (regen) {
      std::filesystem::create_directories(path.parent_path());
      std::ofstream out(path, std::ios::trunc);
      out << text;
      continue;
    }
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << "missing golden cost report " << path;
    std::stringstream golden;
    golden << in.rdbuf();
    EXPECT_EQ(golden.str(), text)
        << path << " drifted from the compiler output; regenerate deliberately "
        << "with DIP_REGEN_VECTORS=1 ./pisa_test";
  }
}

TEST(StageBudget, CustodyCompositionGoldenFitReport) {
  // dip32+custody (docs/DTN.md) postdates Table 1, but the §2.1 claim extends
  // to it: the DTN overlay must deploy on the same Tofino-like model in a
  // single pass, with its cost report pinned like the six §3 goldens.
  const bool regen = std::getenv("DIP_REGEN_VECTORS") != nullptr;

  dtn::CustodyTag tag;
  tag.flags = dtn::kCustodyRequest;
  tag.bundle_id = 0xD7B00001;
  tag.custodian = 42;
  tag.chain_digest = dtn::chain_mix(0, 42);
  dtn::FragInfo frag;
  frag.index = 1;
  frag.total = 3;
  frag.bundle_id = tag.bundle_id;
  const auto header = dtn::make_dip32_custody_header(
      fib::ipv4_from_u32(0x0A400202), fib::ipv4_from_u32(0x0A006301), tag, frag,
      crypto::Block{});
  ASSERT_TRUE(header.has_value());

  const PlacementReport report =
      compile(header->fns, header->locations.size());
  EXPECT_EQ(report.verdict, FitVerdict::kFit) << report.reason;
  EXPECT_EQ(report.passes.size(), 1u) << "custody must not recirculate";
  EXPECT_LE(report.stages_used, tna::kStages);

  const std::string text =
      format_report("dip32_custody", header->fns, header->locations.size(), report);
  const auto path = pisa_vector_path("dip32_custody");
  if (regen) {
    std::filesystem::create_directories(path.parent_path());
    std::ofstream out(path, std::ios::trunc);
    out << text;
    return;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden cost report " << path;
  std::stringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(golden.str(), text)
      << path << " drifted from the compiler output; regenerate deliberately "
      << "with DIP_REGEN_VECTORS=1 ./pisa_test";
}

TEST(StageBudget, EveryModuleTableRowPlaces) {
  // Drift guard on the introspection seam: every FN the router can bind
  // (core::fn_table()) must have a placement story — a single instance over
  // a modest field always fits, router- or host-tagged.
  for (const core::FnInfo& row : core::fn_table()) {
    const std::vector<FnTriple> router_fn = {FnTriple::router(0, 32, row.key)};
    const auto r = compile(router_fn, 64);
    EXPECT_EQ(r.verdict, FitVerdict::kFit) << row.notation << ": " << r.reason;

    const std::vector<FnTriple> host_fn = {FnTriple::host(0, 32, row.key)};
    const auto h = compile(host_fn, 64);
    EXPECT_EQ(h.verdict, FitVerdict::kFit) << row.notation << "*: " << h.reason;
    EXPECT_EQ(h.stages_used, 0u) << row.notation << "*: host FNs use no stages";
  }
}

TEST(StageBudget, AesMacDegradesWhere2EmFits) {
  // §4.1's MAC choice as verdicts: the same OPT composition fits with 2EM
  // but degrades with AES (resubmission + recirculation), at strictly
  // higher cycle cost.
  const auto& opt = table1_compositions()[3];
  ASSERT_EQ(opt.name, "opt");

  const auto em2 = compile(opt.fns, opt.locations_bytes);
  ASSERT_EQ(em2.verdict, FitVerdict::kFit);

  CompileOptions aes;
  aes.aes_mac = true;
  const auto degraded = compile(opt.fns, opt.locations_bytes, aes);
  ASSERT_EQ(degraded.verdict, FitVerdict::kDegrade) << degraded.reason;
  EXPECT_EQ(degraded.resubmissions, 1u);
  EXPECT_GT(degraded.passes.size(), 1u);
  EXPECT_GT(degraded.cycles, em2.cycles);

  // Recirculation splits must themselves deploy: each pass, compiled alone
  // under the same options, stays on the hardware.
  for (const PassPlan& pass : degraded.passes) {
    const auto sub = compile(pass.fns, opt.locations_bytes, aes);
    EXPECT_TRUE(sub.fits()) << sub.reason;
    EXPECT_EQ(sub.passes.size(), 1u);
  }
}

TEST(StageBudget, UnfitReasonsAreStructural) {

  // Sub-byte slice: the preset-slice compromise.
  const std::vector<FnTriple> subbyte = {FnTriple::router(0, 3, OpKey::kMark)};
  auto r = compile(subbyte, 4);
  EXPECT_EQ(r.verdict, FitVerdict::kUnfit);
  EXPECT_NE(r.reason.find("byte-aligned"), std::string::npos) << r.reason;

  // Field outside the locations block.
  const std::vector<FnTriple> outside = {FnTriple::router(32, 32, OpKey::kMatch32)};
  r = compile(outside, 4);
  EXPECT_EQ(r.verdict, FitVerdict::kUnfit);
  EXPECT_NE(r.reason.find("outside"), std::string::npos) << r.reason;

  // Locations block past the preset budget.
  const std::vector<FnTriple> plain = {FnTriple::router(0, 32, OpKey::kMatch32)};
  r = compile(plain, tna::kMaxLocationsBytes + 1);
  EXPECT_EQ(r.verdict, FitVerdict::kUnfit);

  // Unknown operation key (not in the module table).
  const std::vector<FnTriple> unknown = {{0, 32, 500}};
  r = compile(unknown, 4);
  EXPECT_EQ(r.verdict, FitVerdict::kUnfit);
  EXPECT_NE(r.reason.find("unknown"), std::string::npos) << r.reason;

  // Parser state budget: a locations block needing more states than the
  // parser has, regardless of recirculation.
  r = compile(plain, 124);
  EXPECT_EQ(r.verdict, FitVerdict::kUnfit);
  EXPECT_NE(r.reason.find("parser"), std::string::npos) << r.reason;

  // Recirculation budget: each F_dps costs 2 stages (gateway + bucket RMW),
  // so a 12-stage pass holds 6 — 28 of them need 5 passes, one past the
  // budget, while staying inside the PHV pool (no crypto scratch).
  std::vector<FnTriple> dps;
  for (int i = 0; i < 28; ++i) dps.push_back(FnTriple::router(0, 32, OpKey::kDps));
  r = compile(dps, 4);
  EXPECT_EQ(r.verdict, FitVerdict::kUnfit);
  EXPECT_NE(r.reason.find("recirculation"), std::string::npos) << r.reason;

  // PHV pool: crypto-heavy compositions exhaust the container budget before
  // placement is even attempted (two scratch containers per crypto FN).
  std::vector<FnTriple> macs;
  for (int i = 0; i < 16; ++i) macs.push_back(FnTriple::router(0, 416, OpKey::kMac));
  r = compile(macs, 52);
  EXPECT_EQ(r.verdict, FitVerdict::kUnfit);
  EXPECT_NE(r.reason.find("PHV"), std::string::npos) << r.reason;
}

TEST(StageBudget, EmptyCompositionFitsTrivially) {
  const auto r = compile({}, 0);
  EXPECT_EQ(r.verdict, FitVerdict::kFit);
  EXPECT_EQ(r.stages_used, 0u);
  EXPECT_EQ(r.passes.size(), 1u);
}

// ---------- stage-budget compiler: property suite ----------

struct GenComposition {
  std::vector<FnTriple> fns;
  std::size_t locations_bytes = 0;
};

std::uint64_t splitmix(std::uint64_t& s) {
  s += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = s;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Seeded random composition: mostly structurally valid (byte-aligned,
/// in-range fields over every module-table key), with occasional sub-byte
/// slices so structural unfits flow through the properties too.
GenComposition gen_composition(std::uint64_t seed) {
  std::uint64_t s = seed;
  const auto below = [&s](std::uint64_t n) { return splitmix(s) % n; };

  GenComposition g;
  g.locations_bytes = 4 * (1 + below(30));  // 4..120, container-aligned
  const auto table = core::fn_table();
  const std::size_t n = 1 + below(10);
  for (std::size_t i = 0; i < n; ++i) {
    const core::FnInfo& row = table[below(table.size())];
    const std::size_t loc_byte = below(g.locations_bytes);
    const std::size_t max_bytes = std::min<std::size_t>(g.locations_bytes - loc_byte, 52);
    std::uint16_t len = static_cast<std::uint16_t>(8 * (1 + below(max_bytes)));
    if (below(8) == 0) len = static_cast<std::uint16_t>(len - 3);  // sub-byte slice
    const auto loc = static_cast<std::uint16_t>(8 * loc_byte);
    g.fns.push_back(below(6) == 0 ? FnTriple::host(loc, len, row.key)
                                  : FnTriple::router(loc, len, row.key));
  }
  return g;
}

proptest::Packet composition_packet(std::span<const FnTriple> fns,
                                    std::size_t locations_bytes) {
  core::DipHeader h;
  h.fns.assign(fns.begin(), fns.end());
  h.locations.assign(locations_bytes, 0);
  return h.serialize();
}

bool determinism_violated(std::span<const FnTriple> fns, std::size_t loc) {
  return format_report("p", fns, loc, compile(fns, loc)) !=
         format_report("p", fns, loc, compile(fns, loc));
}

bool monotonicity_violated(std::span<const FnTriple> fns, std::size_t loc) {
  bool seen_unfit = false;
  for (std::size_t k = 1; k <= fns.size(); ++k) {
    const bool fits = compile(fns.subspan(0, k), loc).fits();
    if (!fits) seen_unfit = true;
    else if (seen_unfit) return true;  // adding an FN flipped unfit -> fit
  }
  return false;
}

bool split_revalidation_violated(std::span<const FnTriple> fns, std::size_t loc) {
  const auto report = compile(fns, loc);
  if (!report.fits() || report.passes.size() < 2) return false;
  for (const PassPlan& pass : report.passes) {
    const auto sub = compile(pass.fns, loc);
    if (sub.verdict != FitVerdict::kFit || sub.passes.size() != 1) return true;
  }
  return false;
}

/// On failure, shrink the offending composition with the shared proptest
/// shrinker (serialized as a DIP packet) and print a minimal reproducer.
void fail_with_shrunk(const char* property, std::uint64_t seed,
                      const GenComposition& g,
                      bool (*violated)(std::span<const FnTriple>, std::size_t)) {
  const auto fails = [violated](const proptest::Packet& packet) {
    const auto h = core::DipHeader::parse(packet);
    return h.has_value() && violated(h->fns, h->locations.size());
  };
  const proptest::Packet minimal =
      proptest::shrink_packet(composition_packet(g.fns, g.locations_bytes), fails);
  std::ostringstream what;
  what << property << " violated (seed " << seed << "); minimal reproducer: "
       << proptest::hex_encode(minimal);
  if (const auto h = core::DipHeader::parse(minimal)) {
    what << " = loc " << h->locations.size() << "B,";
    for (const FnTriple& fn : h->fns) {
      what << " " << core::op_key_name(fn.key()) << (fn.host_tagged() ? "*" : "")
           << "@" << fn.field_loc << "+" << fn.field_len;
    }
  }
  ADD_FAILURE() << what.str();
}

TEST(StageBudgetProperty, DeterministicMonotonicSplitValid) {
  std::size_t fit = 0;
  std::size_t multipass = 0;
  std::size_t unfit = 0;

  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    const GenComposition g = gen_composition(seed);
    if (determinism_violated(g.fns, g.locations_bytes)) {
      fail_with_shrunk("determinism", seed, g, determinism_violated);
    }
    if (monotonicity_violated(g.fns, g.locations_bytes)) {
      fail_with_shrunk("monotonicity", seed, g, monotonicity_violated);
    }
    if (split_revalidation_violated(g.fns, g.locations_bytes)) {
      fail_with_shrunk("split-revalidation", seed, g, split_revalidation_violated);
    }
    const auto report = compile(g.fns, g.locations_bytes);
    if (!report.fits()) ++unfit;
    else if (report.passes.size() > 1) ++multipass;
    else ++fit;
  }

  // The generator must exercise all three placement regimes, or the
  // properties above are vacuous.
  EXPECT_GT(fit, 0u);
  EXPECT_GT(multipass, 0u);
  EXPECT_GT(unfit, 0u);
}

}  // namespace
}  // namespace dip::pisa
