// dip_fit — print the Table-1 hardware fit matrix.
//
// For each of the six §3 compositions, run the PISA stage-budget compiler
// against the default TNA-like model and print the verdict plus the headline
// resources. Two extra rows illustrate the degrade/unfit edges the paper
// discusses: OPT with an AES MAC (needs a resubmission and recirculation —
// §4.1's reason for choosing 2EM), and a sub-byte field slice (breaks the
// preset-slice compromise outright).
//
//   ./build/examples/dip_fit          # the matrix
//   ./build/examples/dip_fit -v      # matrix + full per-stage reports
#include <cstdio>
#include <cstring>
#include <string>

#include "dip/core/fn.hpp"
#include "dip/pisa/compiler.hpp"
#include "dip/pisa/table1.hpp"

namespace {

struct Row {
  std::string name;
  std::vector<dip::core::FnTriple> fns;
  std::size_t locations_bytes = 0;
  dip::pisa::CompileOptions opts;
};

void print_row(const Row& row, const dip::pisa::PlacementReport& report) {
  std::printf("  %-12s %-8s passes=%zu stages=%-2zu parser=%-2zu phv=%-2zu cycles=%-4llu %s\n",
              row.name.c_str(), std::string(dip::pisa::to_string(report.verdict)).c_str(),
              report.passes.size(), report.stages_used, report.parser_states,
              report.phv_containers,
              static_cast<unsigned long long>(report.cycles),
              report.reason.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const bool verbose = argc > 1 && std::strcmp(argv[1], "-v") == 0;

  std::vector<Row> rows;
  for (const auto& comp : dip::pisa::table1_compositions()) {
    rows.push_back({comp.name, comp.fns, comp.locations_bytes, {}});
  }
  // Illustrative edges beyond Table 1.
  {
    const auto& opt = dip::pisa::table1_compositions()[3];
    Row aes{opt.name + "+aes", opt.fns, opt.locations_bytes, {}};
    aes.opts.aes_mac = true;
    rows.push_back(std::move(aes));
  }
  rows.push_back({"sub-byte", {dip::core::FnTriple::router(0, 3, dip::core::OpKey::kMark)}, 4, {}});

  namespace tna = dip::pisa::tna;
  std::printf("pisa fit matrix (stages=%zu, passes<=%zu, phv=%zu, parser<=%zu)\n",
              tna::kStages, tna::kMaxPasses, tna::kPhvContainers, tna::kParserStates);
  for (const Row& row : rows) {
    const auto report = dip::pisa::compile(row.fns, row.locations_bytes, row.opts);
    print_row(row, report);
    if (verbose) {
      const std::string text =
          dip::pisa::format_report(row.name, row.fns, row.locations_bytes, report);
      std::printf("%s\n", text.c_str());
    }
  }
  return 0;
}
