#include "dip/fib/lpm.hpp"

#include "dip/fib/binary_trie.hpp"
#include "dip/fib/dir24.hpp"
#include "dip/fib/tree_bitmap.hpp"

namespace dip::fib {

template <std::size_t W>
std::unique_ptr<LpmTable<W>> make_lpm(LpmEngine engine) {
  switch (engine) {
    case LpmEngine::kBinaryTrie: return std::make_unique<BinaryTrie<W>>();
    case LpmEngine::kDir24:
      if constexpr (W == 32) {
        return std::make_unique<Dir24>();
      } else {
        return nullptr;  // DIR-24-8 is IPv4-only
      }
    case LpmEngine::kTreeBitmap: return std::make_unique<TreeBitmap<W>>();
  }
  return nullptr;
}

template std::unique_ptr<LpmTable<32>> make_lpm<32>(LpmEngine);
template std::unique_ptr<LpmTable<128>> make_lpm<128>(LpmEngine);

}  // namespace dip::fib
