#include "dip/mesh/impair.hpp"

namespace dip::mesh {

ImpairDecision LinkImpairer::next(std::uint64_t now_ns, std::span<std::uint8_t> packet) {
  return stream_.next(now_ns, packet);
}

}  // namespace dip::mesh
