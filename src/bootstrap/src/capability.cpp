#include "dip/bootstrap/capability.hpp"

#include <algorithm>
#include <iterator>

namespace dip::bootstrap {

CapabilitySet::CapabilitySet(std::initializer_list<core::OpKey> keys) {
  keys_.reserve(std::min(keys.size(), kMaxKeys));
  for (const core::OpKey key : keys) add(key);
}

void CapabilitySet::add(core::OpKey key) {
  const auto it = std::lower_bound(keys_.begin(), keys_.end(), key);
  if ((it == keys_.end() || *it != key) && keys_.size() < kMaxKeys) keys_.insert(it, key);
}

void CapabilitySet::remove(core::OpKey key) {
  const auto it = std::lower_bound(keys_.begin(), keys_.end(), key);
  if (it != keys_.end() && *it == key) keys_.erase(it);
}

bool CapabilitySet::covers(const CapabilitySet& required) const {
  return std::includes(keys_.begin(), keys_.end(), required.keys_.begin(),
                       required.keys_.end());
}

CapabilitySet CapabilitySet::intersect(const CapabilitySet& other) const {
  CapabilitySet out;
  std::set_intersection(keys_.begin(), keys_.end(), other.keys_.begin(), other.keys_.end(),
                        std::back_inserter(out.keys_));
  return out;
}

std::vector<std::uint8_t> CapabilitySet::serialize() const {
  std::vector<std::uint8_t> out;
  out.reserve(1 + keys_.size() * 2);
  out.push_back(static_cast<std::uint8_t>(keys_.size()));
  for (core::OpKey k : keys_) {
    const auto v = static_cast<std::uint16_t>(k);
    out.push_back(static_cast<std::uint8_t>(v >> 8));
    out.push_back(static_cast<std::uint8_t>(v));
  }
  return out;
}

bytes::Result<CapabilitySet> CapabilitySet::parse(std::span<const std::uint8_t> data) {
  if (data.empty()) return bytes::Err(bytes::Error::kTruncated);
  const std::size_t count = data[0];
  if (data.size() < 1 + count * 2) return bytes::Err(bytes::Error::kTruncated);

  CapabilitySet out;
  out.keys_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto v =
        static_cast<std::uint16_t>((data[1 + 2 * i] << 8) | data[2 + 2 * i]);
    out.keys_.push_back(static_cast<core::OpKey>(v));
  }
  std::sort(out.keys_.begin(), out.keys_.end());
  if (std::adjacent_find(out.keys_.begin(), out.keys_.end()) != out.keys_.end()) {
    return bytes::Err(bytes::Error::kMalformed);  // dupes
  }
  return out;
}

CapabilitySet full_capability_set() {
  CapabilitySet out = table1_capability_set();
  out.add(core::OpKey::kPass);
  out.add(core::OpKey::kTelemetry);
  return out;
}

CapabilitySet table1_capability_set() {
  return CapabilitySet{
      core::OpKey::kMatch32, core::OpKey::kMatch128, core::OpKey::kSource,
      core::OpKey::kFib,     core::OpKey::kPit,      core::OpKey::kParm,
      core::OpKey::kMac,     core::OpKey::kMark,     core::OpKey::kVer,
      core::OpKey::kDag,     core::OpKey::kIntent,
  };
}

}  // namespace dip::bootstrap
