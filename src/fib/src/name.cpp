#include "dip/fib/name.hpp"

#include <algorithm>

namespace dip::fib {

Name Name::parse(std::string_view text) {
  Name name;
  std::size_t pos = 0;
  if (!text.empty() && text.front() == '/') pos = 1;
  while (pos < text.size()) {
    const std::size_t slash = text.find('/', pos);
    const std::size_t end = slash == std::string_view::npos ? text.size() : slash;
    if (end == pos) return Name{};  // empty component: malformed
    name.append(std::string(text.substr(pos, end - pos)));
    pos = end + 1;
  }
  return name;
}

Name Name::prefix(std::size_t n) const {
  Name out;
  const std::size_t count = std::min(n, components_.size());
  out.components_.assign(components_.begin(),
                         components_.begin() + static_cast<std::ptrdiff_t>(count));
  return out;
}

std::string Name::to_string() const {
  if (components_.empty()) return "/";
  std::string out;
  for (const auto& c : components_) {
    out.push_back('/');
    out += c;
  }
  return out;
}

}  // namespace dip::fib
