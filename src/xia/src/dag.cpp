#include "dip/xia/dag.hpp"

#include <cstring>

#include "dip/crypto/siphash.hpp"

namespace dip::xia {

std::optional<std::uint8_t> Dag::add_node(DagNode node) {
  if (!nodes_.push_back(node)) return std::nullopt;
  return static_cast<std::uint8_t>(nodes_.size() - 1);
}

bool Dag::add_edge(std::uint8_t from, std::uint8_t to) {
  if (to >= nodes_.size()) return false;
  if (from == kSourceCursor) return source_edges_.push_back(to);
  if (from >= nodes_.size()) return false;
  return nodes_[from].edges.push_back(to);
}

std::span<const std::uint8_t> Dag::edges_of(std::uint8_t cursor) const {
  if (cursor == kSourceCursor) return source_edges_;
  if (cursor >= nodes_.size()) return {};
  return nodes_[cursor].edges;
}

bool Dag::validate() const {
  if (intent_ >= nodes_.size()) return false;

  auto edges_ok = [&](std::span<const std::uint8_t> edges) {
    for (std::uint8_t e : edges) {
      if (e >= nodes_.size()) return false;
    }
    return true;
  };
  if (!edges_ok(source_edges_)) return false;
  for (const DagNode& n : nodes_) {
    if (!edges_ok(n.edges)) return false;
  }

  // Acyclicity: iterative DFS with colors over node indices. Only white
  // nodes are pushed and none turns white again, so kMaxNodes frames bound
  // the stack.
  enum class Color : std::uint8_t { kWhite, kGray, kBlack };
  std::array<Color, kMaxNodes> color{};
  struct Frame {
    std::uint8_t node = 0;
    std::size_t edge = 0;
  };
  std::array<Frame, kMaxNodes> stack{};
  for (std::uint8_t start = 0; start < nodes_.size(); ++start) {
    if (color[start] != Color::kWhite) continue;
    std::size_t depth = 0;
    stack[depth++] = {start};
    color[start] = Color::kGray;
    while (depth > 0) {
      Frame& f = stack[depth - 1];
      const EdgeList& edges = nodes_[f.node].edges;
      if (f.edge < edges.size()) {
        const std::uint8_t next = edges[f.edge++];
        if (color[next] == Color::kGray) return false;  // back edge: cycle
        if (color[next] == Color::kWhite) {
          color[next] = Color::kGray;
          stack[depth++] = {next};
        }
      } else {
        color[f.node] = Color::kBlack;
        --depth;
      }
    }
  }
  return true;
}

bytes::Status Dag::serialize(std::uint8_t cursor, std::span<std::uint8_t> out) const {
  if (out.size() < wire_size()) return bytes::Unexpected{bytes::Error::kOverflow};

  out[0] = static_cast<std::uint8_t>(nodes_.size());
  out[1] = cursor;
  out[2] = intent_;
  out[3] = static_cast<std::uint8_t>(source_edges_.size());
  for (std::size_t i = 0; i < kMaxEdges; ++i) {
    out[4 + i] = i < source_edges_.size() ? source_edges_[i] : kNoEdge;
  }

  std::size_t off = kHeaderBytes;
  for (const DagNode& n : nodes_) {
    out[off] = static_cast<std::uint8_t>(n.type);
    std::memcpy(out.data() + off + 1, n.xid.bytes.data(), 20);
    out[off + 21] = static_cast<std::uint8_t>(n.edges.size());
    for (std::size_t i = 0; i < kMaxEdges; ++i) {
      out[off + 22 + i] = i < n.edges.size() ? n.edges[i] : kNoEdge;
    }
    off += kNodeBytes;
  }
  return {};
}

std::vector<std::uint8_t> Dag::serialize(std::uint8_t cursor) const {
  std::vector<std::uint8_t> out(wire_size());
  const auto st = serialize(cursor, out);
  (void)st;
  return out;
}

bytes::Result<ParsedDag> parse_dag(std::span<const std::uint8_t> data) {
  if (data.size() < kHeaderBytes) return bytes::Err(bytes::Error::kTruncated);

  ParsedDag out;
  const std::uint8_t node_count = data[0];
  out.cursor = data[1];
  out.dag.intent_ = data[2];
  const std::uint8_t src_degree = data[3];

  if (node_count > kMaxNodes || src_degree > kMaxEdges) {
    return bytes::Err(bytes::Error::kMalformed);
  }
  if (data.size() < kHeaderBytes + node_count * kNodeBytes) {
    return bytes::Err(bytes::Error::kTruncated);
  }

  // The degree and count checks above keep every push_back in capacity.
  for (std::uint8_t i = 0; i < src_degree; ++i) {
    (void)out.dag.source_edges_.push_back(data[4 + i]);
  }

  std::size_t off = kHeaderBytes;
  for (std::uint8_t n = 0; n < node_count; ++n) {
    DagNode node;
    if (!fib::is_valid_xid_type(data[off])) return bytes::Err(bytes::Error::kMalformed);
    node.type = static_cast<fib::XidType>(data[off]);
    std::memcpy(node.xid.bytes.data(), data.data() + off + 1, 20);
    const std::uint8_t degree = data[off + 21];
    if (degree > kMaxEdges) return bytes::Err(bytes::Error::kMalformed);
    for (std::uint8_t i = 0; i < degree; ++i) {
      (void)node.edges.push_back(data[off + 22 + i]);
    }
    (void)out.dag.nodes_.push_back(node);
    off += kNodeBytes;
  }

  if (!out.dag.validate()) return bytes::Err(bytes::Error::kMalformed);
  if (out.cursor != Dag::kSourceCursor && out.cursor >= node_count) {
    return bytes::Err(bytes::Error::kMalformed);
  }
  return out;
}

Dag make_service_dag(const fib::Xid& ad, const fib::Xid& hid, fib::XidType intent_type,
                     const fib::Xid& intent, bool direct_intent) {
  Dag dag;
  const auto ad_index = dag.add_node({fib::XidType::kAd, ad, {}});
  const auto hid_index = dag.add_node({fib::XidType::kHid, hid, {}});
  const auto intent_index = dag.add_node({intent_type, intent, {}});
  // Priority order: direct intent first (routers that know the intent XID
  // shortcut the DAG), then the AD -> HID -> intent chain as fallback.
  if (direct_intent) (void)dag.add_edge(Dag::kSourceCursor, *intent_index);
  (void)dag.add_edge(Dag::kSourceCursor, *ad_index);
  if (direct_intent) (void)dag.add_edge(*ad_index, *intent_index);
  (void)dag.add_edge(*ad_index, *hid_index);
  (void)dag.add_edge(*hid_index, *intent_index);
  dag.set_intent(*intent_index);
  return dag;
}

fib::Xid xid_from_label(std::string_view label) {
  fib::Xid xid;
  const std::span<const std::uint8_t> view{
      reinterpret_cast<const std::uint8_t*>(label.data()), label.size()};
  // Stretch a 64-bit SipHash into 160 bits with counter inputs.
  for (int i = 0; i < 3; ++i) {
    std::vector<std::uint8_t> salted(view.begin(), view.end());
    salted.push_back(static_cast<std::uint8_t>(i));
    const std::uint64_t h = crypto::siphash24(crypto::process_sip_key(), salted);
    for (int b = 0; b < 8; ++b) {
      const std::size_t at = static_cast<std::size_t>(i) * 8 + b;
      if (at < 20) xid.bytes[at] = static_cast<std::uint8_t>(h >> (8 * b));
    }
  }
  return xid;
}

}  // namespace dip::xia
