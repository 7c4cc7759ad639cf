// XIA DAG addresses (§3 "XIA").
//
// An XIA address is a directed acyclic graph of XID nodes. The *intent* is
// the sink; other nodes provide fallback routing context ("if you cannot
// route on the intent, try the next out-edge"). The packet carries a cursor
// (last visited node) that routers advance as edges are taken.
//
// Wire encoding inside the DIP FN-locations block:
//
//   node_count:8 | last_visited:8 | intent_index:8 | src_degree:8 |
//   src_edge[4]:8 each (unused = 0xff)
//   then node_count records of:
//     xid_type:8 | xid:160 | out_degree:8 | edge[4]:8 each (unused = 0xff)
//
// Header = 8 bytes, node record = 26 bytes; max 8 nodes. Edges are listed
// highest priority first, as in XIA's fallback semantics. The virtual
// source node's out-edges live in the header (src_edges).
//
// A Dag stores its nodes and edges inline, up to the kMaxNodes/kMaxEdges
// the wire format allows, so F_DAG and F_intent parse a packet's DAG
// without touching the heap.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "dip/bytes/expected.hpp"
#include "dip/fib/xid_table.hpp"

namespace dip::xia {

inline constexpr std::size_t kMaxNodes = 8;
inline constexpr std::size_t kMaxEdges = 4;
inline constexpr std::uint8_t kNoEdge = 0xff;
inline constexpr std::size_t kHeaderBytes = 8;
inline constexpr std::size_t kNodeBytes = 1 + 20 + 1 + kMaxEdges;  // 26

/// Up to N items stored in place (no heap).
template <typename T, std::size_t N>
class InlineList {
 public:
  /// Append; false (and no change) when full.
  [[nodiscard]] bool push_back(const T& item) noexcept {
    if (size_ == N) return false;
    items_[size_++] = item;
    return true;
  }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] const T& operator[](std::size_t i) const noexcept { return items_[i]; }
  [[nodiscard]] T& operator[](std::size_t i) noexcept { return items_[i]; }
  [[nodiscard]] const T* begin() const noexcept { return items_.data(); }
  [[nodiscard]] const T* end() const noexcept { return items_.data() + size_; }
  operator std::span<const T>() const noexcept { return {items_.data(), size_}; }

 private:
  std::array<T, N> items_{};
  std::uint8_t size_ = 0;
};

/// Out-edges by node index, priority order (fallback = later entries).
using EdgeList = InlineList<std::uint8_t, kMaxEdges>;

struct DagNode {
  fib::XidType type = fib::XidType::kHid;
  fib::Xid xid;
  EdgeList edges;
};

class Dag {
 public:
  /// Index of the virtual source "node": the cursor position before any
  /// real node has been visited.
  static constexpr std::uint8_t kSourceCursor = 0xfe;

  Dag() = default;

  /// Add a node; returns its index. Fails (nullopt) past kMaxNodes.
  std::optional<std::uint8_t> add_node(DagNode node);

  /// Add a prioritized edge from -> to (appended = lower priority).
  [[nodiscard]] bool add_edge(std::uint8_t from, std::uint8_t to);

  void set_intent(std::uint8_t index) { intent_ = index; }
  [[nodiscard]] std::uint8_t intent() const noexcept { return intent_; }

  [[nodiscard]] std::size_t node_count() const noexcept { return nodes_.size(); }
  [[nodiscard]] const DagNode& node(std::size_t i) const { return nodes_[i]; }

  /// Out-edges of the virtual source node (the cursor before any real
  /// node is visited): the entry points into the DAG.
  [[nodiscard]] std::span<const std::uint8_t> source_edges() const noexcept {
    return source_edges_;
  }

  [[nodiscard]] std::span<const std::uint8_t> edges_of(std::uint8_t cursor) const;

  /// True iff the graph is acyclic and every edge index is in range.
  [[nodiscard]] bool validate() const;

  /// Serialized size in bytes.
  [[nodiscard]] std::size_t wire_size() const noexcept {
    return kHeaderBytes + nodes_.size() * kNodeBytes;
  }

  /// Serialize with the given cursor value into `out`.
  [[nodiscard]] bytes::Status serialize(std::uint8_t cursor,
                                        std::span<std::uint8_t> out) const;
  [[nodiscard]] std::vector<std::uint8_t> serialize(std::uint8_t cursor) const;

 private:
  friend struct ParsedDag;
  friend bytes::Result<struct ParsedDag> parse_dag(std::span<const std::uint8_t> data);

  InlineList<DagNode, kMaxNodes> nodes_;
  EdgeList source_edges_;
  std::uint8_t intent_ = 0;
};

/// A DAG parsed off the wire together with its traversal cursor.
struct ParsedDag {
  Dag dag;
  std::uint8_t cursor = Dag::kSourceCursor;
};

/// Parse a serialized DAG (validates structure, types, and acyclicity).
[[nodiscard]] bytes::Result<ParsedDag> parse_dag(std::span<const std::uint8_t> data);

/// Canonical XIA service address: AD -> HID -> intent, with direct fallback
/// edges from the source and AD to the intent where given.
///
///   source ──► intent (priority 0 when direct_intent)
///   source ──► AD ──► HID ──► intent
[[nodiscard]] Dag make_service_dag(const fib::Xid& ad, const fib::Xid& hid,
                                   fib::XidType intent_type, const fib::Xid& intent,
                                   bool direct_intent = true);

/// Deterministic XID from a label (tests/examples): SipHash-stretched.
[[nodiscard]] fib::Xid xid_from_label(std::string_view label);

/// 64-bit code of an XID (content-store key for CID intents).
[[nodiscard]] constexpr std::uint64_t xid_code(const fib::Xid& xid) noexcept {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | xid.bytes[i];
  return v;
}

}  // namespace dip::xia
