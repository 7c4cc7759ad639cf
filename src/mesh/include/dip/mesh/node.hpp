// MeshRouter — one DIP router as a socket-attached mesh participant.
//
// The scale-out adapter over netsim::NodeRuntime (runtime.hpp), the same
// router runtime netsim::DipRouterNode drives: verdicts, the drop ledger,
// §2.4 error notifications, footnote-2 cache answers and burst buckets all
// live there. This class supplies the runtime's port — faces are UDP
// endpoints on loopback instead of simulated links. Each router is
// thread-confined together with its event loop; routers in different
// threads or processes share nothing but datagrams.
//
// Wire path:
//   egress — per-face LinkImpairer decides fate (the netsim FaultStream) →
//   frame (kData, per-half-link seq) → nonblocking send; EAGAIN is the
//   `dropped` ledger bucket (transmit queue full), reorder hold-backs ride
//   event-loop timers.
//   ingress — drain the socket to EAGAIN, decode frames, hand kData
//   payloads to the runtime's per-face burst buckets, flush them through
//   Router::process_batch.
//
// Conservation ledger (netsim::TransportLedger, aggregated by MeshNet):
//   transmitted + duplicated == delivered + lost + blackholed + dropped
// `corrupted` stays informational — flipped payloads are still delivered
// and surface as router-level drop reasons at the far end.
//
// Discovery is in-band: a kHello frame carries a sequence of self-framing
// link-state announcement records (origin, version, TTL, neighbor list,
// bootstrap::CapabilitySet). A router advertises the FNs it runs: its
// registry's modules minus the keys its RouterEnv refuses (§2.3/§2.4), read
// at every origination, so a module upgrade or a newly disabled key reaches
// the next LSA. A router learns which node sits behind each face from the
// frame src_node, stores each fresh record and exposes its LinkStateDb for
// route computation (mesh/control.hpp) and AS-graph capability queries.
//
// Flooding is bundled, like OSPF's Link State Update: a fresh record is
// queued at TTL-1 with the face it arrived on, and the queue flushes at the
// end of each socket drain (and at once in originate_lsa). A later copy of
// the same version in that drain adds its face to the record's heard set,
// an implied acknowledgement (RFC 2328 §13): that neighbour already holds
// the version. Each live wire face then gets one frame holding every
// queued record not heard on it, split only where a frame would pass
// FrameHeader::kMaxPayload. A newer version of an origin replaces its
// queued record. `hello_tx` and `hello_rx` count frames, not records.
//
// LSDB bound: the address plan (mesh/control.hpp) gives node n the /24
// 10.(n>>8).(n&255).0 and so names nodes 1..kMaxNodeId. A router ignores
// (and counts, `lsa_out_of_plan`) every LSA whose origin lies outside that
// range, so its LSDB holds at most kMaxNodeId = 65,535 entries and its
// origin index at most kLsdbIndexSlots; the `dip_mesh_lsdb_entries` gauge
// reports the size.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "dip/bootstrap/capability.hpp"
#include "dip/core/registry.hpp"
#include "dip/core/router.hpp"
#include "dip/ctrl/journal.hpp"
#include "dip/mesh/event_loop.hpp"
#include "dip/mesh/frame.hpp"
#include "dip/mesh/impair.hpp"
#include "dip/mesh/socket.hpp"
#include "dip/netsim/runtime.hpp"
#include "dip/telemetry/exposition.hpp"

namespace dip::mesh {

using PacketBytes = std::vector<std::uint8_t>;
using FaceId = std::uint32_t;

/// The largest node id the address plan can route (0 is the unknown-peer
/// sentinel); also the bound on LSDB entries.
inline constexpr std::uint32_t kMaxNodeId = 0xFFFF;
/// The bound on an LSDB's origin index: one 4-byte slot per origin id
/// 0..kMaxNodeId, 65,536 slots or 256 KiB per router.
inline constexpr std::size_t kLsdbIndexSlots = std::size_t{kMaxNodeId} + 1;

/// One node's wire-path counters: the conservation buckets (catalogue
/// above) plus informational series outside the equation.
struct WireLedger : netsim::TransportLedger {
  std::uint64_t decode_errors = 0;    ///< frames that failed decode_frame
  std::uint64_t seq_gaps = 0;         ///< per-face receive sequence breaks
  std::uint64_t unknown_source = 0;   ///< datagrams from unmapped endpoints
  std::uint64_t hello_tx = 0;         ///< hello frames handed to the socket
  std::uint64_t hello_rx = 0;         ///< hello frames received
  std::uint64_t hello_dropped = 0;    ///< hello frames the socket refused (never resent)
  std::uint64_t lsa_out_of_plan = 0;  ///< LSAs ignored: origin 0 or > kMaxNodeId

  WireLedger& operator+=(const WireLedger& o) noexcept;
};

/// The `dip_mesh_*` ledger series, each with `labels` (per node or none for
/// the mesh aggregate; catalogue in docs/OBSERVABILITY.md).
void write_ledger(telemetry::StatsWriter& w, const WireLedger& ledger,
                  std::span<const telemetry::Label> labels);

/// One origin's link-state announcement as stored in the LSDB.
struct Lsa {
  std::uint16_t version = 0;
  std::vector<std::uint32_t> neighbors;  ///< sorted node ids
  bootstrap::CapabilitySet capabilities;
};

/// origin node id -> latest accepted announcement. The entries sit in one
/// vector in arrival order (an origin keeps the slot of its first LSA), and
/// a slot index by origin id, grown to the largest origin stored, makes
/// lookup and insert O(1) for any arrival order. Range-for visits
/// (origin, Lsa) in arrival order; slots() is the origin-ordered view that
/// SPF walks. Origins are 0..kMaxNodeId (a router stores 1..kMaxNodeId):
/// inserting a larger one throws std::out_of_range, so the index never
/// holds more than kLsdbIndexSlots slots.
class LinkStateDb {
 public:
  using value_type = std::pair<const std::uint32_t, Lsa>;
  using iterator = std::vector<value_type>::iterator;
  using const_iterator = std::vector<value_type>::const_iterator;
  /// An index slot no origin holds.
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  [[nodiscard]] iterator begin() noexcept { return entries_.begin(); }
  [[nodiscard]] iterator end() noexcept { return entries_.end(); }
  [[nodiscard]] const_iterator begin() const noexcept { return entries_.begin(); }
  [[nodiscard]] const_iterator end() const noexcept { return entries_.end(); }
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }

  [[nodiscard]] const_iterator find(std::uint32_t origin) const noexcept {
    const std::uint32_t s = slot_of(origin);
    return s == kNoSlot ? end() : begin() + s;
  }
  [[nodiscard]] bool contains(std::uint32_t origin) const noexcept {
    return slot_of(origin) != kNoSlot;
  }
  /// Throws std::out_of_range when `origin` is not stored.
  [[nodiscard]] const Lsa& at(std::uint32_t origin) const;
  /// The stored LSA of `origin`, default-inserted when absent.
  Lsa& operator[](std::uint32_t origin);
  /// Store `lsa` for `origin`, replacing any earlier one in its slot.
  void insert_or_assign(std::uint32_t origin, Lsa lsa) { (*this)[origin] = std::move(lsa); }

  /// The origin index: entry o is the arrival slot of origin o's LSA
  /// (entry(slot) holds it), or kNoSlot. Its length is the largest origin
  /// stored + 1.
  [[nodiscard]] std::span<const std::uint32_t> slots() const noexcept { return index_; }
  [[nodiscard]] const value_type& entry(std::uint32_t slot) const { return entries_[slot]; }
  /// Slots the origin index holds in memory; at most kLsdbIndexSlots.
  [[nodiscard]] std::size_t index_capacity() const noexcept { return index_.capacity(); }

 private:
  [[nodiscard]] std::uint32_t slot_of(std::uint32_t origin) const noexcept {
    return origin < index_.size() ? index_[origin] : kNoSlot;
  }
  /// The slot of a new origin: grows the index (never past kLsdbIndexSlots)
  /// and appends a default entry.
  std::uint32_t add(std::uint32_t origin);

  std::vector<value_type> entries_;   ///< arrival order
  std::vector<std::uint32_t> index_;  ///< origin id -> slot in entries_
};

class MeshRouter : private netsim::NodePort {
 public:
  /// Delivery callback for local (host-facing) faces: full DIP packet bytes
  /// plus the loop-clock receive time.
  using LocalDelivery = std::function<void(std::span<const std::uint8_t>, std::uint64_t)>;

  struct Config {
    std::uint32_t node_id = 0;
    core::ValidationMode validation = core::ValidationMode::kStrict;
    /// Mesh-wide fault seed; per-face streams mix in the link ordinal.
    std::uint64_t fault_seed = 0;
  };

  /// `loop` and `registry` must outlive the router; the socket is owned.
  /// The router registers itself with the loop and installs a control
  /// plane (ControlTables + RouteJournal) in its RouterEnv.
  MeshRouter(Config config, MeshEventLoop& loop,
             std::unique_ptr<DatagramSocket> socket,
             std::shared_ptr<const core::OpRegistry> registry);
  ~MeshRouter();

  MeshRouter(const MeshRouter&) = delete;
  MeshRouter& operator=(const MeshRouter&) = delete;

  [[nodiscard]] std::uint32_t node_id() const noexcept { return config_.node_id; }
  [[nodiscard]] Endpoint endpoint() const noexcept { return socket_->local_endpoint(); }
  [[nodiscard]] netsim::NodeRuntime& runtime() noexcept { return runtime_; }
  [[nodiscard]] core::Router& router() noexcept { return runtime_.router(); }
  [[nodiscard]] core::RouterEnv& env() noexcept { return runtime_.env(); }
  [[nodiscard]] ctrl::RouteJournal& journal() noexcept { return journal_; }

  /// Attach a wire face toward `peer`. `ordinal` is the mesh-wide
  /// half-link ordinal (the impairer PRNG stream selector); `faults`
  /// defaults inactive. The one socket tells faces apart by the sender's
  /// endpoint, so a second face toward `peer` throws std::invalid_argument.
  FaceId add_wire_face(Endpoint peer, std::uint32_t ordinal,
                       const netsim::FaultPlan& faults = {});
  /// Attach a host-facing face; forwarding to it delivers locally.
  FaceId add_local_face(LocalDelivery delivery);

  /// Mark a wire face dark: subsequent sends are `blackholed` (the failed-
  /// link bucket) until re-enabled. In-flight datagrams still arrive.
  void set_face_up(FaceId face, bool up);

  [[nodiscard]] std::size_t face_count() const noexcept { return faces_.size(); }
  /// Wire face toward `peer_node`, or nullopt if not (yet) learned.
  [[nodiscard]] std::optional<FaceId> face_toward(std::uint32_t peer_node) const;

  /// Originate/refresh this node's LSA (neighbors = peers learned so far,
  /// capabilities = the FNs the router runs now) and flood it with `ttl` at
  /// once, together with any queued records.
  /// ttl=1 is the initial who-is-there probe that teaches direct neighbors
  /// our node id.
  void originate_lsa(std::uint8_t ttl);

  [[nodiscard]] const LinkStateDb& lsdb() const noexcept { return lsdb_; }

  /// Locally originate a DIP packet (traffic generator ingress): runs the
  /// router with `ingress` (a local face) and applies the verdict.
  void inject(std::span<std::uint8_t> packet, FaceId ingress);

  /// Data frames sent on hold-back timers that have not hit the socket yet
  /// (the quiesce condition before a ledger check).
  [[nodiscard]] std::size_t pending_holdbacks() const noexcept { return holdbacks_; }

  [[nodiscard]] const WireLedger& ledger() const noexcept { return ledger_; }
  [[nodiscard]] std::uint64_t local_delivered() const noexcept { return local_delivered_; }
  [[nodiscard]] std::uint64_t drops(core::DropReason reason) const {
    return runtime_.drops(reason);
  }

  /// `dip_mesh_*` per-node series, labelled node="<id>", including the
  /// `dip_mesh_lsdb_entries` gauge (catalogue in docs/OBSERVABILITY.md).
  void write_stats(telemetry::StatsWriter& w) const;

 private:
  enum class FaceKind : std::uint8_t { kWire, kLocal };
  struct Face {
    FaceKind kind = FaceKind::kWire;
    Endpoint peer;
    std::uint32_t peer_node = 0;  ///< learned from frame src_node
    bool up = true;
    LinkImpairer impairer;
    std::uint64_t tx_seq = 0;       ///< next kData seq on this half-link
    std::uint64_t rx_next_seq = 0;  ///< expected next inbound kData seq
    bool rx_seen = false;
    LocalDelivery delivery;  ///< kLocal only
  };

  /// A fresh LSA record waiting for the next flush: its bytes, TTL already
  /// decremented, are flood_bytes_[offset, offset + size).
  struct QueuedLsa {
    std::uint32_t origin = 0;
    FaceId ingress = 0;  ///< split horizon: never sent back out this face
    /// Bit f: a later copy of this version arrived on face f (< 64) in the
    /// same drain, so the record is not sent out of that face either.
    std::uint64_t heard = 0;
    std::size_t offset = 0;
    std::size_t size = 0;
  };

  void on_readable();
  void handle_datagram(std::span<const std::uint8_t> datagram, Endpoint from);
  /// Walk a kHello payload's records; each one is checked by accept_lsa.
  void handle_hello(std::span<const std::uint8_t> payload, FaceId ingress);
  void accept_lsa(std::span<const std::uint8_t> record, FaceId ingress);
  /// Send the queued records, one bundle per live wire face, and empty the
  /// queue.
  void flush_floods();

  // NodePort: the runtime's transmissions take the ledgered egress path.
  using netsim::NodePort::send;
  void send(FaceId face, std::span<const std::uint8_t> packet) override {
    send_data(face, packet);
  }
  [[nodiscard]] SimTime now() const override { return loop_.now_ns(); }

  /// The ledgered egress path: frame, impair the frame's payload, send (or
  /// hold back on a reorder timer). Local faces deliver locally.
  void send_data(FaceId face, std::span<const std::uint8_t> packet);
  /// Socket write + EAGAIN accounting for one (possibly delayed, possibly
  /// duplicate) framed copy.
  void emit_frame(FaceId face, std::span<const std::uint8_t> frame_bytes, bool duplicate);
  void send_hello_on(FaceId face, std::span<const std::uint8_t> payload);

  Config config_;
  MeshEventLoop& loop_;
  std::unique_ptr<DatagramSocket> socket_;
  MeshEventLoop::SocketId socket_id_ = 0;
  std::shared_ptr<ctrl::ControlTables> tables_;
  netsim::NodeRuntime runtime_;
  ctrl::RouteJournal journal_;

  std::vector<Face> faces_;
  std::map<Endpoint, FaceId> ingress_of_;  ///< wire endpoint -> face

  LinkStateDb lsdb_;
  std::uint16_t lsa_version_ = 0;
  std::vector<QueuedLsa> flood_queue_;  ///< arrival order; one entry per origin
  PacketBytes flood_bytes_;

  WireLedger ledger_;
  std::uint64_t local_delivered_ = 0;
  std::size_t holdbacks_ = 0;
  std::vector<std::uint8_t> recv_buf_;
};

}  // namespace dip::mesh
