#include "dip/mesh/node.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace dip::mesh {

namespace {

void put16(PacketBytes& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v));
}

void put32(PacketBytes& out, std::uint32_t v) {
  put16(out, static_cast<std::uint16_t>(v >> 16));
  put16(out, static_cast<std::uint16_t>(v));
}

[[nodiscard]] std::uint16_t get16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>((p[0] << 8) | p[1]);
}

[[nodiscard]] std::uint32_t get32(const std::uint8_t* p) {
  return (static_cast<std::uint32_t>(get16(p)) << 16) | get16(p + 2);
}

// kHello payload: a sequence of LSA records, each
//   origin:32 version:16 ttl:8 nnbr:16 neighbor:32 × nnbr,
//   then the CapabilitySet wire form (count:8 key:16 × count),
// so every record frames itself from its header; a one-record payload is
// one LSA. Neighbor ids ascend (a repeat is a parallel link).
constexpr std::size_t kRecordHeader = 9;  // origin, version, ttl, nnbr
constexpr std::size_t kTtlAt = 6;
constexpr FaceId kNoFace = ~FaceId{0};  // ingress of our own records

/// Size of the record at the front of `payload`, or 0 if it is truncated.
[[nodiscard]] std::size_t record_size(std::span<const std::uint8_t> payload) {
  if (payload.size() < kRecordHeader) return 0;
  const std::size_t caps_at = kRecordHeader + 4 * std::size_t{get16(payload.data() + 7)};
  if (payload.size() <= caps_at) return 0;
  const std::size_t size = caps_at + 1 + 2 * std::size_t{payload[caps_at]};
  return payload.size() < size ? 0 : size;
}

void put_record(PacketBytes& out, std::uint32_t origin, const Lsa& lsa, std::uint8_t ttl) {
  put32(out, origin);
  put16(out, lsa.version);
  out.push_back(ttl);
  put16(out, static_cast<std::uint16_t>(lsa.neighbors.size()));
  for (const std::uint32_t n : lsa.neighbors) put32(out, n);
  const PacketBytes caps = lsa.capabilities.serialize();
  out.insert(out.end(), caps.begin(), caps.end());
}

[[nodiscard]] core::RouterEnv make_env(std::uint32_t node_id,
                                       std::shared_ptr<ctrl::ControlTables> tables) {
  core::RouterEnv env;
  env.node_id = node_id;
  env.control = std::move(tables);
  env.ctrl_reader = env.control->register_reader();
  return env;
}

}  // namespace

const Lsa& LinkStateDb::at(std::uint32_t origin) const {
  const std::uint32_t s = slot_of(origin);
  if (s == kNoSlot) throw std::out_of_range("LinkStateDb::at: origin not stored");
  return entries_[s].second;
}

Lsa& LinkStateDb::operator[](std::uint32_t origin) {
  const std::uint32_t s = slot_of(origin);
  return entries_[s == kNoSlot ? add(origin) : s].second;
}

std::uint32_t LinkStateDb::add(std::uint32_t origin) {
  if (origin >= kLsdbIndexSlots) throw std::out_of_range("LinkStateDb: origin above kMaxNodeId");
  if (origin >= index_.size()) {
    // Geometric growth, capped at the declared bound.
    if (origin >= index_.capacity()) {
      index_.reserve(std::min(std::max(std::size_t{origin} + 1, 2 * index_.capacity()),
                              kLsdbIndexSlots));
    }
    index_.resize(std::size_t{origin} + 1, kNoSlot);
  }
  const auto s = static_cast<std::uint32_t>(entries_.size());
  entries_.emplace_back(origin, Lsa{});
  index_[origin] = s;
  return s;
}

WireLedger& WireLedger::operator+=(const WireLedger& o) noexcept {
  netsim::TransportLedger::operator+=(o);
  decode_errors += o.decode_errors;
  seq_gaps += o.seq_gaps;
  unknown_source += o.unknown_source;
  hello_tx += o.hello_tx;
  hello_rx += o.hello_rx;
  hello_dropped += o.hello_dropped;
  lsa_out_of_plan += o.lsa_out_of_plan;
  return *this;
}

void write_ledger(telemetry::StatsWriter& w, const WireLedger& ledger,
                  std::span<const telemetry::Label> labels) {
  w.counter("dip_mesh_transmitted_total", labels, ledger.transmitted);
  w.counter("dip_mesh_duplicated_total", labels, ledger.duplicated);
  w.counter("dip_mesh_delivered_total", labels, ledger.delivered);
  w.counter("dip_mesh_lost_total", labels, ledger.lost);
  w.counter("dip_mesh_blackholed_total", labels, ledger.blackholed);
  w.counter("dip_mesh_dropped_total", labels, ledger.dropped);
  w.counter("dip_mesh_corrupted_total", labels, ledger.corrupted);
  w.counter("dip_mesh_decode_errors_total", labels, ledger.decode_errors);
  w.counter("dip_mesh_seq_gaps_total", labels, ledger.seq_gaps);
  w.counter("dip_mesh_unknown_source_total", labels, ledger.unknown_source);
  w.counter("dip_mesh_hello_tx_total", labels, ledger.hello_tx);
  w.counter("dip_mesh_hello_rx_total", labels, ledger.hello_rx);
  w.counter("dip_mesh_hello_dropped_total", labels, ledger.hello_dropped);
  w.counter("dip_mesh_lsa_out_of_plan_total", labels, ledger.lsa_out_of_plan);
}

MeshRouter::MeshRouter(Config config, MeshEventLoop& loop,
                       std::unique_ptr<DatagramSocket> socket,
                       std::shared_ptr<const core::OpRegistry> registry)
    : config_(std::move(config)),
      loop_(loop),
      socket_(std::move(socket)),
      tables_(std::make_shared<ctrl::ControlTables>()),
      runtime_(*this, make_env(config_.node_id, tables_), std::move(registry)),
      journal_(tables_) {
  runtime_.router().set_validation(config_.validation);
  recv_buf_.resize(FrameHeader::kWireSize + FrameHeader::kMaxPayload + 64);
  socket_id_ = loop_.add_socket(*socket_, [this] { on_readable(); });
}

MeshRouter::~MeshRouter() { loop_.remove_socket(socket_id_); }

FaceId MeshRouter::add_wire_face(Endpoint peer, std::uint32_t ordinal,
                                 const netsim::FaultPlan& faults) {
  const FaceId id = static_cast<FaceId>(faces_.size());
  // The socket tells faces apart by the sender's endpoint alone.
  if (!ingress_of_.emplace(peer, id).second) {
    throw std::invalid_argument("MeshRouter::add_wire_face: a face toward this endpoint exists");
  }
  Face f;
  f.kind = FaceKind::kWire;
  f.peer = peer;
  f.impairer = LinkImpairer(faults, config_.fault_seed, ordinal);
  faces_.push_back(std::move(f));
  return id;
}

FaceId MeshRouter::add_local_face(LocalDelivery delivery) {
  Face f;
  f.kind = FaceKind::kLocal;
  f.delivery = std::move(delivery);
  const FaceId id = static_cast<FaceId>(faces_.size());
  faces_.push_back(std::move(f));
  return id;
}

void MeshRouter::set_face_up(FaceId face, bool up) {
  if (face < faces_.size()) faces_[face].up = up;
}

std::optional<FaceId> MeshRouter::face_toward(std::uint32_t peer_node) const {
  for (std::size_t i = 0; i < faces_.size(); ++i) {
    if (faces_[i].kind == FaceKind::kWire && faces_[i].peer_node == peer_node) {
      return static_cast<FaceId>(i);
    }
  }
  return std::nullopt;
}

void MeshRouter::originate_lsa(std::uint8_t ttl) {
  Lsa self{++lsa_version_, {}, {}};
  for (const core::OpKey key : runtime_.registry().keys()) {
    if (env().supports(key)) self.capabilities.add(key);
  }
  for (const Face& f : faces_) {
    if (f.kind == FaceKind::kWire && f.up && f.peer_node != 0) {
      self.neighbors.push_back(f.peer_node);
    }
  }
  std::sort(self.neighbors.begin(), self.neighbors.end());
  const std::size_t offset = flood_bytes_.size();
  put_record(flood_bytes_, config_.node_id, self, ttl);
  flood_queue_.push_back({config_.node_id, kNoFace, 0, offset, flood_bytes_.size() - offset});

  // Our own LSDB entry before the flood (SPF and AS-graph queries see self).
  lsdb_.insert_or_assign(config_.node_id, std::move(self));
  flush_floods();
}

void MeshRouter::flush_floods() {
  if (flood_queue_.empty()) return;
  PacketBytes bundle;
  for (std::size_t face = 0; face < faces_.size(); ++face) {
    if (faces_[face].kind != FaceKind::kWire || !faces_[face].up) continue;
    bundle.clear();
    for (const QueuedLsa& q : flood_queue_) {
      if (q.ingress == face || (face < 64 && (q.heard >> face & 1) != 0)) continue;
      if (!bundle.empty() && bundle.size() + q.size > FrameHeader::kMaxPayload) {
        send_hello_on(static_cast<FaceId>(face), bundle);
        bundle.clear();
      }
      const auto first = flood_bytes_.begin() + static_cast<std::ptrdiff_t>(q.offset);
      bundle.insert(bundle.end(), first, first + static_cast<std::ptrdiff_t>(q.size));
    }
    if (!bundle.empty()) send_hello_on(static_cast<FaceId>(face), bundle);
  }
  // Floods come in bursts far apart: keep no buffers between them.
  flood_queue_ = std::vector<QueuedLsa>();
  flood_bytes_ = PacketBytes();
}

void MeshRouter::send_hello_on(FaceId face, std::span<const std::uint8_t> payload) {
  // Gossip is control traffic: exempt from impairment and outside the data
  // ledger (netsim's faults only apply to forwarded packets, same here).
  // Hellos do not consume data seq numbers (receivers only sequence-check
  // kData); the versions inside the payload are their ordering. Nothing
  // resends a refused frame, so each one is counted.
  const PacketBytes frame =
      encode_frame(FrameType::kHello, config_.node_id, 0, payload);
  ++ledger_.hello_tx;
  if (socket_->send_to(faces_[face].peer, frame) != IoStatus::kOk) ++ledger_.hello_dropped;
}

void MeshRouter::on_readable() {
  // Drain to EAGAIN: with raised rcvbuf this bounds kernel-side shedding,
  // and bucketing per ingress face lets process_batch amortize the burst.
  while (true) {
    const RecvOutcome out = socket_->recv_from(recv_buf_);
    if (out.status != IoStatus::kOk) break;
    const std::size_t have = std::min(out.size, recv_buf_.size());
    handle_datagram(std::span(recv_buf_.data(), have), out.from);
  }
  flush_floods();
  runtime_.flush(loop_.now_ns());
}

void MeshRouter::handle_datagram(std::span<const std::uint8_t> datagram,
                                 Endpoint from) {
  const auto it = ingress_of_.find(from);
  const bool known = it != ingress_of_.end();
  auto decoded = decode_frame(datagram);
  if (!decoded) {
    if (known) {
      // Arrived, but unusable — still `delivered` for conservation (the
      // sender counted it out); the decode error is its own series.
      ++ledger_.delivered;
      ++ledger_.decode_errors;
    } else {
      ++ledger_.unknown_source;
    }
    return;
  }
  const Frame& frame = *decoded;
  if (!known) {
    ++ledger_.unknown_source;
    return;
  }
  const FaceId face_id = it->second;
  Face& face = faces_[face_id];
  if (face.peer_node == 0) face.peer_node = frame.header.src_node;

  switch (frame.header.type) {
    case FrameType::kData: {
      ++ledger_.delivered;
      if (face.rx_seen && frame.header.seq != face.rx_next_seq) {
        ++ledger_.seq_gaps;
      }
      face.rx_seen = true;
      face.rx_next_seq = frame.header.seq + 1;
      runtime_.enqueue(face_id, frame.payload);
      return;
    }
    case FrameType::kHello: {
      ++ledger_.hello_rx;
      handle_hello(frame.payload, face_id);
      return;
    }
    case FrameType::kVerdict:
    case FrameType::kBye:
      return;  // conformance-harness frames; a mesh router ignores them
  }
}

void MeshRouter::handle_hello(std::span<const std::uint8_t> payload, FaceId ingress) {
  // A truncated record ends the walk: nothing behind it can be framed.
  for (std::size_t size = record_size(payload); size != 0; size = record_size(payload)) {
    accept_lsa(payload.first(size), ingress);
    payload = payload.subspan(size);
  }
}

void MeshRouter::accept_lsa(std::span<const std::uint8_t> record, FaceId ingress) {
  const std::uint32_t origin = get32(record.data());
  const std::uint16_t version = get16(record.data() + 4);
  if (origin == config_.node_id) return;  // our own flood, looped back
  if (origin == 0 || origin > kMaxNodeId) {
    ++ledger_.lsa_out_of_plan;  // no /24 in the address plan: never stored
    return;
  }

  // Versions are 16-bit serial numbers (RFC 1982): an LSA is fresh when it
  // is ahead of the stored one by less than half the space, so an origin
  // stays heard after its version wraps from 65,535 to 0. Most copies a
  // flood delivers are stale and leave here, before any decoding.
  const auto it = lsdb_.find(origin);
  const bool known = it != lsdb_.end();
  if (known) {
    const auto ahead = static_cast<std::int16_t>(version - it->second.version);
    if (ahead == 0) {
      // The stored version again: if its record still waits in this drain's
      // queue, this neighbour needs no copy of it (RFC 2328 §13's implied
      // acknowledgement).
      const auto q = std::find_if(flood_queue_.begin(), flood_queue_.end(),
                                  [origin](const QueuedLsa& e) { return e.origin == origin; });
      if (q != flood_queue_.end() && ingress < 64) q->heard |= std::uint64_t{1} << ingress;
    }
    if (ahead <= 0) return;
  }

  const std::size_t nnbr = get16(record.data() + 7);
  std::vector<std::uint32_t> neighbors(nnbr);
  for (std::size_t i = 0; i < nnbr; ++i) {
    neighbors[i] = get32(record.data() + kRecordHeader + 4 * i);
  }
  // SPF binary-searches neighbor lists, so an unsorted one is refused.
  if (!std::is_sorted(neighbors.begin(), neighbors.end())) return;
  auto caps = bootstrap::CapabilitySet::parse(record.subspan(kRecordHeader + 4 * nnbr));
  if (!caps) return;  // a repeated key

  // A newer version replaces the queued one, so only the newest leaves.
  if (known) {
    std::erase_if(flood_queue_, [origin](const QueuedLsa& q) { return q.origin == origin; });
  }
  if (record[kTtlAt] > 1) {
    const std::size_t offset = flood_bytes_.size();
    flood_bytes_.insert(flood_bytes_.end(), record.begin(), record.end());
    --flood_bytes_[offset + kTtlAt];
    flood_queue_.push_back({origin, ingress, 0, offset, record.size()});
  }
  lsdb_.insert_or_assign(origin, Lsa{version, std::move(neighbors), std::move(*caps)});
}

void MeshRouter::inject(std::span<std::uint8_t> packet, FaceId ingress) {
  runtime_.process(ingress, packet, loop_.now_ns());
}

void MeshRouter::send_data(FaceId face_id, std::span<const std::uint8_t> packet) {
  if (face_id >= faces_.size()) return;
  Face& face = faces_[face_id];
  if (face.kind == FaceKind::kLocal) {
    ++local_delivered_;
    if (face.delivery) face.delivery(packet, loop_.now_ns());
    return;
  }

  ++ledger_.transmitted;
  if (!face.up) {
    ++ledger_.blackholed;  // failed link: dark until re-enabled
    return;
  }

  // One buffer per send: frame first, then let the impairer corrupt the
  // frame's payload in place. The frame checksum covers only the header, so
  // a corrupted frame still decodes and router validation sees the flips;
  // tx_seq advances only for frames that leave.
  PacketBytes frame =
      encode_frame(FrameType::kData, config_.node_id, face.tx_seq, packet);
  const ImpairDecision d = face.impairer.next(
      loop_.now_ns(), std::span<std::uint8_t>(frame).subspan(FrameHeader::kWireSize));
  if (d.blackout) {
    ++ledger_.blackholed;
    return;
  }
  if (d.drop) {
    ++ledger_.lost;
    return;
  }
  if (d.corrupt_bytes != 0) ++ledger_.corrupted;
  ++face.tx_seq;

  if (d.extra_delay_ns != 0) {
    // Reorder hold-back: the copy leaves later, off a loop timer. Later
    // sends on this face overtake it — exactly netsim's reorder fault.
    ++holdbacks_;
    loop_.schedule_in(d.extra_delay_ns,
                      [this, face_id, f = std::move(frame), dup = d.duplicate] {
                        --holdbacks_;
                        emit_frame(face_id, f, false);
                        if (dup) emit_frame(face_id, f, true);
                      });
    return;
  }
  emit_frame(face_id, frame, false);
  if (d.duplicate) emit_frame(face_id, frame, true);
}

void MeshRouter::emit_frame(FaceId face_id, std::span<const std::uint8_t> frame_bytes,
                            bool duplicate) {
  Face& face = faces_[face_id];
  if (duplicate) ++ledger_.duplicated;
  const IoStatus st = socket_->send_to(face.peer, frame_bytes);
  if (st != IoStatus::kOk) {
    ++ledger_.dropped;  // transmit queue full (EAGAIN/ENOBUFS): tail drop
  }
}

void MeshRouter::write_stats(telemetry::StatsWriter& w) const {
  const std::string node_id = std::to_string(config_.node_id);
  const telemetry::Label labels[] = {{"node", node_id}};
  write_ledger(w, ledger_, labels);
  w.counter("dip_mesh_local_delivered_total", labels, local_delivered_);
  w.gauge("dip_mesh_lsdb_entries", labels, static_cast<double>(lsdb_.size()));
  runtime_.write_drops(w, "dip_mesh_verdict_drops_total");
}

}  // namespace dip::mesh
