// Property-based conformance harness (ISSUE 4): drives generated packet
// streams through every production engine (scalar / batch / pool) in both
// validation modes and checks each verdict AND each rewritten packet byte
// against the executable-spec reference model (src/refmodel/).
//
// Test order inside this suite is load-bearing:
//   1. the persisted corpus replays first (regression packets from earlier
//      shrinks reproduce before any fresh generation),
//   2. the fresh 10k-packet streams run per engine x mode,
//   3. the F_dps stream runs on the order-preserving engines,
//   4. a deliberately mutated refmodel proves the harness actually catches
//      spec divergences and shrinks them to a minimal reproducer,
//   5. the coverage ledger proves the streams exercised every op key, every
//      action, and every drop reason.
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <csignal>
#include <cstdint>
#include <mutex>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "dip/core/router_pool.hpp"
#include "dip/mesh/frame.hpp"
#include "dip/mesh/socket.hpp"
#include "proptest/proptest.hpp"
#include "support/conformance.hpp"

namespace {

using namespace dip;           // NOLINT
using namespace dip::conformance;  // NOLINT
using proptest::Packet;

constexpr std::uint64_t kSeed = 0x5EED'2026'04'01ull;
constexpr std::size_t kStreamLen = 10'000;
constexpr std::size_t kPoolWorkers = 4;

enum class EngineKind { kScalar, kBatch, kPool };

const char* name_of(EngineKind k) {
  switch (k) {
    case EngineKind::kScalar: return "scalar";
    case EngineKind::kBatch: return "batch";
    case EngineKind::kPool: return "pool";
  }
  return "?";
}

std::unique_ptr<core::RouterEngine> make_engine(EngineKind kind,
                                                const core::OpRegistry* registry,
                                                const core::EnvFactory& envf,
                                                core::ValidationMode mode,
                                                std::size_t batch_size = w::kBatch) {
  core::EngineConfig cfg;
  cfg.validation = mode;
  cfg.batch_size = batch_size;
  cfg.pool_workers = kPoolWorkers;
  switch (kind) {
    case EngineKind::kScalar: return core::make_scalar_engine(registry, envf, cfg);
    case EngineKind::kBatch: return core::make_batch_engine(registry, envf, cfg);
    case EngineKind::kPool: return core::make_pool_engine(registry, envf, cfg);
  }
  return nullptr;
}

/// Global coverage accumulator (asserted by the final test in this suite).
struct Coverage {
  refmodel::RefLedger ledger;
  std::set<int> reasons;  // common-image ordinals, both sides merged
  std::set<int> actions;
};

Coverage& coverage() {
  static Coverage c;
  return c;
}

void note_production(const core::ProcessResult& r) {
  coverage().actions.insert(image_of(r.action));
  coverage().reasons.insert(image_of(r.reason));
}

void merge_ledger(const refmodel::RefLedger& l) {
  auto& c = coverage();
  c.ledger.op_keys_executed.insert(l.op_keys_executed.begin(), l.op_keys_executed.end());
  c.ledger.op_keys_seen.insert(l.op_keys_seen.begin(), l.op_keys_seen.end());
  for (const auto a : l.actions) c.actions.insert(static_cast<int>(a));
  for (const auto r : l.reasons) c.reasons.insert(static_cast<int>(r));
}

/// Drive `stream` through one production engine and the refmodel oracle;
/// assert byte- and verdict-identical behaviour packet by packet. For the
/// pool engine the oracle is one RefNode per worker, mirrored through the
/// same flow-affine shard function the pool uses.
/// `burst` overrides the batch engine's burst size (default: the
/// generator's kBatch alignment). Per the EngineConfig contract, nows and
/// ingresses are held constant within each burst-aligned block — the block
/// head's values — so the refmodel mirror sees exactly what the burst saw.
void run_stream_conformance(EngineKind kind, core::ValidationMode mode,
                            std::vector<Packet> stream, bool with_dps = false,
                            std::size_t burst = w::kBatch,
                            bool with_custody = false) {
  const SharedTables tables = make_shared_tables();
  const std::shared_ptr<core::OpRegistry> registry =
      make_registry(with_dps, with_custody);
  const auto engine =
      make_engine(kind, registry.get(), make_env_factory(tables), mode, burst);

  const std::size_t n = stream.size();
  std::vector<SimTime> nows(n);
  std::vector<core::FaceId> ingresses(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t head = (i / burst) * burst;
    nows[i] = w::now_of(head);
    ingresses[i] = w::ingress_of(head);
  }

  // Refmodel mirrors: shard exactly as the pool does (pre-submit bytes).
  const bool lenient = mode == core::ValidationMode::kLenient;
  const std::size_t mirrors = kind == EngineKind::kPool ? kPoolWorkers : 1;
  std::vector<refmodel::RefNode> ref_nodes;
  ref_nodes.reserve(mirrors);
  for (std::size_t i = 0; i < mirrors; ++i) {
    ref_nodes.push_back(make_ref_node(lenient, with_dps, refmodel::Mutation::kNone,
                                      with_custody));
  }
  std::vector<std::size_t> owner(n, 0);
  if (kind == EngineKind::kPool) {
    for (std::size_t i = 0; i < n; ++i) {
      owner[i] = core::RouterPool::shard_of(stream[i], kPoolWorkers);
    }
  }

  std::vector<Packet> prod = stream;  // the engine mutates these in place
  const std::vector<core::ProcessResult> results =
      engine->run(prod, nows, ingresses);
  ASSERT_EQ(results.size(), n);

  for (std::size_t i = 0; i < n; ++i) {
    const VerdictImage got = image_of(results[i]);
    Packet ref_packet = stream[i];
    const refmodel::RefVerdict rv =
        ref_nodes[owner[i]].process(ref_packet, ingresses[i], nows[i]);
    const VerdictImage want = image_of(rv);
    ASSERT_EQ(got, want) << name_of(kind) << (lenient ? "/lenient" : "/strict")
                         << " verdict diverged at packet " << i << "\n  production "
                         << to_string(got) << "\n  refmodel   " << to_string(want)
                         << "\n  packet " << dump_packet(stream[i]);
    ASSERT_EQ(prod[i], ref_packet)
        << name_of(kind) << (lenient ? "/lenient" : "/strict")
        << " rewritten bytes diverged at packet " << i << "\n  production "
        << dump_packet(prod[i]) << "\n  refmodel   " << dump_packet(ref_packet)
        << "\n  input " << dump_packet(stream[i]);
    note_production(results[i]);
  }
  for (const auto& node : ref_nodes) merge_ledger(node.ledger());
}

/// True when `packet` makes production and a (possibly mutated) refmodel
/// disagree, with ALL state rebuilt per call — the pure predicate the
/// shrinker requires.
bool diverges_single(const Packet& packet, refmodel::Mutation mutation) {
  const SharedTables tables = make_shared_tables();
  const std::shared_ptr<core::OpRegistry> registry = make_registry(false);
  const auto engine =
      make_engine(EngineKind::kScalar, registry.get(), make_env_factory(tables),
                  core::ValidationMode::kStrict);
  std::vector<Packet> prod{packet};
  const SimTime now = w::now_of(0);
  const core::FaceId ingress = w::ingress_of(0);
  const auto results = engine->run(prod, {&now, 1}, {&ingress, 1});

  refmodel::RefNode node = make_ref_node(/*lenient=*/false, /*dps=*/false, mutation);
  Packet ref_packet = packet;
  const refmodel::RefVerdict rv = node.process(ref_packet, ingress, now);
  return !(image_of(results[0]) == image_of(rv) && prod[0] == ref_packet);
}

// ---------------------------------------------------------------------------
// 1. Corpus replay — committed reproducers run before fresh generation.
// ---------------------------------------------------------------------------

TEST(Conformance, CorpusReplaysCleanly) {
  const auto corpus = proptest::load_corpus(DIP_CORPUS_DIR);
  ASSERT_FALSE(corpus.empty()) << "tests/corpus/ must ship seed entries";
  for (const auto& [name, packet] : corpus) {
    EXPECT_FALSE(diverges_single(packet, refmodel::Mutation::kNone))
        << "corpus entry " << name << " diverges: " << dump_packet(packet);
  }
}

// ---------------------------------------------------------------------------
// 2. Fresh streams, every engine x validation mode.
// ---------------------------------------------------------------------------

TEST(Conformance, ScalarStrict) {
  run_stream_conformance(EngineKind::kScalar, core::ValidationMode::kStrict,
                         proptest::gen::make_conformance_stream(kSeed, kStreamLen));
}

TEST(Conformance, ScalarLenient) {
  run_stream_conformance(EngineKind::kScalar, core::ValidationMode::kLenient,
                         proptest::gen::make_conformance_stream(kSeed + 1, kStreamLen));
}

TEST(Conformance, BatchStrict) {
  run_stream_conformance(EngineKind::kBatch, core::ValidationMode::kStrict,
                         proptest::gen::make_conformance_stream(kSeed + 2, kStreamLen));
}

TEST(Conformance, BatchLenient) {
  run_stream_conformance(EngineKind::kBatch, core::ValidationMode::kLenient,
                         proptest::gen::make_conformance_stream(kSeed + 3, kStreamLen));
}

// Odd burst shapes against the refmodel oracle: a singleton (runs alone
// through run_fn), sizes off the crypto strip width (3, 7), and one past
// the bench's 32-wide shape (33). Strict and lenient both.
TEST(Conformance, BatchOddBurstShapesStrict) {
  std::uint64_t salt = 20;
  for (const std::size_t burst : {1, 3, 7, 33}) {
    run_stream_conformance(
        EngineKind::kBatch, core::ValidationMode::kStrict,
        proptest::gen::make_conformance_stream(kSeed + salt++, kStreamLen / 4),
        /*with_dps=*/false, burst);
  }
}

TEST(Conformance, BatchOddBurstShapesLenient) {
  std::uint64_t salt = 30;
  for (const std::size_t burst : {1, 3, 7, 33}) {
    run_stream_conformance(
        EngineKind::kBatch, core::ValidationMode::kLenient,
        proptest::gen::make_conformance_stream(kSeed + salt++, kStreamLen / 4),
        /*with_dps=*/false, burst);
  }
}

TEST(Conformance, PoolStrict) {
  run_stream_conformance(EngineKind::kPool, core::ValidationMode::kStrict,
                         proptest::gen::make_conformance_stream(kSeed + 4, kStreamLen));
}

TEST(Conformance, PoolLenient) {
  run_stream_conformance(EngineKind::kPool, core::ValidationMode::kLenient,
                         proptest::gen::make_conformance_stream(kSeed + 5, kStreamLen));
}

// ---------------------------------------------------------------------------
// 2c. Scale-out: the same byte-identity obligation across a 2-PROCESS UDP
// pair. The parent is the driver + refmodel oracle; a fork()ed child runs a
// production scalar engine behind mesh framing (kData request / kVerdict
// reply, per-frame seq). Transport is stop-and-wait with retransmission and
// seq-based dedupe — exactly-once engine execution even if loopback sheds a
// datagram — so the child's stateful modules (PIT, flow cache) see the
// stream in exactly the order the oracle does. now/ingress are derived from
// the frame seq on BOTH sides (w::now_of / w::ingress_of), keeping the two
// processes' worlds identical without a side channel.
// ---------------------------------------------------------------------------

namespace udp_pair {

constexpr std::uint32_t kParentNode = 1;
constexpr std::uint32_t kChildNode = 2;

/// kVerdict payload: action:8 reason:8 offending:16 cache:8 negress:8
/// egress:32 each, then the rewritten packet bytes.
std::vector<std::uint8_t> encode_verdict_payload(const VerdictImage& v,
                                                 const Packet& rewritten) {
  std::vector<std::uint8_t> out;
  out.reserve(7 + v.egress.size() * 4 + rewritten.size());
  out.push_back(static_cast<std::uint8_t>(v.action));
  out.push_back(static_cast<std::uint8_t>(v.reason));
  out.push_back(static_cast<std::uint8_t>(v.offending_key >> 8));
  out.push_back(static_cast<std::uint8_t>(v.offending_key));
  out.push_back(v.respond_from_cache ? 1 : 0);
  out.push_back(static_cast<std::uint8_t>(v.egress.size()));
  for (const std::uint32_t e : v.egress) {
    for (int b = 3; b >= 0; --b) out.push_back(static_cast<std::uint8_t>(e >> (8 * b)));
  }
  out.insert(out.end(), rewritten.begin(), rewritten.end());
  return out;
}

std::optional<std::pair<VerdictImage, Packet>> decode_verdict_payload(
    std::span<const std::uint8_t> p) {
  if (p.size() < 6) return std::nullopt;
  VerdictImage v;
  v.action = p[0];
  v.reason = p[1];
  v.offending_key = static_cast<std::uint16_t>((p[2] << 8) | p[3]);
  v.respond_from_cache = p[4] != 0;
  const std::size_t negress = p[5];
  if (p.size() < 6 + negress * 4) return std::nullopt;
  for (std::size_t i = 0; i < negress; ++i) {
    const std::uint8_t* q = p.data() + 6 + i * 4;
    v.egress.push_back((static_cast<std::uint32_t>(q[0]) << 24) |
                       (static_cast<std::uint32_t>(q[1]) << 16) |
                       (static_cast<std::uint32_t>(q[2]) << 8) | q[3]);
  }
  return std::make_pair(std::move(v),
                        Packet(p.begin() + 6 + static_cast<std::ptrdiff_t>(negress * 4),
                               p.end()));
}

/// The child: a production scalar engine served over UDP. Exits 0 on kBye,
/// nonzero on protocol breakage or 30 s of silence (orphan safety). Plain
/// exit codes, not gtest — assertions in a fork()ed child don't reach the
/// parent's test result.
[[noreturn]] void serve_child(mesh::UdpSocket& sock, core::ValidationMode mode) {
  const SharedTables tables = make_shared_tables();
  const std::shared_ptr<core::OpRegistry> registry = make_registry(false);
  const auto engine = make_engine(EngineKind::kScalar, registry.get(),
                                  make_env_factory(tables), mode);
  std::vector<std::uint8_t> buf(64 * 1024);
  std::uint64_t next_seq = 0;
  std::uint64_t last_seq = ~std::uint64_t{0};
  std::vector<std::uint8_t> last_reply;
  for (;;) {
    pollfd pfd{sock.fd(), POLLIN, 0};
    if (::poll(&pfd, 1, 30'000) <= 0) ::_exit(2);
    for (;;) {
      const mesh::RecvOutcome out = sock.recv_from(buf);
      if (out.status != mesh::IoStatus::kOk) break;
      const auto frame =
          mesh::decode_frame(std::span(buf.data(), std::min(out.size, buf.size())));
      if (!frame) continue;
      if (frame->header.type == mesh::FrameType::kBye) ::_exit(0);
      if (frame->header.type != mesh::FrameType::kData) continue;
      const std::uint64_t seq = frame->header.seq;
      if (seq == last_seq && !last_reply.empty()) {
        // Our reply was lost and the request retransmitted: resend the
        // cached verdict, do NOT rerun the engine (exactly-once).
        (void)sock.send_to(out.from, last_reply);
        continue;
      }
      if (seq != next_seq) continue;  // outside the stop-and-wait window
      std::vector<Packet> prod{Packet(frame->payload.begin(), frame->payload.end())};
      const SimTime now = w::now_of(seq);
      const core::FaceId ingress = w::ingress_of(seq);
      const auto results = engine->run(prod, {&now, 1}, {&ingress, 1});
      if (results.size() != 1) ::_exit(3);
      last_reply = mesh::encode_frame(mesh::FrameType::kVerdict, kChildNode, seq,
                                      encode_verdict_payload(image_of(results[0]), prod[0]));
      last_seq = seq;
      ++next_seq;
      (void)sock.send_to(out.from, last_reply);
    }
  }
}

void run_udp_pair_conformance(core::ValidationMode mode,
                              const std::vector<Packet>& stream) {
  auto parent_sock = std::make_unique<mesh::UdpSocket>();
  auto child_sock = std::make_unique<mesh::UdpSocket>();
  const mesh::Endpoint child_ep = child_sock->local_endpoint();

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0) << "fork failed";
  if (pid == 0) serve_child(*child_sock, mode);  // never returns

  const bool lenient = mode == core::ValidationMode::kLenient;
  refmodel::RefNode ref = make_ref_node(lenient);
  std::vector<std::uint8_t> buf(64 * 1024);

  for (std::size_t i = 0; i < stream.size(); ++i) {
    const auto request =
        mesh::encode_frame(mesh::FrameType::kData, kParentNode, i, stream[i]);
    std::optional<std::pair<VerdictImage, Packet>> reply;
    for (int attempt = 0; attempt < 50 && !reply; ++attempt) {
      ASSERT_EQ(parent_sock->send_to(child_ep, request), mesh::IoStatus::kOk);
      pollfd pfd{parent_sock->fd(), POLLIN, 0};
      if (::poll(&pfd, 1, 200) <= 0) continue;  // timed out: retransmit
      for (;;) {
        const mesh::RecvOutcome out = parent_sock->recv_from(buf);
        if (out.status != mesh::IoStatus::kOk) break;
        const auto frame = mesh::decode_frame(
            std::span(buf.data(), std::min(out.size, buf.size())));
        if (!frame || frame->header.type != mesh::FrameType::kVerdict) continue;
        if (frame->header.seq != i) continue;  // stale duplicate from seq i-1
        reply = decode_verdict_payload(frame->payload);
        break;
      }
    }
    ASSERT_TRUE(reply.has_value())
        << "udp-pair: no verdict for packet " << i << " after retransmissions";

    Packet ref_packet = stream[i];
    const refmodel::RefVerdict rv = ref.process(ref_packet, w::ingress_of(i), w::now_of(i));
    const VerdictImage want = image_of(rv);
    ASSERT_EQ(reply->first, want)
        << "udp-pair" << (lenient ? "/lenient" : "/strict")
        << " verdict diverged at packet " << i << "\n  remote engine "
        << to_string(reply->first) << "\n  refmodel     " << to_string(want)
        << "\n  packet " << dump_packet(stream[i]);
    ASSERT_EQ(reply->second, ref_packet)
        << "udp-pair" << (lenient ? "/lenient" : "/strict")
        << " rewritten bytes diverged at packet " << i << "\n  remote engine "
        << dump_packet(reply->second) << "\n  refmodel     "
        << dump_packet(ref_packet) << "\n  input " << dump_packet(stream[i]);
    coverage().actions.insert(reply->first.action);
    coverage().reasons.insert(reply->first.reason);
  }
  merge_ledger(ref.ledger());

  // Orderly shutdown: BYE until the child exits (it may be mid-poll).
  const auto bye =
      mesh::encode_frame(mesh::FrameType::kBye, kParentNode, stream.size(), {});
  int status = 0;
  for (int i = 0; i < 500; ++i) {
    (void)parent_sock->send_to(child_ep, bye);
    if (::waitpid(pid, &status, WNOHANG) == pid) {
      EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
          << "child exited abnormally (status " << status << ")";
      return;
    }
    ::usleep(10'000);
  }
  ::kill(pid, SIGKILL);
  (void)::waitpid(pid, &status, 0);
  FAIL() << "udp-pair child did not exit on BYE";
}

}  // namespace udp_pair

TEST(Conformance, UdpPairStrict) {
  udp_pair::run_udp_pair_conformance(
      core::ValidationMode::kStrict,
      proptest::gen::make_conformance_stream(kSeed + 40, kStreamLen));
}

TEST(Conformance, UdpPairLenient) {
  udp_pair::run_udp_pair_conformance(
      core::ValidationMode::kLenient,
      proptest::gen::make_conformance_stream(kSeed + 41, kStreamLen));
}

// ---------------------------------------------------------------------------
// 3. F_dps (stateful fair-share policing). Scalar and batch only: DpsOp's
// RNG is consumed in arrival order, which pool interleaving does not
// preserve (and the module instance would be shared across workers).
// ---------------------------------------------------------------------------

TEST(Conformance, DpsScalarStrict) {
  run_stream_conformance(EngineKind::kScalar, core::ValidationMode::kStrict,
                         proptest::gen::make_dps_stream(kSeed + 6, kStreamLen),
                         /*with_dps=*/true);
}

TEST(Conformance, DpsBatchStrict) {
  run_stream_conformance(EngineKind::kBatch, core::ValidationMode::kStrict,
                         proptest::gen::make_dps_stream(kSeed + 7, kStreamLen),
                         /*with_dps=*/true);
}

// ---------------------------------------------------------------------------
// 3a2. dip32+custody (F_custody accept/carry/auth-fail + F_frag bounds).
// The op is per-packet deterministic — custody *state* lives in the node
// wrappers, not the module — so the pool engine is in scope too.
// ---------------------------------------------------------------------------

TEST(Conformance, CustodyScalarStrict) {
  run_stream_conformance(EngineKind::kScalar, core::ValidationMode::kStrict,
                         proptest::gen::make_custody_stream(kSeed + 50, kStreamLen),
                         /*with_dps=*/false, w::kBatch, /*with_custody=*/true);
}

TEST(Conformance, CustodyScalarLenient) {
  run_stream_conformance(EngineKind::kScalar, core::ValidationMode::kLenient,
                         proptest::gen::make_custody_stream(kSeed + 51, kStreamLen),
                         /*with_dps=*/false, w::kBatch, /*with_custody=*/true);
}

TEST(Conformance, CustodyBatchStrict) {
  run_stream_conformance(EngineKind::kBatch, core::ValidationMode::kStrict,
                         proptest::gen::make_custody_stream(kSeed + 52, kStreamLen),
                         /*with_dps=*/false, w::kBatch, /*with_custody=*/true);
}

TEST(Conformance, CustodyPoolStrict) {
  run_stream_conformance(EngineKind::kPool, core::ValidationMode::kStrict,
                         proptest::gen::make_custody_stream(kSeed + 53, kStreamLen),
                         /*with_dps=*/false, w::kBatch, /*with_custody=*/true);
}

// ---------------------------------------------------------------------------
// 3b. Route churn (ISSUE 5): the same RouteJournal deltas are applied to the
// production engines (RCU snapshot publishes) and the refmodel mirrors at
// identical packet indices; verdicts and rewrites must stay byte-identical
// across scalar/batch/pool, against the oracle AND against each other.
//
// The churn stream is match-only (DIP-32/DIP-128): those paths are
// stateless per packet, so the pool engine's fresh-pool-per-run() worker
// state is semantically invisible and chunked execution is exact.
// ---------------------------------------------------------------------------

constexpr std::uint32_t kChurnNet = 0x0A800000;  // 10.128.0.0/9
constexpr std::uint8_t kChurnLen = 9;
constexpr std::uint32_t kNhChurn = 42;

std::vector<Packet> make_match_stream(std::uint64_t seed, std::size_t count) {
  crypto::Xoshiro256 rng(seed);
  std::vector<Packet> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    core::HeaderBuilder b;
    b.hop_limit(proptest::gen::live_hops(rng));
    switch (rng.below(4)) {
      case 0:
      case 1:
        b.add_router_fn(core::OpKey::kMatch32,
                        proptest::gen::be32(proptest::gen::routable32(rng)));
        break;
      case 2:  // unroutable v4 -> kNoRoute both before and after churn
        b.add_router_fn(core::OpKey::kMatch32,
                        proptest::gen::be32(0xC0A80000 | (rng.u32() & 0xffff)));
        break;
      default: {
        std::array<std::uint8_t, 16> addr = w::kNet128;
        for (std::size_t j = 4; j < 16; ++j) {
          addr[j] = static_cast<std::uint8_t>(rng.u32());
        }
        b.add_router_fn(core::OpKey::kMatch128, addr);
        break;
      }
    }
    out.push_back(proptest::gen::finish(b.build(), {}));
  }
  return out;
}

/// One churn step, applied identically to the journal (production) and to
/// every refmodel mirror. Even steps withdraw the /10 (uncovering the /8)
/// and install a fresh /9; odd steps revert.
void apply_churn(std::size_t step, ctrl::RouteJournal& journal,
                 std::vector<refmodel::RefNode>& mirrors) {
  if (step % 2 == 0) {
    journal.remove_route32({fib::ipv4_from_u32(w::kNet10_64), 10});
    journal.add_route32({fib::ipv4_from_u32(kChurnNet), kChurnLen}, kNhChurn);
    for (auto& m : mirrors) {
      m.remove_route32(w::kNet10_64, 10);
      m.add_route32(kChurnNet, kChurnLen, kNhChurn);
    }
  } else {
    journal.add_route32({fib::ipv4_from_u32(w::kNet10_64), 10}, w::kNh10_64);
    journal.remove_route32({fib::ipv4_from_u32(kChurnNet), kChurnLen});
    for (auto& m : mirrors) {
      m.add_route32(w::kNet10_64, 10, w::kNh10_64);
      m.remove_route32(kChurnNet, kChurnLen);
    }
  }
  ASSERT_EQ(journal.flush(), 1u) << "churn step " << step
                                 << " must publish exactly the fib32 snapshot";
}

// The full churn schedule on the tree-bitmap FIB behind the RouterEnv seed
// tables: every engine kind forwards while the journal publishes route
// changes, under the same byte-identity obligations as the static corpus.
// Certifies the table's lookup and copy-on-write semantics end to end under
// live churn.
TEST(Conformance, ChurnScheduleStaysConformantOnTreeBitmap) {
  constexpr std::size_t kChunks = 8;
  constexpr std::size_t kChunkLen = 512;  // kBatch-aligned
  static_assert(kChunkLen % w::kBatch == 0);
  const auto stream = make_match_stream(kSeed + 8, kChunks * kChunkLen);

  const EngineKind kinds[] = {EngineKind::kScalar, EngineKind::kBatch,
                              EngineKind::kPool};
  std::vector<std::vector<VerdictImage>> images(std::size(kinds));
  std::vector<std::vector<Packet>> rewritten(std::size(kinds));

  for (std::size_t e = 0; e < std::size(kinds); ++e) {
    const EngineKind kind = kinds[e];
    SharedTables tables = make_shared_tables();
    const auto journal = attach_control(tables);
    const std::shared_ptr<core::OpRegistry> registry = make_registry(false);
    const auto engine = make_engine(kind, registry.get(),
                                    make_env_factory(tables),
                                    core::ValidationMode::kStrict);

    const std::size_t mirror_count = kind == EngineKind::kPool ? kPoolWorkers : 1;
    std::vector<refmodel::RefNode> mirrors;
    mirrors.reserve(mirror_count);
    for (std::size_t i = 0; i < mirror_count; ++i) {
      mirrors.push_back(make_ref_node(/*lenient=*/false));
    }

    for (std::size_t c = 0; c < kChunks; ++c) {
      const std::size_t base = c * kChunkLen;
      std::vector<Packet> prod(stream.begin() + base,
                               stream.begin() + base + kChunkLen);
      std::vector<SimTime> nows(kChunkLen);
      std::vector<core::FaceId> ingresses(kChunkLen);
      std::vector<std::size_t> owner(kChunkLen, 0);
      for (std::size_t i = 0; i < kChunkLen; ++i) {
        nows[i] = w::now_of(base + i);
        ingresses[i] = w::ingress_of(base + i);
        if (kind == EngineKind::kPool) {
          owner[i] = core::RouterPool::shard_of(stream[base + i], kPoolWorkers);
        }
      }

      const auto results = engine->run(prod, nows, ingresses);
      ASSERT_EQ(results.size(), kChunkLen);
      for (std::size_t i = 0; i < kChunkLen; ++i) {
        const VerdictImage got = image_of(results[i]);
        Packet ref_packet = stream[base + i];
        const refmodel::RefVerdict rv =
            mirrors[owner[i]].process(ref_packet, ingresses[i], nows[i]);
        const VerdictImage want = image_of(rv);
        ASSERT_EQ(got, want)
            << name_of(kind) << " diverged from refmodel at packet "
            << base + i << " (churn chunk " << c << ")\n  production "
            << to_string(got) << "\n  refmodel   " << to_string(want)
            << "\n  packet " << dump_packet(stream[base + i]);
        ASSERT_EQ(prod[i], ref_packet)
            << name_of(kind) << " rewrite diverged at packet " << base + i;
        images[e].push_back(got);
        rewritten[e].push_back(prod[i]);
        note_production(results[i]);
      }
      if (c + 1 < kChunks) apply_churn(c, *journal, mirrors);
    }
    for (const auto& m : mirrors) merge_ledger(m.ledger());

    // Every retired snapshot must eventually be reclaimed: with all engine
    // readers at a burst boundary (run() returned), one more flush() round
    // drains the backlog.
    journal->flush();
    EXPECT_EQ(journal->tables().domain.backlog(), 0u)
        << name_of(kind) << " left unreclaimed snapshots";
  }

  // Cross-engine byte identity, verdicts and rewrites alike.
  for (std::size_t e = 1; e < std::size(kinds); ++e) {
    ASSERT_EQ(images[0].size(), images[e].size());
    for (std::size_t i = 0; i < images[0].size(); ++i) {
      ASSERT_EQ(images[0][i], images[e][i])
          << "verdicts diverge between scalar and " << name_of(kinds[e])
          << " at packet " << i << " under identical churn";
      ASSERT_EQ(rewritten[0][i], rewritten[e][i])
          << "rewrites diverge between scalar and " << name_of(kinds[e])
          << " at packet " << i << " under identical churn";
    }
  }
}

// ---------------------------------------------------------------------------
// 4. kOverloadShed — a RouterPool ingress artifact, not a spec path: the
// refmodel never produces it, so it is covered by a dedicated deterministic
// test (worker blocked in its completion -> ring fills -> try_submit sheds).
// ---------------------------------------------------------------------------

TEST(Conformance, PoolShedsVisiblyUnderOverload) {
  const SharedTables tables = make_shared_tables();
  const std::shared_ptr<core::OpRegistry> registry = make_registry(false);

  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> shed_count{0};

  core::RouterPoolConfig cfg;
  cfg.workers = 1;
  cfg.ring_capacity = 2;
  core::RouterPool pool(
      registry.get(), make_env_factory(tables), cfg,
      [&](std::size_t, core::RouterPool::Item&, core::ProcessResult& result) {
        if (result.reason == core::DropReason::kOverloadShed) {
          // Shed completions fire on the dispatcher thread; must not block.
          note_production(result);
          shed_count.fetch_add(1);
          return;
        }
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return release; });
      });

  const auto make_packet = [] {
    core::HeaderBuilder b;
    b.hop_limit(8);
    b.add_router_fn(core::OpKey::kMatch32,
                    proptest::gen::be32(w::kNet10 | 0x0101));
    return b.build().value().serialize();
  };

  // First packet occupies the worker (blocked in its completion); keep
  // submitting until the ring overflows and try_submit reports a shed.
  (void)pool.submit(make_packet(), 1, w::now_of(0));
  for (int i = 0; i < 16 && shed_count.load() == 0; ++i) {
    (void)pool.try_submit(make_packet(), 1, w::now_of(0));
  }
  EXPECT_GT(shed_count.load(), 0);
  EXPECT_EQ(pool.shed_total(), static_cast<std::uint64_t>(shed_count.load()));
  {
    const std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  pool.stop();
}

// ---------------------------------------------------------------------------
// 5. Self-test: a deliberately mutated spec MUST be caught and shrunk.
// ---------------------------------------------------------------------------

TEST(Conformance, SeededMutationIsCaughtAndShrunk) {
  const auto stream = proptest::gen::make_conformance_stream(kSeed, 2'000);
  const proptest::FailPredicate fails = [](const Packet& p) {
    return diverges_single(p, refmodel::Mutation::kWrongNoRouteReason);
  };

  const Packet* found = nullptr;
  for (const auto& packet : stream) {
    if (fails(packet)) {
      found = &packet;
      break;
    }
  }
  ASSERT_NE(found, nullptr)
      << "the mutated refmodel (wrong no-route reason) was never caught";

  const Packet shrunk = proptest::shrink_packet(*found, fails);
  EXPECT_TRUE(fails(shrunk));
  EXPECT_LE(proptest::fn_count(shrunk), 3u)
      << "reproducer not minimal: " << dump_packet(shrunk);
  EXPECT_LE(shrunk.size(), found->size());

  // Persist the reproducer exactly as a real divergence would be: it lands
  // in tests/corpus/ and replays (against the unmutated spec, cleanly) at
  // the top of every future run.
  const auto path = proptest::save_corpus_entry(
      DIP_CORPUS_DIR, "mutation-wrong-noroute-repro", shrunk,
      "shrunk reproducer for refmodel::Mutation::kWrongNoRouteReason");
  EXPECT_FALSE(diverges_single(shrunk, refmodel::Mutation::kNone))
      << "reproducer must agree under the unmutated spec (" << path << ")";

  // The second seeded mutation (hop-limit off by one) is caught too.
  core::HeaderBuilder b;
  b.hop_limit(2);
  b.add_router_fn(core::OpKey::kMatch32, proptest::gen::be32(w::kNet10 | 1));
  const Packet hop_edge = proptest::gen::finish(b.build(), {});
  EXPECT_TRUE(diverges_single(hop_edge, refmodel::Mutation::kHopOffByOne));
}

// ---------------------------------------------------------------------------
// 6. Coverage ledger — the streams above must have exercised everything.
// ---------------------------------------------------------------------------

TEST(Conformance, CoverageLedgerIsComplete) {
  const auto& c = coverage();

  // Every Table-1 op key was at least seen on the wire...
  for (std::uint16_t key = 1; key <= 16; ++key) {
    EXPECT_TRUE(c.ledger.op_keys_seen.contains(key)) << "op key never seen: " << key;
  }
  // ...and every key with a registered module actually executed. Key 9
  // (F_ver) has no router module — router-tagged F_ver must fail as
  // unsupported, never execute. Key 14 (F_cc) is not in the default
  // registry and is optional, so it is skipped.
  for (const std::uint16_t key : {1, 2, 3, 4, 5, 6, 7, 8, 10, 11, 12, 13, 15, 16}) {
    EXPECT_TRUE(c.ledger.op_keys_executed.contains(key))
        << "op key never executed: " << key;
  }
  EXPECT_FALSE(c.ledger.op_keys_executed.contains(9));
  EXPECT_FALSE(c.ledger.op_keys_executed.contains(14));
  // The DTN extension keys (17 F_custody, 18 F_frag) execute in the
  // dedicated custody streams.
  for (const std::uint16_t key : {17, 18}) {
    EXPECT_TRUE(c.ledger.op_keys_seen.contains(key)) << "op key never seen: " << key;
    EXPECT_TRUE(c.ledger.op_keys_executed.contains(key))
        << "op key never executed: " << key;
  }

  for (int action = 0; action <= 2; ++action) {
    EXPECT_TRUE(c.actions.contains(action)) << "action never produced: " << action;
  }
  // All 14 drop reasons (common-image ordinals, kNone..kCorruptQuarantine).
  for (int reason = 0; reason <= 13; ++reason) {
    EXPECT_TRUE(c.reasons.contains(reason)) << "drop reason never produced: " << reason;
  }
}

}  // namespace
