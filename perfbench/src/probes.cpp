// Seam probes: the allocation counter and the link-time wrappers around the
// program's layer seams (CMakeLists.txt lists the wrapped symbols).
//
// Every wrapper forwards to the original; while Probes::on is clear it adds
// only a relaxed flag load. The originals are declared weak so that a seam
// whose signature changes leaves its counters at zero instead of breaking
// the link.
#include <poll.h>
#include <sys/socket.h>

#include <cerrno>
#include <cstdlib>
#include <new>

#include "bench.hpp"
#include "dip/core/router.hpp"
#include "dip/mesh/frame.hpp"
#include "dip/mesh/impair.hpp"

namespace perfbench {

namespace {

// Constant-initialised (atomics only), so operator new may use it before
// any dynamic initialisation has run.
Probes g_probes;
thread_local std::uint64_t t_batch_start = 0;

bool tracing() noexcept { return g_probes.on.load(std::memory_order_relaxed); }

}  // namespace

Probes& probes() noexcept { return g_probes; }
std::uint64_t last_batch_start_ns() noexcept { return t_batch_start; }

void Probes::reset() noexcept {
  for (Seam* s : {&send, &recv, &poll, &poll_wait, &encode, &decode, &impair, &batch}) {
    s->calls.store(0, std::memory_order_relaxed);
    s->ns.store(0, std::memory_order_relaxed);
  }
  for (auto* c : {&allocs, &recv_again, &batch_pkts, &holdbacks}) {
    c->store(0, std::memory_order_relaxed);
  }
}

}  // namespace perfbench

// ---- allocation counter ---------------------------------------------------------

void* operator new(std::size_t n) {
  if (perfbench::tracing()) {
    perfbench::g_probes.allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (n == 0) n = 1;
  for (;;) {
    if (void* p = std::malloc(n)) return p;
    std::new_handler handler = std::get_new_handler();
    if (handler == nullptr) throw std::bad_alloc();
    handler();
  }
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

// ---- socket syscalls ------------------------------------------------------------------

extern "C" {
ssize_t __real_sendto(int, const void*, size_t, int, const sockaddr*, socklen_t);
ssize_t __real_recvfrom(int, void*, size_t, int, sockaddr*, socklen_t*);
int __real_poll(pollfd*, nfds_t, int);

ssize_t __wrap_sendto(int fd, const void* buf, size_t len, int flags, const sockaddr* to,
                      socklen_t tolen) {
  if (!perfbench::tracing()) return __real_sendto(fd, buf, len, flags, to, tolen);
  const std::uint64_t t0 = perfbench::now_ns();
  const ssize_t r = __real_sendto(fd, buf, len, flags, to, tolen);
  const int saved = errno;
  perfbench::g_probes.send.add(perfbench::now_ns() - t0);
  errno = saved;
  return r;
}

ssize_t __wrap_recvfrom(int fd, void* buf, size_t len, int flags, sockaddr* from,
                        socklen_t* fromlen) {
  if (!perfbench::tracing()) return __real_recvfrom(fd, buf, len, flags, from, fromlen);
  const std::uint64_t t0 = perfbench::now_ns();
  const ssize_t r = __real_recvfrom(fd, buf, len, flags, from, fromlen);
  const int saved = errno;
  perfbench::g_probes.recv.add(perfbench::now_ns() - t0);
  if (r < 0) perfbench::g_probes.recv_again.fetch_add(1, std::memory_order_relaxed);
  errno = saved;
  return r;
}

int __wrap_poll(pollfd* fds, nfds_t n, int timeout_ms) {
  if (!perfbench::tracing()) return __real_poll(fds, n, timeout_ms);
  const std::uint64_t t0 = perfbench::now_ns();
  const int r = __real_poll(fds, n, timeout_ms);
  const int saved = errno;
  // A zero-timeout poll is a readiness probe (a syscall the hop pays); a
  // timed one parks the loop until the next datagram or timer (waiting).
  (timeout_ms == 0 ? perfbench::g_probes.poll : perfbench::g_probes.poll_wait)
      .add(perfbench::now_ns() - t0);
  errno = saved;
  return r;
}
}  // extern "C"

// ---- program seams ---------------------------------------------------------------------

namespace perfbench::wrap {

using dip::mesh::FrameType;
using Bytes = std::vector<std::uint8_t>;
using FrameResult = dip::bytes::Result<dip::mesh::Frame>;

#define DIPBENCH_ENCODE "_ZN3dip4mesh12encode_frameENS0_9FrameTypeEjmSt4spanIKhLm18446744073709551615EE"
#define DIPBENCH_DECODE "_ZN3dip4mesh12decode_frameESt4spanIKhLm18446744073709551615EE"
#define DIPBENCH_IMPAIR "_ZN3dip4mesh12LinkImpairer4nextEmSt4spanIhLm18446744073709551615EE"
#define DIPBENCH_BATCH                                                                   \
  "_ZN3dip4core6Router13process_batchESt4spanIKNS0_9PacketRefELm18446744073709551615EEjmS2_" \
  "INS0_13ProcessResultELm18446744073709551615EE"

// Member functions are declared with an explicit `this` first parameter,
// which is how the Itanium C++ ABI passes it.
[[gnu::weak]] Bytes real_encode(FrameType, std::uint32_t, std::uint64_t,
                                std::span<const std::uint8_t>) __asm__("__real_" DIPBENCH_ENCODE);
[[gnu::weak]] FrameResult real_decode(std::span<const std::uint8_t>) __asm__(
    "__real_" DIPBENCH_DECODE);
[[gnu::weak]] dip::mesh::ImpairDecision real_impair(dip::mesh::LinkImpairer*, std::uint64_t,
                                                   std::span<std::uint8_t>) __asm__(
    "__real_" DIPBENCH_IMPAIR);
[[gnu::weak]] void real_batch(dip::core::Router*, std::span<const dip::core::PacketRef>,
                              dip::core::FaceId, dip::SimTime,
                              std::span<dip::core::ProcessResult>) __asm__("__real_" DIPBENCH_BATCH);

Bytes wrap_encode(FrameType, std::uint32_t, std::uint64_t,
                  std::span<const std::uint8_t>) __asm__("__wrap_" DIPBENCH_ENCODE);
FrameResult wrap_decode(std::span<const std::uint8_t>) __asm__("__wrap_" DIPBENCH_DECODE);
dip::mesh::ImpairDecision wrap_impair(dip::mesh::LinkImpairer*, std::uint64_t,
                                      std::span<std::uint8_t>) __asm__("__wrap_" DIPBENCH_IMPAIR);
void wrap_batch(dip::core::Router*, std::span<const dip::core::PacketRef>, dip::core::FaceId,
                dip::SimTime, std::span<dip::core::ProcessResult>) __asm__("__wrap_" DIPBENCH_BATCH);

Bytes wrap_encode(FrameType type, std::uint32_t src, std::uint64_t seq,
                  std::span<const std::uint8_t> payload) {
  if (!tracing()) return real_encode(type, src, seq, payload);
  const std::uint64_t t0 = now_ns();
  Bytes out = real_encode(type, src, seq, payload);
  g_probes.encode.add(now_ns() - t0);
  return out;
}

FrameResult wrap_decode(std::span<const std::uint8_t> datagram) {
  if (!tracing()) return real_decode(datagram);
  const std::uint64_t t0 = now_ns();
  FrameResult out = real_decode(datagram);
  g_probes.decode.add(now_ns() - t0);
  return out;
}

dip::mesh::ImpairDecision wrap_impair(dip::mesh::LinkImpairer* self, std::uint64_t now,
                                      std::span<std::uint8_t> packet) {
  if (!tracing()) return real_impair(self, now, packet);
  const std::uint64_t t0 = now_ns();
  const dip::mesh::ImpairDecision d = real_impair(self, now, packet);
  g_probes.impair.add(now_ns() - t0);
  if (d.extra_delay_ns != 0) g_probes.holdbacks.fetch_add(1, std::memory_order_relaxed);
  return d;
}

void wrap_batch(dip::core::Router* self, std::span<const dip::core::PacketRef> packets,
                dip::core::FaceId ingress, dip::SimTime now,
                std::span<dip::core::ProcessResult> results) {
  if (!tracing()) return real_batch(self, packets, ingress, now, results);
  const std::uint64_t t0 = now_ns();
  t_batch_start = t0;
  real_batch(self, packets, ingress, now, results);
  g_probes.batch.add(now_ns() - t0);
  g_probes.batch_pkts.fetch_add(packets.size(), std::memory_order_relaxed);
}

}  // namespace perfbench::wrap
