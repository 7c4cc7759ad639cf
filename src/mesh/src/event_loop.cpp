#include "dip/mesh/event_loop.hpp"

#include <poll.h>

#include <algorithm>
#include <chrono>

namespace dip::mesh {

SteadyClock::SteadyClock() {
  epoch_ns_ = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t SteadyClock::now_ns() const {
  const auto now = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
  return now - epoch_ns_;
}

MeshEventLoop::MeshEventLoop(MeshClock* clock) : clock_(clock) {
  if (clock_ == nullptr) {
    owned_clock_ = std::make_unique<SteadyClock>();
    clock_ = owned_clock_.get();
  }
}

MeshEventLoop::SocketId MeshEventLoop::add_socket(DatagramSocket& socket,
                                                  Callback on_readable) {
  const SocketId id = next_socket_id_++;
  sources_.push_back({id, &socket, std::move(on_readable), true});
  return id;
}

void MeshEventLoop::remove_socket(SocketId id) {
  for (Source& s : sources_) {
    if (s.id == id) s.alive = false;
  }
  if (!dispatching_) compact_sources();
}

void MeshEventLoop::compact_sources() {
  std::erase_if(sources_, [](const Source& s) { return !s.alive; });
}

std::size_t MeshEventLoop::socket_count() const noexcept {
  std::size_t n = 0;
  for (const Source& s : sources_) n += s.alive ? 1 : 0;
  return n;
}

void MeshEventLoop::schedule_at(std::uint64_t at_ns, Callback fn) {
  timers_.push({at_ns, next_timer_seq_++, std::move(fn)});
}

std::uint64_t MeshEventLoop::ns_to_next_timer() const {
  if (timers_.empty()) return ~std::uint64_t{0};
  const std::uint64_t now = clock_->now_ns();
  const std::uint64_t at = timers_.top().at;
  return at > now ? at - now : 0;
}

std::size_t MeshEventLoop::fire_due_timers() {
  // Collect everything due *now* first, then run: a callback that schedules
  // a new already-due timer waits for the next round (no starvation).
  const std::uint64_t now = clock_->now_ns();
  std::vector<Timer> due;
  while (!timers_.empty() && timers_.top().at <= now) {
    due.push_back(std::move(const_cast<Timer&>(timers_.top())));
    timers_.pop();
  }
  for (Timer& t : due) {
    ++stats_.timers_fired;
    t.fn();
  }
  return due.size();
}

std::size_t MeshEventLoop::dispatch_readable() {
  std::size_t ran = 0;
  dispatching_ = true;
  // Index loop: handlers may add_socket (append) — new sources join the
  // next round, and the vector may reallocate under us otherwise.
  const std::size_t count = sources_.size();
  for (std::size_t i = 0; i < count; ++i) {
    if (!sources_[i].alive) continue;
    if (!sources_[i].socket->poll_readable()) continue;
    ++stats_.reads_dispatched;
    ++ran;
    sources_[i].on_readable();
  }
  dispatching_ = false;
  compact_sources();
  return ran;
}

std::size_t MeshEventLoop::run_ready() {
  ++stats_.wakeups;
  std::size_t n = fire_due_timers();
  n += dispatch_readable();
  return n;
}

std::size_t MeshEventLoop::run_until_idle(std::size_t max_rounds) {
  std::size_t total = 0;
  for (std::size_t round = 0; round < max_rounds; ++round) {
    const std::size_t n = run_ready();
    if (n == 0) break;
    total += n;
  }
  return total;
}

std::size_t MeshEventLoop::run(std::uint64_t deadline_ns) {
  stopped_ = false;
  std::size_t total = 0;
  while (!stopped_) {
    const std::uint64_t now = clock_->now_ns();
    if (now >= deadline_ns) break;

    total += run_ready();
    if (stopped_) break;

    // Anything in-memory still readable? Then don't park at all.
    bool mock_ready = false;
    std::vector<pollfd> fds;
    fds.reserve(sources_.size());
    for (const Source& s : sources_) {
      if (!s.alive) continue;
      if (s.socket->fd() >= 0) {
        fds.push_back({s.socket->fd(), POLLIN, 0});
      } else if (s.socket->poll_readable()) {
        mock_ready = true;
      }
    }

    const std::uint64_t to_timer = ns_to_next_timer();
    const std::uint64_t to_deadline = deadline_ns - clock_->now_ns();
    const std::uint64_t wait_ns = std::min(to_timer, to_deadline);
    if (wait_ns == ~std::uint64_t{0} && fds.empty() && !mock_ready) {
      break;  // nothing to wait for: quiescent
    }
    int timeout_ms = 0;
    if (!mock_ready && wait_ns > 0) {
      timeout_ms = static_cast<int>(
          std::min<std::uint64_t>(wait_ns / 1'000'000 + 1, 1000));
    }
    if (fds.empty()) {
      if (timeout_ms > 0 && !mock_ready) {
        // Manual-clock loops never reach here (tests use run_ready); with a
        // real clock an empty poll() is just a bounded sleep to the timer.
        ::poll(nullptr, 0, timeout_ms);
      }
    } else {
      ::poll(fds.data(), static_cast<nfds_t>(fds.size()), timeout_ms);
    }
  }
  return total;
}

void MeshEventLoop::write_stats(telemetry::StatsWriter& w) const {
  w.counter("dip_mesh_loop_wakeups_total", {}, stats_.wakeups);
  w.counter("dip_mesh_loop_timers_fired_total", {}, stats_.timers_fired);
  w.counter("dip_mesh_loop_reads_dispatched_total", {}, stats_.reads_dispatched);
  w.gauge("dip_mesh_loop_sockets", {}, static_cast<double>(socket_count()));
  w.gauge("dip_mesh_loop_pending_timers", {},
          static_cast<double>(pending_timers()));
}

}  // namespace dip::mesh
