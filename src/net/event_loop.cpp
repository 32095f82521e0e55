#include "net/event_loop.hpp"

#include <poll.h>

#include <algorithm>
#include <ctime>
#include <vector>

#include "obs/metrics.hpp"

namespace zlb::net {

void EventLoop::watch(int fd, Interest interest, IoCallback cb) {
  watches_[fd] = Watch{interest, std::move(cb)};
}

void EventLoop::set_interest(int fd, Interest interest) {
  const auto it = watches_.find(fd);
  if (it != watches_.end()) it->second.interest = interest;
}

void EventLoop::unwatch(int fd) { watches_.erase(fd); }

EventLoop::TimerId EventLoop::schedule(Duration delay, TimerCallback cb) {
  const TimerId id = next_timer_++;
  const TimePoint when = Clock::now() + delay;
  timers_.emplace(when, Timer{id, std::move(cb)});
  timer_index_[id] = when;
  return id;
}

void EventLoop::cancel(TimerId id) {
  const auto idx = timer_index_.find(id);
  if (idx == timer_index_.end()) return;
  auto [begin, end] = timers_.equal_range(idx->second);
  for (auto it = begin; it != end; ++it) {
    if (it->second.id == id) {
      timers_.erase(it);
      break;
    }
  }
  timer_index_.erase(idx);
}

bool EventLoop::poll_once(Duration timeout) {
  if (watches_.empty() && timers_.empty()) return false;

  // Clamp the poll timeout to the next timer deadline, at full
  // resolution: a wait truncated to whole milliseconds turns the last
  // sub-millisecond before every timer into a spin of zero-timeout polls.
  const TimePoint now = Clock::now();
  TimePoint wake = now + timeout;
  if (!timers_.empty()) wake = std::min(wake, timers_.begin()->first);
  const auto wait_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                           std::clamp<Duration>(wake - now, Duration::zero(),
                                                std::chrono::seconds(60)))
                           .count();
  const timespec wait{static_cast<std::time_t>(wait_ns / 1'000'000'000),
                      static_cast<long>(wait_ns % 1'000'000'000)};

  std::vector<pollfd> fds;
  fds.reserve(watches_.size());
  for (const auto& [fd, watch] : watches_) {
    short events = 0;
    if (watch.interest.readable) events |= POLLIN;
    if (watch.interest.writable) events |= POLLOUT;
    fds.push_back(pollfd{fd, events, 0});
  }

  ::ppoll(fds.data(), fds.size(), &wait, nullptr);

  // Fire expired timers first (they may unwatch fds).
  const TimePoint after = Clock::now();
  while (!timers_.empty() && timers_.begin()->first <= after) {
    auto node = timers_.extract(timers_.begin());
    timer_index_.erase(node.mapped().id);
    if (lag_ != nullptr) {
      // Read per timer, not `after`: a timer queued behind a slow
      // callback in this same batch is late by that callback too.
      lag_->observe(std::chrono::duration_cast<std::chrono::nanoseconds>(
                        Clock::now() - node.key())
                        .count());
    }
    node.mapped().cb();
    if (stopped()) return true;
  }

  for (const pollfd& p : fds) {
    if (p.revents == 0) continue;
    const auto it = watches_.find(p.fd);
    if (it == watches_.end()) continue;  // unwatched by an earlier callback
    const bool readable = (p.revents & (POLLIN | POLLHUP | POLLERR)) != 0;
    const bool writable = (p.revents & (POLLOUT | POLLERR)) != 0;
    // Copy: the callback may unwatch / re-watch this fd.
    const IoCallback cb = it->second.cb;
    cb(readable, writable);
    if (stopped()) return true;
  }
  return true;
}

void EventLoop::run() {
  // The stop flag is consumed on exit, not reset on entry: a stop()
  // posted from another thread before the loop thread reaches this
  // frame must still terminate THIS run (reset-on-entry silently
  // swallowed it — LiveCluster stopping a node whose thread had not
  // entered run yet left that node spinning until its deadline). The
  // consume keeps loops reusable: one stop() ends exactly one run.
  while (!stopped()) {
    if (!poll_once(std::chrono::milliseconds(100))) break;
  }
  stopped_.store(false, std::memory_order_relaxed);
}

void EventLoop::run_until(TimePoint deadline) {
  while (!stopped() && Clock::now() < deadline) {
    if (!poll_once(std::chrono::milliseconds(20))) break;
  }
  stopped_.store(false, std::memory_order_relaxed);
}

}  // namespace zlb::net
