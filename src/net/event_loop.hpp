// Single-threaded ppoll(2) reactor with monotonic timers. One loop
// drives one LiveNode (listener + all its peer links); nodes never
// share a loop, so no state in this layer needs locking. This is the
// real-time counterpart of sim::Simulator: timers instead of scheduled
// events, socket readiness instead of simulated message arrival.
//
// Thread affinity: every member except `stopped_` is owned by the loop
// thread — watch/unwatch/schedule/cancel/run/poll_once must only be
// called there. The single cross-thread entry point is stop(): an
// atomic request flag, observed at the next loop iteration and
// CONSUMED when a run exits (so a stop posted before the loop thread
// even entered run() still terminates that run, and the loop stays
// reusable afterwards). There is deliberately no mutex here; anything
// that would need one belongs a layer up (see LiveNode's
// decisions_mutex_).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <unordered_map>

namespace zlb::obs {
class Histogram;
}  // namespace zlb::obs

namespace zlb::net {

using Clock = std::chrono::steady_clock;
using TimePoint = Clock::time_point;
using Duration = Clock::duration;

/// Readiness interests for a registered fd.
struct Interest {
  bool readable = false;
  bool writable = false;
};

class EventLoop {
 public:
  using IoCallback = std::function<void(bool readable, bool writable)>;
  using TimerCallback = std::function<void()>;
  using TimerId = std::uint64_t;

  /// Registers `fd` with the given interests. The callback fires with
  /// the readiness observed by poll. Re-registering replaces both.
  void watch(int fd, Interest interest, IoCallback cb);
  /// Updates interests of an already watched fd (no-op if unknown).
  void set_interest(int fd, Interest interest);
  void unwatch(int fd);

  /// One-shot timer.
  TimerId schedule(Duration delay, TimerCallback cb);
  void cancel(TimerId id);

  /// Runs until stop() or until no fds and no timers remain.
  void run();
  /// Runs until `deadline` at the latest.
  void run_until(TimePoint deadline);
  /// Single poll iteration with at most `timeout`; returns false if
  /// there was nothing to wait for.
  bool poll_once(Duration timeout);

  /// Thread-safe: another thread may request the loop to stop; the
  /// loop observes it at the next iteration.
  void stop() { stopped_.store(true, std::memory_order_relaxed); }
  [[nodiscard]] bool stopped() const {
    return stopped_.load(std::memory_order_relaxed);
  }

  /// Observability (loop thread only): current fd-watch and pending-
  /// timer counts, sampled into queue-depth gauges.
  [[nodiscard]] std::size_t watch_count() const { return watches_.size(); }
  [[nodiscard]] std::size_t timer_count() const { return timers_.size(); }
  /// Records each fired timer's lateness (the time its callback starts
  /// minus its due time) in nanoseconds into `lag`; null = not recorded.
  /// Set before run(); the histogram must outlive the loop's runs.
  void set_lag_histogram(obs::Histogram* lag) { lag_ = lag; }

 private:
  struct Watch {
    Interest interest;
    IoCallback cb;
  };
  struct Timer {
    TimerId id = 0;
    TimerCallback cb;
  };

  std::unordered_map<int, Watch> watches_;
  std::multimap<TimePoint, Timer> timers_;
  std::unordered_map<TimerId, TimePoint> timer_index_;
  TimerId next_timer_ = 1;
  obs::Histogram* lag_ = nullptr;
  std::atomic<bool> stopped_{false};
};

}  // namespace zlb::net
