// Wall-clock stopwatch and a virtual clock for simulated crawl time.
#ifndef FOCUS_UTIL_CLOCK_H_
#define FOCUS_UTIL_CLOCK_H_

#include <chrono>
#include <cstdint>

namespace focus {

// Measures elapsed wall time.
class Stopwatch {
 public:
  Stopwatch() : start_(Now()) {}

  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Now() - start_).count();
  }
  double ElapsedMicros() const { return ElapsedSeconds() * 1e6; }

 private:
  using TimePoint = std::chrono::steady_clock::time_point;
  static TimePoint Now() { return std::chrono::steady_clock::now(); }
  TimePoint start_;
};

// A virtual clock, advanced explicitly by simulation components (e.g. the
// simulated web charges per-fetch latency). Lets "one hour of crawling"
// become a deterministic budget instead of real sleeping.
class VirtualClock {
 public:
  // Current virtual time in microseconds since simulation start.
  int64_t NowMicros() const { return now_micros_; }
  double NowSeconds() const { return static_cast<double>(now_micros_) * 1e-6; }

  void AdvanceMicros(int64_t micros) { now_micros_ += micros; }
  void AdvanceSeconds(double seconds) {
    now_micros_ += static_cast<int64_t>(seconds * 1e6);
  }

 private:
  int64_t now_micros_ = 0;
};

}  // namespace focus

#endif  // FOCUS_UTIL_CLOCK_H_
