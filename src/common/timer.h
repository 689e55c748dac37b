#ifndef SWANDB_COMMON_TIMER_H_
#define SWANDB_COMMON_TIMER_H_

#include <cstdint>

namespace swan {

// Raw clock readings in nanoseconds: CLOCK_MONOTONIC (wall) and
// CLOCK_PROCESS_CPUTIME_ID (core::CostMeter differences both).
int64_t MonotonicNanos();
int64_t ProcessCpuNanos();

// Process CPU-time stopwatch (CLOCK_PROCESS_CPUTIME_ID). This is the
// paper's "user time": CPU spent by the DBMS, excluding I/O stalls. The
// simulated disk contributes to "real time" only, via its VirtualClock.
class CpuTimer {
 public:
  CpuTimer() { Restart(); }

  void Restart();
  double ElapsedSeconds() const;

 private:
  int64_t start_ns_;
};

// Accumulates virtual seconds charged by the simulated disk. Query
// "real time" = CpuTimer elapsed + VirtualClock delta, reproducing the
// paper's cold/hot real-vs-user split without needing RAID hardware.
class VirtualClock {
 public:
  VirtualClock() = default;

  void Advance(double seconds) { now_seconds_ += seconds; }
  double now() const { return now_seconds_; }
  void Reset() { now_seconds_ = 0.0; }

 private:
  double now_seconds_ = 0.0;
};

}  // namespace swan

#endif  // SWANDB_COMMON_TIMER_H_
