// Rotation of a thread across the CPUs it may run on.
//
// On a shared machine the CPUs run at different effective speeds, set by
// whatever else shares each core, and a thread tends to stay on the CPU it
// started on. Rotating it every quarter second makes a run average over all
// CPUs, so run-to-run spread reflects the program rather than placement.
#pragma once

#include <sched.h>

#include <cstdint>
#include <vector>

#include "spans.hpp"

namespace perfbench {

/// Moves the calling thread to the next allowed CPU every kRotatePeriodNs.
/// A single-threaded run then averages over every CPU of a shared machine
/// instead of inheriting the neighbours of the one it started on.
class CpuRotator {
 public:
  CpuRotator() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) cpus_.push_back(c);
      }
      saved_ = set;
    }
  }
  ~CpuRotator() {
    if (!cpus_.empty()) (void)sched_setaffinity(0, sizeof saved_, &saved_);
  }
  CpuRotator(const CpuRotator&) = delete;
  CpuRotator& operator=(const CpuRotator&) = delete;

  void tick() {
    const std::int64_t now = now_ns();
    if (cpus_.size() < 2 || now < next_ns_) return;
    next_ns_ = now + kRotatePeriodNs;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[idx_++ % cpus_.size()], &one);
    (void)sched_setaffinity(0, sizeof one, &one);
  }

 private:
  static constexpr std::int64_t kRotatePeriodNs = 250'000'000;
  std::vector<int> cpus_;
  cpu_set_t saved_{};
  std::size_t idx_ = 0;
  std::int64_t next_ns_ = 0;
};

}  // namespace perfbench
