// In-memory span recorder for the traced (--trace 1) runs.
//
// Spans are recorded by the benchmark's own code around its calls into the
// program's public functions (protocol codec, socket helpers, broker,
// engines); nothing inside the program is instrumented. Each span has a
// name, start, duration, the span that enclosed it on the same thread, and
// a request id shared by every span of one request (a frame, a game, a
// simulation call). Self time is duration minus the time covered by child
// spans. Spans stay in per-thread buffers and are written out once, at the
// end of the run, as a Chrome trace-event file.
//
// When recording is off a Span costs one relaxed atomic load.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct SpanStats {
  std::uint64_t count = 0;
  double total_ns = 0.0;
  double self_ns = 0.0;

  [[nodiscard]] double mean_ns() const {
    return count == 0 ? 0.0 : total_ns / static_cast<double>(count);
  }
};

class SpanRecorder {
 public:
  struct Record {
    const char* name;
    std::int64_t start_ns;
    std::int64_t dur_ns;
    std::uint32_t id;
    std::uint32_t parent;  // 0 = root
    std::uint64_t request;
  };

  static SpanRecorder& instance();

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }
  /// Per-thread switch, on by default: a span records only when both the
  /// recorder and the calling thread are enabled.
  static void set_thread_enabled(bool on);

  /// Per-name totals over every thread, keyed by span name.
  [[nodiscard]] std::map<std::string, SpanStats> aggregate() const;
  /// Drops every recorded span and total.
  void clear();
  /// Writes the raw spans (at most kMaxRawPerThread per thread) as a
  /// Chrome trace-event JSON array; false on I/O error.
  [[nodiscard]] bool write_chrome(const std::string& path) const;

  static constexpr std::size_t kMaxRawPerThread = 200000;

  // -- used by Span ---------------------------------------------------------
  struct Open {
    const char* name;
    std::int64_t start_ns;
    std::int64_t child_ns;
    std::uint32_t id;
    std::uint64_t request;
  };
  struct ThreadBuf {
    std::uint32_t tid = 0;
    std::uint32_t next_id = 1;
    std::vector<Open> stack;
    std::vector<Record> raw;
    std::map<const char*, SpanStats> totals;
  };
  ThreadBuf& thread_buf();

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadBuf>> bufs_;
};

/// Monotonic nanoseconds (steady clock).
std::int64_t now_ns();

/// RAII span. `name` must be a string literal (identity is by pointer).
/// `request` 0 inherits the enclosing span's request id.
class Span {
 public:
  explicit Span(const char* name, std::uint64_t request = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanRecorder::ThreadBuf* buf_ = nullptr;
};

}  // namespace perfbench
