#include "spans.hpp"

#include <chrono>
#include <cstdio>

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {
thread_local bool t_thread_enabled = true;
}  // namespace

void SpanRecorder::set_thread_enabled(bool on) { t_thread_enabled = on; }

SpanRecorder& SpanRecorder::instance() {
  static SpanRecorder rec;
  return rec;
}

SpanRecorder::ThreadBuf& SpanRecorder::thread_buf() {
  thread_local ThreadBuf* buf = nullptr;
  if (buf == nullptr) {
    auto owned = std::make_unique<ThreadBuf>();
    const std::lock_guard<std::mutex> lock(mu_);
    owned->tid = static_cast<std::uint32_t>(bufs_.size() + 1);
    buf = owned.get();
    bufs_.push_back(std::move(owned));
  }
  return *buf;
}

// Callers aggregate, clear and write only while no recording thread is
// inside a span (between workload phases), so the buffers are quiescent.
std::map<std::string, SpanStats> SpanRecorder::aggregate() const {
  std::map<std::string, SpanStats> out;
  const std::lock_guard<std::mutex> lock(mu_);
  for (const auto& b : bufs_) {
    for (const auto& [name, s] : b->totals) {
      SpanStats& o = out[name];
      o.count += s.count;
      o.total_ns += s.total_ns;
      o.self_ns += s.self_ns;
    }
  }
  return out;
}

void SpanRecorder::clear() {
  const std::lock_guard<std::mutex> lock(mu_);
  for (auto& b : bufs_) {
    b->raw.clear();
    b->totals.clear();
  }
}

bool SpanRecorder::write_chrome(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("[\n", f);
  bool first = true;
  const std::lock_guard<std::mutex> lock(mu_);
  for (const auto& b : bufs_) {
    for (const Record& r : b->raw) {
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%u,"
                   "\"parent\":%u,\"request\":%llu}}",
                   first ? "" : ",\n", r.name, b->tid,
                   static_cast<double>(r.start_ns) / 1e3,
                   static_cast<double>(r.dur_ns) / 1e3, r.id, r.parent,
                   static_cast<unsigned long long>(r.request));
      first = false;
    }
  }
  std::fputs("\n]\n", f);
  return std::fclose(f) == 0;
}

Span::Span(const char* name, std::uint64_t request) {
  SpanRecorder& rec = SpanRecorder::instance();
  if (!rec.enabled() || !t_thread_enabled) return;
  buf_ = &rec.thread_buf();
  if (request == 0 && !buf_->stack.empty()) request = buf_->stack.back().request;
  buf_->stack.push_back({name, now_ns(), 0, buf_->next_id++, request});
}

Span::~Span() {
  if (buf_ == nullptr) return;
  const std::int64_t end = now_ns();
  const SpanRecorder::Open open = buf_->stack.back();
  buf_->stack.pop_back();
  const std::int64_t dur = end - open.start_ns;
  std::uint32_t parent = 0;
  if (!buf_->stack.empty()) {
    buf_->stack.back().child_ns += dur;
    parent = buf_->stack.back().id;
  }
  SpanStats& s = buf_->totals[open.name];
  ++s.count;
  s.total_ns += static_cast<double>(dur);
  s.self_ns += static_cast<double>(dur - open.child_ns);
  if (buf_->raw.size() < SpanRecorder::kMaxRawPerThread) {
    buf_->raw.push_back(
        {open.name, open.start_ns, dur, open.id, parent, open.request});
  }
}

}  // namespace perfbench
