#include "spans.h"

#include <cstdio>
#include <memory>
#include <mutex>

#include "common.h"

namespace perfbench::spans {

namespace {

struct Buffer {
  uint32_t tid = 0;
  std::vector<Span> spans;
};

std::atomic<bool> g_enabled{false};
std::atomic<uint64_t> g_next_id{1};
std::mutex g_mu;  // guards g_buffers
std::vector<std::unique_ptr<Buffer>> g_buffers;

thread_local Buffer* tls_buffer = nullptr;
thread_local Scope* tls_current = nullptr;

// Buffers are never freed while the process runs, so a thread's pointer
// stays valid after Reset (which only empties them).
Buffer* ThreadBuffer() {
  if (tls_buffer == nullptr) {
    auto buf = std::make_unique<Buffer>();
    std::scoped_lock lock(g_mu);
    buf->tid = static_cast<uint32_t>(g_buffers.size() + 1);
    buf->spans.reserve(1 << 12);
    tls_buffer = buf.get();
    g_buffers.push_back(std::move(buf));
  }
  return tls_buffer;
}

}  // namespace

void Enable(bool on) { g_enabled.store(on, std::memory_order_release); }

void Reset() {
  std::scoped_lock lock(g_mu);
  for (auto& b : g_buffers) {
    b->spans.clear();
  }
}

std::vector<Span> Collect() {
  std::scoped_lock lock(g_mu);
  std::vector<Span> out;
  for (const auto& b : g_buffers) {
    out.insert(out.end(), b->spans.begin(), b->spans.end());
  }
  return out;
}

bool WriteChromeTrace(const std::string& path, const std::vector<Span>& spans,
                      size_t max_events) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  uint64_t origin = UINT64_MAX;
  for (const Span& s : spans) {
    origin = std::min(origin, s.start_ns);
  }
  size_t n = std::min(spans.size(), max_events);
  std::fputs("[\n", f);
  for (size_t i = 0; i < n; ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,\"parent\":%llu,\"req\":%llu,"
                 "\"self_us\":%.3f}}%s\n",
                 s.name, s.tid, static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                 static_cast<unsigned long long>(s.id), static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.req), static_cast<double>(s.self_ns) / 1e3,
                 i + 1 < n ? "," : "");
  }
  std::fputs("]\n", f);
  return std::fclose(f) == 0;
}

uint64_t Record(const char* name, uint64_t req, uint64_t start_ns, uint64_t end_ns) {
  if (!g_enabled.load(std::memory_order_relaxed)) {
    return 0;
  }
  Span span;
  span.name = name;
  span.req = req;
  span.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.self_ns = end_ns - start_ns;
  Buffer* buf = ThreadBuffer();
  span.tid = buf->tid;
  buf->spans.push_back(span);
  return span.id;
}

Scope::Scope(const char* name, uint64_t req, uint64_t parent)
    : on_(g_enabled.load(std::memory_order_relaxed)) {
  if (!on_) {
    return;
  }
  enclosing_ = tls_current;
  tls_current = this;
  span_.name = name;
  span_.req = req;
  span_.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  span_.parent = parent != 0 ? parent : (enclosing_ != nullptr ? enclosing_->span_.id : 0);
  span_.start_ns = NowNs();
}

Scope::~Scope() {
  if (!on_) {
    return;
  }
  span_.end_ns = NowNs();
  uint64_t elapsed = span_.end_ns - span_.start_ns;
  span_.self_ns = elapsed >= child_ns_ ? elapsed - child_ns_ : 0;
  tls_current = enclosing_;
  if (enclosing_ != nullptr) {
    enclosing_->child_ns_ += elapsed;
  }
  Buffer* buf = ThreadBuffer();
  span_.tid = buf->tid;
  buf->spans.push_back(span_);
}

std::map<std::string, NameStats> ByName(const std::vector<Span>& spans) {
  std::map<std::string, NameStats> out;
  for (const Span& s : spans) {
    NameStats& st = out[s.name];
    st.count += 1;
    st.total_ns += s.end_ns - s.start_ns;
    st.self_ns += s.self_ns;
    st.dur_us.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
  }
  return out;
}

}  // namespace perfbench::spans
