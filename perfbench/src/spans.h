// Span recording for the traced run.
//
// Every decorator the benchmark wraps around a layer opens a Scope around
// the call it forwards. A span carries its name, start and end, the span
// that caused it and a request id shared by all spans of one request (the
// delivery's body tag, the POP3 session id, or the checker's execution
// ordinal). Spans go to a per-thread buffer in memory and are written once,
// as a Chrome trace, after the run.
//
// Self time is tracked as the span is closed: a scope subtracts the time of
// the child scopes nested inside it on the same thread, so a layer's self
// time excludes the layers below it. A parent on another thread (a server
// span whose request began in the load generator) is linked by id only.
#ifndef PERFBENCH_SRC_SPANS_H_
#define PERFBENCH_SRC_SPANS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench::spans {

struct Span {
  const char* name = "";  // static strings only
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  uint64_t req = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t self_ns = 0;
  uint32_t tid = 0;
};

// Recording is off until Enable(true). Enable and Reset must be called
// while no thread is inside a Scope.
void Enable(bool on);
void Reset();
// Every span recorded since the last Reset. Call once the recording
// threads have stopped (or are quiescent).
std::vector<Span> Collect();
// Records a span whose start and end were taken by the caller, for work
// that is not a call on one thread (a client request driven by an event
// loop). Assigns the id and thread; returns the id.
uint64_t Record(const char* name, uint64_t req, uint64_t start_ns, uint64_t end_ns);
// How many spans a run writes to its trace file (all are kept in memory
// for the per-layer figures; the file is for looking at, not for totals).
inline constexpr size_t kTraceFileSpans = 50000;

// Writes at most `max_events` spans as a Chrome trace-event JSON array.
bool WriteChromeTrace(const std::string& path, const std::vector<Span>& spans,
                      size_t max_events);

class Scope {
 public:
  // `parent` overrides the enclosing same-thread scope (0 = use it).
  Scope(const char* name, uint64_t req, uint64_t parent = 0);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  uint64_t id() const { return span_.id; }
  void set_req(uint64_t req) { span_.req = req; }

 private:
  bool on_;
  Scope* enclosing_ = nullptr;
  uint64_t child_ns_ = 0;
  Span span_;
};

// Aggregates over the spans of one name.
struct NameStats {
  uint64_t count = 0;
  uint64_t total_ns = 0;
  uint64_t self_ns = 0;
  std::vector<double> dur_us;
};
std::map<std::string, NameStats> ByName(const std::vector<Span>& spans);

}  // namespace perfbench::spans

#endif  // PERFBENCH_SRC_SPANS_H_
