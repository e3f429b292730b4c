// Spec-independent state of a refinement-checker run.
//
// Everything in this header is a pure value type shared by the exploration
// engines (explorer.h, parallel_explorer.h) and the durable-run layer
// (checkpoint.{h,cc}): the Report an engine returns, the POR bookkeeping a
// DFS subtree carries, and the cooperative cancellation token. None of it depends on
// a Spec type, which is what lets checkpoint.cc serialize a run's resumable
// state without knowing which system is being checked: the decision path
// plus the POR level bookkeeping determine every per-execution detail
// (env budgets, crash counts, thread schedules) by deterministic replay.
#ifndef PERENNIAL_SRC_REFINE_RUN_STATE_H_
#define PERENNIAL_SRC_REFINE_RUN_STATE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/proc/footprint.h"

namespace perennial::refine {

// Why a run returned. kComplete covers both a finished DFS and the legacy
// bounded stops (max_violations, max_executions — the latter still sets
// Report::truncated); the other three are durable-run stops: the engine
// flushed a checkpoint (when configured) and returned a partial Report
// instead of running on. Ordered by severity so concurrent causes in the
// parallel engine resolve deterministically toward the strongest.
enum class RunOutcome : uint32_t {
  kComplete = 0,
  kCanceled = 1,  // CancelToken fired (SIGINT, watchdog, cancel_after_decisions)
  kDeadline = 2,  // wall_deadline_ms expired
  kOom = 3,       // accounted memory exceeded max_memory_bytes
};

inline const char* OutcomeName(RunOutcome o) {
  switch (o) {
    case RunOutcome::kComplete: return "complete";
    case RunOutcome::kCanceled: return "canceled";
    case RunOutcome::kDeadline: return "deadline";
    case RunOutcome::kOom: return "oom";
  }
  return "unknown";
}

// Cooperative cancellation: RequestCancel is an atomic store, so it is
// async-signal-safe (bench binaries call it from a SIGINT handler) and may
// be shared across ParallelExplorer workers. Engines poll it at every
// decision point; an execution interrupted mid-run is rolled back and its
// decision path is checkpointed for an exact re-run on resume.
class CancelToken {
 public:
  void RequestCancel() { canceled_.store(true, std::memory_order_relaxed); }
  bool canceled() const { return canceled_.load(std::memory_order_relaxed); }
  void Reset() { canceled_.store(false, std::memory_order_relaxed); }

 private:
  std::atomic<bool> canceled_{false};
};

namespace detail {
enum class AltKind { kThread, kCrash, kEnv, kProceed };
}  // namespace detail

// One decision of a recorded schedule: which alternative KIND the driver
// took and its identity — the thread id for kThread, the env-event index
// for kEnv (crash and proceed carry no payload). A violating execution's
// full decision sequence, stored as ScheduleDecisions, is a replayable
// witness: deterministic factories plus intent-based replay
// (Explorer::ReplaySchedule) reconstruct the execution — and therefore the
// violation — from the sequence alone. The minimizer (minimize.h) shrinks
// these sequences and the trace-file format persists them.
struct ScheduleDecision {
  detail::AltKind kind = detail::AltKind::kThread;
  int thread = -1;   // kThread only
  uint32_t env = 0;  // kEnv only
  bool operator==(const ScheduleDecision&) const = default;
};

inline std::string ScheduleDecisionLabel(const ScheduleDecision& d) {
  switch (d.kind) {
    case detail::AltKind::kThread: return "t" + std::to_string(d.thread);
    case detail::AltKind::kCrash: return "CRASH";
    case detail::AltKind::kEnv: return "env" + std::to_string(d.env);
    case detail::AltKind::kProceed: return "observe";
  }
  return "?";
}

struct Violation {
  std::string kind;
  std::string detail;
  std::string trace;
  // The decision sequence of the execution that manifested the violation
  // (every decision, in order). Excluded from ToString — the trace string
  // above is the human-readable rendering; this is the machine-replayable
  // one.
  std::vector<ScheduleDecision> schedule;

  std::string ToString() const { return kind + ": " + detail + "\n  schedule: " + trace; }
};

struct Report {
  uint64_t executions = 0;
  uint64_t total_steps = 0;
  uint64_t crashes_injected = 0;
  // Environment alternatives fired (disk failures, armed faults, ...).
  uint64_t env_events_fired = 0;
  uint64_t histories_checked = 0;
  // Of histories_checked, how many were fingerprint-duplicates whose spec
  // check was skipped (dedup_histories).
  uint64_t histories_deduped = 0;
  // Executions abandoned by sleep-set POR as commutation-equivalent to an
  // already-explored schedule (counted in executions, no history emitted).
  uint64_t por_pruned = 0;
  uint64_t spec_states_explored = 0;
  bool truncated = false;  // DFS did not finish (max_executions or a stop)
  // Why the run returned. Anything but kComplete means a durable-run stop:
  // the Report is partial and (if checkpoint_path was set) resumable.
  RunOutcome outcome = RunOutcome::kComplete;
  // True when this run restored state from a checkpoint file.
  bool resumed = false;
  std::vector<Violation> violations;

  bool ok() const { return violations.empty(); }

  std::string Summary() const {
    std::string out = "executions=" + std::to_string(executions) +
                      " steps=" + std::to_string(total_steps) +
                      " crashes=" + std::to_string(crashes_injected) +
                      " env=" + std::to_string(env_events_fired) +
                      " histories=" + std::to_string(histories_checked) +
                      " deduped=" + std::to_string(histories_deduped) +
                      " por_pruned=" + std::to_string(por_pruned) +
                      " spec_states=" + std::to_string(spec_states_explored) +
                      (truncated ? " (TRUNCATED)" : "") +
                      (outcome != RunOutcome::kComplete
                           ? std::string(" outcome=") + OutcomeName(outcome)
                           : std::string()) +
                      " violations=" + std::to_string(violations.size());
    for (const Violation& v : violations) {
      out += "\n  " + v.ToString();
    }
    return out;
  }
};

// Accumulates one partial/subtree report into an aggregate. Reports are
// merged in DFS item order by both engines, which is what makes the
// parallel (and resumed) aggregates bit-identical to the serial run.
inline void MergeReport(Report* aggregate, const Report& r) {
  aggregate->executions += r.executions;
  aggregate->total_steps += r.total_steps;
  aggregate->crashes_injected += r.crashes_injected;
  aggregate->env_events_fired += r.env_events_fired;
  aggregate->histories_checked += r.histories_checked;
  aggregate->histories_deduped += r.histories_deduped;
  aggregate->por_pruned += r.por_pruned;
  aggregate->spec_states_explored += r.spec_states_explored;
  aggregate->truncated = aggregate->truncated || r.truncated;
  aggregate->resumed = aggregate->resumed || r.resumed;
  aggregate->violations.insert(aggregate->violations.end(), r.violations.begin(),
                               r.violations.end());
}

inline void TrimReportViolations(Report* aggregate, int max_violations) {
  if (aggregate->violations.size() > static_cast<size_t>(max_violations)) {
    aggregate->violations.resize(static_cast<size_t>(max_violations));
  }
}

namespace detail {

struct Alt {
  AltKind kind;
  int thread = -1;  // kThread
  size_t env = 0;   // kEnv
  std::string label;
};

// One alternative already explored at a DFS decision level: its identity
// and the footprint its step had when taken. Persisted across odometer
// iterations (and shipped to ParallelExplorer workers inside their work
// item) so later siblings can put explored threads to sleep.
struct TriedAlt {
  AltKind kind = AltKind::kThread;
  int thread = -1;
  proc::Footprint footprint;
};

// Per-decision-level POR bookkeeping: tried[j] describes selectable
// alternative j (indices match the decision-path values at this level).
struct PorLevel {
  std::vector<TriedAlt> tried;
};

// A thread put to sleep at some ancestor decision: exploring it here would
// only commute with the path taken since. `footprint` is the footprint its
// next step had at the branch point; because nothing executed since
// conflicts with it (or it would have been woken), that step — and its
// footprint — are unchanged.
struct SleepEntry {
  int thread = -1;
  proc::Footprint footprint;
};

}  // namespace detail

}  // namespace perennial::refine

#endif  // PERENNIAL_SRC_REFINE_RUN_STATE_H_
