// The schedule-and-crash-point explorer: the executable stand-in for the
// universal quantification in Perennial's theorems.
//
// Where the paper's Coq proof covers all interleavings and all crash points
// by deduction, the explorer covers them by enumeration: it drives the
// modeled system (coroutine threads over the deterministic scheduler)
// through either every schedule up to configured bounds (exhaustive DFS) or
// a PCT sample (DESIGN.md §12), injecting machine crashes between any two atomic
// steps — including during recovery — and environment events such as disk
// failures. Every execution yields a history that is checked for
// concurrent recovery refinement (linearize.h), and registered crash
// invariants (src/cap) are evaluated at every step.
//
// Detected violation classes:
//   * non-linearizable  — no spec interleaving explains the history
//   * crash-invariant   — a registered invariant failed at some step
//   * undefined-behavior— the modeled program raised UbViolation
//   * deadlock          — live threads, none runnable
//   * step-bound        — execution exceeded max_steps_per_run (possible
//                         nontermination, e.g. the §9.5 Pickup loop bug)
//
// Partial-order reduction (use_por): the exhaustive DFS prunes schedules
// with SLEEP SETS over dynamic access footprints (src/proc/footprint.h).
// When sibling scheduling choices at a decision node are pairwise
// independent — disjoint footprints, neither a crash nor an environment
// alternative — exploring one sibling's subtree covers the other orders,
// so later siblings' subtrees put the explored thread "to sleep": its
// alternative is filtered from every descendant decision until some step
// conflicts with the footprint it had at the branch. A node whose every
// alternative is asleep is redundant in full (counted in
// Report::por_pruned, no history emitted). Soundness invariants:
//   * only THREAD alternatives are ever slept — crash points and
//     environment events are the quantification the checker exists to
//     cover, and they are pruned by nothing;
//   * a step with no footprint annotation conflicts with everything
//     (opaque-by-default, so unannotated code costs pruning, not bugs);
//   * invariant-visible effects (disk writes, help-registry updates) share
//     a dedicated resource, so steps crash invariants can observe are
//     never reordered past one another;
//   * history appends share a resource, so the set of DISTINCT histories —
//     and therefore every linearizability verdict — is POR-invariant, and
//     the DFS-leftmost member of each commutation class is never pruned
//     (the first violation found is bit-identical with POR on or off).
// POR engages only in the fully exhaustive regime: preemption bounding
// already prunes unsoundly (it is a bug-finding heuristic), and sleep sets
// assume the sibling subtree was explored in full, so max_preemptions >= 0
// disables POR rather than compound two incomparable reductions.
//
// One exploration engine: every run is a list of work items, each a DFS
// subtree (a decision-path prefix) or a PCT slice (a run range of one
// seed batch), driven by ItemScheduler's claim -> run -> commit loop.
// Explorer::Run() is that loop with one worker on the calling thread;
// ParallelExplorer (parallel_explorer.h) is the same loop with N workers.
// The decision tree is prefix-partitionable — every execution is fully
// determined by its decision path, and factories are required to be
// deterministic — so ParallelExplorer enumerates decision-path prefixes
// via EnumerateSubtreePrefixes() and each worker re-runs this engine on
// its items via RunItem(). Work items carry the POR bookkeeping for their
// prefix (the footprints of already-explored sibling alternatives), so
// workers reconstruct exactly the serial engine's sleep sets. The work
// list is also the checkpoint payload (checkpoint.h), so resuming,
// checkpointing and merging are the same code for any worker count. Two
// further knobs support parallel use:
//   * dedup_histories — fingerprint completed histories (src/base/hash.h)
//     and skip the linearizability search for repeats. Sound because the
//     spec check depends only on the history, every execution still runs in
//     full (crash invariants, UB, deadlock, and step bounds are evaluated
//     during execution), and a cached violating verdict is re-reported for
//     every duplicate, so the violation set is unchanged. The cache is a
//     ShardedMemo (memo.h) that ParallelExplorer shares across workers.
//   * progress_callback — periodic cumulative counts for long runs and
//     benches, observed after each execution completes (so dedup counts
//     are post-dedup).
#ifndef PERENNIAL_SRC_REFINE_EXPLORER_H_
#define PERENNIAL_SRC_REFINE_EXPLORER_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stop_token>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/base/hash.h"
#include "src/base/panic.h"
#include "src/base/rand.h"
#include "src/cap/crash_invariant.h"
#include "src/goose/world.h"
#include "src/proc/footprint.h"
#include "src/proc/scheduler.h"
#include "src/proc/task.h"
#include "src/refine/checkpoint.h"
#include "src/refine/history.h"
#include "src/refine/linearize.h"
#include "src/refine/memo.h"
#include "src/refine/run_state.h"

#ifndef PCC_POR_DEFAULT
#define PCC_POR_DEFAULT 1
#endif

namespace perennial::refine {

// An environment event the explorer may fire between steps (e.g. "fail
// disk 1"). `budget` bounds how many times it fires per execution.
struct EnvEvent {
  std::string name;
  int budget = 1;
  std::function<void()> fire;
};

template <typename Spec>
struct Instance;

// Handed to dynamic client programs: runs one spec-level operation against
// the implementation while recording its invocation and response in the
// history. Programs can branch on returned values (e.g. delete the ids a
// pickup returned).
template <typename Spec>
class OpRunner {
 public:
  OpRunner(Instance<Spec>* inst, History<Spec>* history, int client)
      : inst_(inst), history_(history), client_(client) {}

  proc::Task<typename Spec::Ret> Run(typename Spec::Op op) {
    uint64_t id = history_->Invoke(client_, op);
    typename Spec::Ret ret = co_await inst_->run_op(client_, id, op);
    history_->Return(id, ret);
    co_return ret;
  }

  int client() const { return client_; }

 private:
  Instance<Spec>* inst_;
  History<Spec>* history_;
  int client_;
};

// One freshly constructed system under test. Factories must be
// deterministic: the DFS explorer replays prefixes by reconstruction.
template <typename Spec>
struct Instance {
  using Op = typename Spec::Op;
  using Ret = typename Spec::Ret;

  // Owns the world/system objects the raw pointers below refer to.
  std::shared_ptr<void> keep_alive;
  goose::World* world = nullptr;
  // Optional: invariants checked at every step (nullptr to skip).
  const cap::CrashInvariants* crash_invariants = nullptr;
  // Per-client operation sequences; client i runs its ops in order.
  std::vector<std::vector<Op>> client_ops;
  // Dynamic client programs (run as additional clients after client_ops
  // threads): each receives an OpRunner and may branch on results.
  std::vector<std::function<proc::Task<void>(OpRunner<Spec>*)>> client_programs;
  // Dynamic observer program run at the end (in addition to observer_ops).
  std::function<proc::Task<void>(OpRunner<Spec>*)> observer_program;
  // Runs one operation. `op_id` identifies the op instance for helping.
  std::function<proc::Task<Ret>(int client, uint64_t op_id, Op op)> run_op;
  // Recovery procedure; run after each crash (null: crashes not explored).
  std::function<proc::Task<void>(History<Spec>*)> recover;
  // Ops probed sequentially at the end of the execution (after recovery if
  // a crash happened); they pin down the surviving durable state.
  std::vector<Op> observer_ops;
  std::vector<EnvEvent> env_events;
};

// Cumulative counts handed to ExplorerOptions::progress_callback. All
// fields are post-execution values: histories_checked/deduped reflect the
// dedup decision already taken for the execution just finished.
struct ExplorerProgress {
  uint64_t executions = 0;
  uint64_t total_steps = 0;
  uint64_t violations = 0;
  uint64_t histories_checked = 0;
  uint64_t histories_deduped = 0;
  uint64_t por_pruned = 0;
};

struct ExplorerOptions {
  // kPct keeps the value 2 it had next to the removed plain random mode:
  // ExplorationConfigFp mixes it in, so older PCT checkpoints still resume.
  enum class Mode { kExhaustive = 0, kPct = 2 };
  Mode mode = Mode::kExhaustive;

  int max_crashes = 1;                  // crashes injected per execution
  // CHESS-style preemption bounding: a "preemption" is scheduling away
  // from a thread that could have kept running. -1 = unbounded (full
  // exhaustiveness within the other bounds); small values (0-2) shrink the
  // schedule space drastically while still catching most concurrency bugs.
  int max_preemptions = -1;
  uint64_t max_steps_per_run = 5000;    // nontermination bound
  uint64_t max_executions = 2'000'000;  // DFS safety cap
  int max_violations = 3;               // stop collecting after this many

  // PCT mode:
  uint64_t random_runs = 1000;      // executions sampled (per swarm batch)
  uint64_t seed = 1;
  double crash_probability = 0.05;  // per-step chance of injecting a crash
  double env_probability = 0.05;    // per-step chance of firing an env event

  // ---- PCT mode (mode == kPct; DESIGN.md §12) ----
  // Priority-based randomized exploration with the PCT bug-finding bound
  // (Burckhardt et al.): every thread gets a random priority, the highest-
  // priority runnable thread always runs, and d-1 priority-change points
  // drawn uniformly over the step budget demote the running thread below
  // every initial priority. A bug of depth d (one needing d specific
  // ordering constraints) is found per run with probability >=
  // 1/(n * k^(d-1)) for n threads and k steps — a guarantee exhaustive DFS
  // under an execution budget cannot make, because DFS covers the decision
  // tree suffix-first and a bug needing an EARLY deviation sits at the far
  // end of its enumeration order. Crash and environment alternatives stay
  // in scope via per-step probability draws (crash_probability,
  // env_probability), so crash placement and fault injection are sampled on
  // top of the PCT thread schedule. Every run's seed is derived from (seed, batch, run
  // index) alone, so reports are bit-identical across serial/parallel
  // engines, worker counts, and checkpoint/resume splits (dedup counters
  // excepted — see dedup_histories note below).
  int pct_depth = 3;                 // d: targeted bug depth (d-1 change points)
  uint64_t pct_change_budget = 256;  // k: steps the change points are drawn over

  // Swarm mode: > 0 runs that many independent seed batches of random_runs
  // PCT executions each (batch b reseeds from (seed, b)), merged into one
  // report in batch order. With swarm_vary_depth the batches cycle
  // pct_depth over {d-1, d, d+1} (floored at 2) so one sweep covers
  // several bug depths. Batches ride the checkpoint/resume machinery:
  // work items are (batch, run-range) slices, so an interrupted swarm
  // resumes to the uninterrupted report.
  uint64_t swarm_seeds = 0;
  bool swarm_vary_depth = false;

  // Skip the linearizability search for completed histories whose 128-bit
  // fingerprint was already checked this run (see the header comment for
  // the soundness argument). Counted in Report::histories_deduped. In PCT
  // mode dedup stays sound (verdicts are pure functions of the history)
  // but the deduped COUNTER is excluded from the bit-identity contract:
  // which run pays for a fingerprint depends on cache sharing across
  // workers and on resume splits.
  bool dedup_histories = false;

  // Sleep-set dynamic partial-order reduction (header comment). Effective
  // only for exhaustive mode with unbounded preemptions; the compile-time
  // default comes from the PCC_POR CMake option.
  bool use_por = PCC_POR_DEFAULT != 0;

  // Memoize spec-search frontiers per history PREFIX (linearize.h), shared
  // across executions (and, under ParallelExplorer, workers). Off by
  // default: it changes Report::spec_states_explored (work skipped via the
  // cache is not re-counted), which several equivalence tests compare.
  bool memoize_spec_prefixes = false;

  // Observability: invoked every progress_interval executions with counts
  // cumulative over the run. Under ParallelExplorer the callback fires on
  // worker threads, one caller at a time (serialized by an internal mutex).
  std::function<void(const ExplorerProgress&)> progress_callback;
  uint64_t progress_interval = 1024;

  // ParallelExplorer only (ignored by the serial Explorer):
  int num_workers = 4;  // OS threads exploring disjoint subtrees
  // Decision-path depth at which the coordinator splits the tree into work
  // items. Deeper splits yield more, smaller items (better load balance,
  // more probe overhead); #items grows roughly with branching^depth.
  int split_depth = 4;

  // ---- Durable runs (checkpoint.h; DESIGN.md §11) ----
  // All default off: a run with none of these set pays nothing for them.
  // A triggered stop never aborts the process — the engine rolls back the
  // execution in flight, flushes a checkpoint (when checkpoint_path is
  // set), and returns a partial Report tagged with the outcome.

  // Wall-clock budget for the whole run, measured from Run() (and, for a
  // ParallelExplorer worker's own mid-execution check, from its first
  // item). 0 = none.
  uint64_t wall_deadline_ms = 0;
  // Budget for ACCOUNTED memory: the linearizer's retained arena plus the
  // memo caches (which also get per-cache byte caps with whole-shard
  // eviction, at max_memory_bytes / 4 each). Deliberately accounting-based
  // rather than RSS so the oom outcome is deterministic and testable; the
  // bench harness reports true peak RSS separately. 0 = none.
  uint64_t max_memory_bytes = 0;
  // Cooperative cancellation (e.g. a SIGINT handler); polled at every
  // decision point. Not owned; may be shared across engines.
  CancelToken* cancel_token = nullptr;
  // Deterministic cancellation once N decisions have been made across the
  // run — the testing hook behind the interrupt/resume bit-identity suite
  // (a SIGINT at a reproducible point). It only fires after the run has
  // COMPLETED at least one execution: a resumed leg replays the decisions
  // of the execution it interrupted, so a threshold inside the first
  // execution would re-trigger at the identical point every leg and never
  // make progress. 0 = off.
  uint64_t cancel_after_decisions = 0;
  // Write a checkpoint here on any durability stop, on completion, and at
  // the checkpoint_every_execs cadence. Empty = never write.
  std::string checkpoint_path;
  // Load-and-continue from this checkpoint at Run() start. A missing,
  // torn, corrupt, version-bumped, or configuration-mismatched file is
  // rejected (stderr warning) and the run starts from scratch.
  std::string resume_path;
  // Periodic checkpoint cadence while the run is healthy: every N
  // executions, checked at execution boundaries. 0 = only on
  // stop/completion.
  uint64_t checkpoint_every_execs = 0;
  // Distinguishes otherwise identically-configured runs of different
  // systems: mixed into the checkpoint config fingerprint so e.g. a
  // wal-recovery checkpoint cannot resume a repl-2writers sweep.
  std::string run_id;
  // A worker whose heartbeat counter has not moved for this long while it
  // owns a work item is considered stuck — a watchdog thread writes a
  // recovery checkpoint of everything else and requests cancellation.
  // 0 = no watchdog (and no extra thread).
  uint64_t stuck_worker_timeout_ms = 0;
};

// Violation, Report, RunOutcome, CancelToken, and the detail:: POR
// bookkeeping types moved to run_state.h (shared with the durable-run
// layer).

namespace detail {

// Supplies one choice index per decision point.
class Driver {
 public:
  virtual ~Driver() = default;
  virtual size_t Choose(const std::vector<Alt>& alts) = 0;
};

// Replays a recorded prefix, then picks alternative 0 and extends the path;
// records the alternative count at every decision for the DFS odometer.
class DfsDriver : public Driver {
 public:
  explicit DfsDriver(std::vector<size_t>* path) : path_(path) {}

  size_t Choose(const std::vector<Alt>& alts) override {
    counts_.push_back(alts.size());
    if (pos_ < path_->size()) {
      return (*path_)[pos_++];
    }
    path_->push_back(0);
    ++pos_;
    return 0;
  }

  const std::vector<size_t>& counts() const { return counts_; }

 private:
  std::vector<size_t>* path_;
  size_t pos_ = 0;
  std::vector<size_t> counts_;
};

// The seed of PCT run `run` of batch `batch`: a pure function of the
// top-level seed and the two indices, so ANY partition of the run space —
// serial loop, parallel slices, resume legs — reproduces the identical
// per-run executions.
inline uint64_t PctRunSeed(uint64_t seed, uint64_t batch, uint64_t run) {
  uint64_t state = seed;
  (void)SplitMix64(state);
  state += (batch + 1) * 0x9E3779B97F4A7C15ull;
  (void)SplitMix64(state);
  state += (run + 1) * 0xBF58476D1CE4E5B9ull;
  return SplitMix64(state);
}

// PCT (Burckhardt et al., ASPLOS 2010): every thread gets a random initial
// priority >= d, the highest-priority runnable thread always runs, and d-1
// priority-change points drawn uniformly over the step budget k demote the
// running thread to d-1-j (below every initial priority). A depth-d bug is
// hit with probability >= 1/(n * k^(d-1)). Crash and environment
// alternatives are sampled by per-step Bernoulli draws layered on top of
// the PCT thread schedule; a lone crash or env candidate costs that one
// draw and no uniform pick, so merely offering it does not shift the seed
// stream. Fully deterministic in the seed: priorities are assigned in
// alternative order and ties break toward the first maximum.
class PctDriver : public Driver {
 public:
  PctDriver(uint64_t seed, int depth, uint64_t change_budget, double crash_p, double env_p)
      : rng_(seed), crash_p_(crash_p), env_p_(env_p) {
    depth_ = depth < 1 ? 1 : depth;
    if (change_budget < 1) {
      change_budget = 1;
    }
    // d-1 change points in [1, k], sorted so the back is the next one due.
    for (int j = 0; j < depth_ - 1; ++j) {
      change_points_.push_back(1 + rng_.Below(change_budget));
    }
    std::sort(change_points_.begin(), change_points_.end(), std::greater<uint64_t>());
  }

  size_t Choose(const std::vector<Alt>& alts) override {
    std::vector<size_t> threads;
    std::vector<size_t> crashes;
    std::vector<size_t> envs;
    for (size_t i = 0; i < alts.size(); ++i) {
      switch (alts[i].kind) {
        case AltKind::kThread:
          threads.push_back(i);
          break;
        case AltKind::kCrash:
          crashes.push_back(i);
          break;
        case AltKind::kEnv:
          envs.push_back(i);
          break;
        case AltKind::kProceed:
          break;
      }
    }
    if (!crashes.empty() && rng_.Chance(crash_p_)) {
      return crashes.size() == 1 ? crashes[0] : crashes[rng_.Below(crashes.size())];
    }
    if (!envs.empty() && rng_.Chance(env_p_)) {
      return envs.size() == 1 ? envs[0] : envs[rng_.Below(envs.size())];
    }
    if (threads.empty()) {
      // The quiescent point offering [proceed, CRASH, env...]: the declined
      // draws above already said "no crash, no env" for this step.
      for (size_t i = 0; i < alts.size(); ++i) {
        if (alts[i].kind == AltKind::kProceed) {
          return i;
        }
      }
      return alts.size() == 1 ? 0 : rng_.Below(alts.size());
    }
    ++steps_;
    // Unseen threads draw their initial priority now, in alternative order
    // (deterministic). Collisions are possible and harmless: ties break
    // toward the first maximum, uniformly shifting probability mass rather
    // than invalidating the bound.
    for (size_t i : threads) {
      const int tid = alts[i].thread;
      if (priority_.find(tid) == priority_.end()) {
        priority_[tid] = static_cast<int64_t>(depth_) + static_cast<int64_t>(rng_.Below(1u << 20));
      }
    }
    auto argmax = [&]() -> size_t {
      size_t best = threads[0];
      int64_t best_p = priority_[alts[best].thread];
      for (size_t k = 1; k < threads.size(); ++k) {
        const int64_t p = priority_[alts[threads[k]].thread];
        if (p > best_p) {
          best_p = p;
          best = threads[k];
        }
      }
      return best;
    };
    size_t pick = argmax();
    // Change points due at this step demote the would-run thread to
    // d-1-j (the j-th firing), then re-resolve; several points landing on
    // one step demote successive maxima.
    while (!change_points_.empty() && steps_ >= change_points_.back()) {
      change_points_.pop_back();
      priority_[alts[pick].thread] = static_cast<int64_t>(depth_ - 1) - fired_;
      ++fired_;
      pick = argmax();
    }
    return pick;
  }

 private:
  Rng rng_;
  double crash_p_;
  double env_p_;
  int depth_ = 1;
  uint64_t steps_ = 0;                   // thread decisions seen so far
  int64_t fired_ = 0;                    // change points already fired
  std::vector<uint64_t> change_points_;  // descending; back() fires next
  std::map<int, int64_t> priority_;      // tid -> current priority
};

// Replays a recorded ScheduleDecision sequence as a list of INTENTS rather
// than indices: at each decision point the remaining intents are scanned in
// order, intents with no matching alternative are dropped, and the first
// match is taken. Index-free matching is what lets the minimizer delete
// decisions from the middle of a schedule and still replay the remainder
// meaningfully. When the intents run out the replay finishes
// deterministically: first thread alternative, else proceed, else
// alternative 0. `consumed()` is the subsequence actually taken;
// replaying consumed(X) reproduces the replay of X decision-for-decision
// (defaults depend only on the execution state, which matching preserves).
class ScheduleReplayDriver : public Driver {
 public:
  explicit ScheduleReplayDriver(std::vector<ScheduleDecision> schedule)
      : schedule_(std::move(schedule)) {}

  size_t Choose(const std::vector<Alt>& alts) override {
    while (pos_ < schedule_.size()) {
      const ScheduleDecision& d = schedule_[pos_];
      for (size_t i = 0; i < alts.size(); ++i) {
        if (Matches(d, alts[i])) {
          ++pos_;
          consumed_.push_back(d);
          return i;
        }
      }
      ++pos_;  // intent impossible here: drop it, try the next
    }
    return DefaultPick(alts);
  }

  const std::vector<ScheduleDecision>& consumed() const { return consumed_; }

 private:
  static bool Matches(const ScheduleDecision& d, const Alt& a) {
    if (d.kind != a.kind) {
      return false;
    }
    if (d.kind == AltKind::kThread) {
      return d.thread == a.thread;
    }
    if (d.kind == AltKind::kEnv) {
      return static_cast<size_t>(d.env) == a.env;
    }
    return true;  // crash / proceed carry no payload
  }

  static size_t DefaultPick(const std::vector<Alt>& alts) {
    for (size_t i = 0; i < alts.size(); ++i) {
      if (alts[i].kind == AltKind::kThread) {
        return i;
      }
    }
    for (size_t i = 0; i < alts.size(); ++i) {
      if (alts[i].kind == AltKind::kProceed) {
        return i;
      }
    }
    return 0;
  }

  std::vector<ScheduleDecision> schedule_;
  size_t pos_ = 0;
  std::vector<ScheduleDecision> consumed_;
};

}  // namespace detail

// Fingerprint of every option that shapes the decision tree a run
// explores. Stamped into checkpoints so a resume can only continue a run
// over the same space. Durability knobs (deadline, memory budget,
// checkpoint cadence) and parallelism knobs (num_workers, split_depth) are
// deliberately EXCLUDED: interrupting a run because of a deadline and
// resuming it without one — possibly on a different worker count — is the
// whole point, and resumed work items come from the checkpoint, not from
// re-enumeration.
inline uint64_t ExplorationConfigFp(const ExplorerOptions& options) {
  auto double_bits = [](double d) {
    uint64_t u = 0;
    std::memcpy(&u, &d, sizeof(u));
    return u;
  };
  Fnv128 f;
  f.MixString("pcc-exploration-config-v2");
  f.MixString(options.run_id);
  f.MixU64(static_cast<uint64_t>(options.mode));
  f.MixU64(static_cast<uint64_t>(static_cast<int64_t>(options.max_crashes)));
  f.MixU64(static_cast<uint64_t>(static_cast<int64_t>(options.max_preemptions)));
  f.MixU64(options.max_steps_per_run);
  f.MixU64(options.max_executions);
  f.MixU64(static_cast<uint64_t>(static_cast<int64_t>(options.max_violations)));
  f.MixU64(options.random_runs);
  f.MixU64(options.seed);
  f.MixU64(double_bits(options.crash_probability));
  f.MixU64(double_bits(options.env_probability));
  f.MixU64(static_cast<uint64_t>(static_cast<int64_t>(options.pct_depth)));
  f.MixU64(options.pct_change_budget);
  f.MixU64(options.swarm_seeds);
  f.MixU64(options.swarm_vary_depth ? 1 : 0);
  f.MixU64(options.dedup_histories ? 1 : 0);
  f.MixU64(options.use_por ? 1 : 0);
  f.MixU64(options.memoize_spec_prefixes ? 1 : 0);
  return f.digest().lo;
}

template <typename Spec>
class ItemScheduler;

template <typename Spec>
class Explorer {
 public:
  using Op = typename Spec::Op;
  using Ret = typename Spec::Ret;
  using Factory = std::function<Instance<Spec>()>;
  using FrontierCache = typename LinearizabilityChecker<Spec>::FrontierCache;

  Explorer(Spec spec, Factory factory, ExplorerOptions options)
      : spec_(std::move(spec)), factory_(std::move(factory)), options_(options) {}

  // Cache injection for ParallelExplorer (must outlive the Explorer; may be
  // shared across threads). By default each Explorer owns private caches.
  void set_verdict_cache(VerdictCache* cache) { verdict_cache_ = cache; }
  void set_frontier_cache(FrontierCache* cache) { frontier_cache_ = cache; }

  // The one-worker case of the item scheduler, on the calling thread: the
  // whole tree as a single item (or the PCT slice list), or the work list
  // of a resumed checkpoint written by either engine. Durability stops are
  // decision-granular: this engine polls the user's token, the deadline,
  // the memory budget and cancel_after_decisions at every decision point.
  Report Run() {
    EnsureDurabilityInit();
    ItemScheduler<Spec> scheduler(options_, verdict_cache_);
    if (!scheduler.resumed()) {
      scheduler.items() = options_.mode == ExplorerOptions::Mode::kPct
                              ? BuildPctItems()
                              : std::vector<CheckpointSubtree>(1);
    }
    return scheduler.Run(1, [&](int w) { scheduler.Work(w, *this); });
  }

  // Re-executes one run driving decisions from a recorded schedule
  // (intent-based, skip-unmatched — see detail::ScheduleReplayDriver).
  // Returns the single-execution Report; a recorded violation witness
  // replayed here reproduces its violation. `consumed`, if non-null,
  // receives the intents actually taken: ReplaySchedule(consumed(X))
  // reproduces ReplaySchedule(X) exactly, the canonicalization the
  // minimizer's termination argument rests on.
  Report ReplaySchedule(const std::vector<ScheduleDecision>& schedule,
                        std::vector<ScheduleDecision>* consumed = nullptr) {
    EnsureDurabilityInit();
    Report report;
    detail::ScheduleReplayDriver driver(schedule);
    RunOnce(driver, &report, nullptr, /*common_decisions=*/0);
    if (consumed != nullptr) {
      *consumed = driver.consumed();
    }
    report.outcome = stop_cause_;
    return report;
  }

  // Slice granularity of the PCT work list (runs per work item): the load-
  // balance unit for the parallel engine and the resume granularity cap.
  static constexpr uint64_t kPctChunkRuns = 64;

  // The PCT/swarm work list: (batch, run-range) slices encoded in
  // CheckpointSubtree::prefix as {batch, lo, hi}, sliced in chunks of
  // kPctChunkRuns for parallel load balance. Serial and parallel engines
  // build the IDENTICAL list, so their checkpoints interconvert and the
  // merged report is independent of who ran which slice.
  std::vector<CheckpointSubtree> BuildPctItems() const {
    std::vector<CheckpointSubtree> items;
    const uint64_t batches = options_.swarm_seeds == 0 ? 1 : options_.swarm_seeds;
    for (uint64_t b = 0; b < batches; ++b) {
      for (uint64_t lo = 0; lo < options_.random_runs; lo += kPctChunkRuns) {
        const uint64_t hi = std::min(options_.random_runs, lo + kPctChunkRuns);
        CheckpointSubtree item;
        item.prefix = {static_cast<size_t>(b), static_cast<size_t>(lo),
                       static_cast<size_t>(hi)};
        items.push_back(std::move(item));
      }
    }
    return items;
  }

  // Runs one work item in place until it finishes, `boundary` returns
  // false, or a durability stop ends it — the only code that knows the item
  // encoding. A DFS item's next_path is the decision path of its next
  // execution (the prefix while pending), bounded below by its floor; a PCT
  // item's prefix is {batch, lo, hi} and next_path {next run}. The run
  // accumulates ONTO item->partial, so per-item caps (max_violations,
  // max_executions) fire where an uninterrupted run's would — resume-
  // exactness. `boundary` is called after every completed execution, with
  // *item already naming the next execution (or kDone), so a snapshot taken
  // there resumes exactly.
  void RunItem(CheckpointSubtree* item, const std::function<bool()>& boundary) {
    EnsureDurabilityInit();
    if (item->state == CheckpointSubtree::State::kDone) {
      return;
    }
    const bool pct = options_.mode == ExplorerOptions::Mode::kPct;
    PCC_ENSURE(!pct || item->prefix.size() == 3, "PCT work item: malformed slice");
    if (item->state == CheckpointSubtree::State::kPending) {
      item->state = CheckpointSubtree::State::kInProgress;
      item->next_path = pct ? std::vector<size_t>{item->prefix[1]} : item->prefix;
    }
    if (pct) {
      RunPctSlice(item->prefix[0], item->prefix[2], item, boundary);
    } else {
      RunDfsSubtree(item, boundary);
    }
  }

  // The durability stop cause so far (kComplete while none). Sticky: once a
  // stop triggers, every later RunItem call on this engine drains
  // immediately — which is exactly what ParallelExplorer's cancel drain
  // relies on.
  RunOutcome stop_cause() const { return stop_cause_; }

  // Accounted retained memory: the linearizer arena plus the (possibly
  // shared) memo caches. The max_memory_bytes comparison base.
  size_t approx_memory_bytes() const {
    return checker_.approx_retained_bytes() + verdict_cache_->bytes() + frontier_cache_->bytes();
  }

  // Coordinator side of the parallel split: enumerates every reachable
  // decision-path prefix of length min(split_depth, run length) in DFS
  // order, as pending work items carrying the POR bookkeeping a worker
  // needs to reconstruct the serial sleep sets. The returned prefixes
  // partition the execution space — each decision path extends exactly one
  // of them — so per-item reports can be merged into the serial result.
  // Each probe run is structure discovery only (its stats are discarded;
  // the worker that owns the subtree re-runs it for real). Sets *truncated
  // if max_executions probes did not suffice to finish the enumeration.
  std::vector<CheckpointSubtree> EnumerateSubtreePrefixes(int split_depth, bool* truncated) {
    PCC_ENSURE(split_depth >= 0, "split_depth must be non-negative");
    std::vector<CheckpointSubtree> items;
    Report scratch;
    std::vector<size_t> path;
    std::vector<detail::PorLevel> levels;
    std::vector<detail::PorLevel>* por = PorActive() ? &levels : nullptr;
    EnsureDurabilityInit();
    while (true) {
      detail::DfsDriver driver(&path);
      // Probe runs never claim a shared prefix: structure discovery only.
      // A durability stop during enumeration abandons it; the caller
      // checks stop_cause() and falls back to a single whole-tree item.
      if (StopAtBoundary() || !RunOnce(driver, &scratch, por, /*common_decisions=*/0)) {
        break;
      }
      const std::vector<size_t>& counts = driver.counts();
      PCC_ENSURE(path.size() >= counts.size(), "DFS: path shorter than counts");
      path.resize(counts.size());
      const size_t plen = std::min(static_cast<size_t>(split_depth), path.size());
      CheckpointSubtree item;
      item.prefix.assign(path.begin(), path.begin() + plen);
      item.floor = plen;
      if (por != nullptr) {
        // Ship, per prefix level, the alternatives explored before the one
        // the prefix takes — the sleep-set candidates a worker cannot
        // recompute (they belong to sibling subtrees).
        item.por_levels.resize(plen);
        for (size_t l = 0; l < plen; ++l) {
          const std::vector<detail::TriedAlt>& tried = levels[l].tried;
          const size_t keep = std::min(item.prefix[l], tried.size());
          item.por_levels[l].tried.assign(tried.begin(), tried.begin() + keep);
        }
      }
      items.push_back(std::move(item));
      if (scratch.executions >= options_.max_executions) {
        *truncated = true;
        break;
      }
      // Advance the odometer over the first split_depth levels only: one
      // work item per distinct reachable prefix.
      path.resize(plen);
      if (!AdvanceOdometer(&path, counts, 0)) {
        break;
      }
      if (por != nullptr && levels.size() > path.size()) {
        levels.resize(path.size());
      }
    }
    return items;
  }

 private:
  using Clock = std::chrono::steady_clock;

  // Advances the deepest decision above `floor` that still has untried
  // alternatives and drops everything below it; false when none is left.
  static bool AdvanceOdometer(std::vector<size_t>* path, const std::vector<size_t>& counts,
                              size_t floor) {
    while (path->size() > floor) {
      if (path->back() + 1 < counts[path->size() - 1]) {
        ++path->back();
        return true;
      }
      path->pop_back();
    }
    return false;
  }

  // Exhaustive DFS over decision sequences, replaying from scratch,
  // restricted to paths that extend the item's first `floor` decisions
  // (positions inside the assigned prefix are never advanced — they belong
  // to other subtrees). item->next_path and item->por_levels are the live
  // odometer state, so on return — or at a boundary — they name the next
  // execution exactly; resuming from them continues the walk as if it had
  // never stopped.
  void RunDfsSubtree(CheckpointSubtree* item, const std::function<bool()>& boundary) {
    std::vector<size_t>& path = item->next_path;
    std::vector<detail::PorLevel>* por = PorActive() ? &item->por_levels : nullptr;
    Report* report = &item->partial;
    // Decisions this run provably shares with the previous run of THIS
    // explorer: after the odometer bumps the decision at level a, levels
    // 0..a-1 replay identically, so the histories agree on every event the
    // previous run recorded before decision a (frontier-spine reuse). The
    // first run shares nothing — even its work prefix replays decisions
    // some OTHER explorer took.
    size_t common_decisions = 0;
    while (true) {
      // Boundary poll: a stop already requested (or a deadline/memory
      // trigger the amortized decision-point poll has not reached yet)
      // ends the walk BETWEEN executions, with `path` untouched — the
      // cursor names the execution that never started.
      if (StopAtBoundary()) {
        report->truncated = true;
        return;
      }
      detail::DfsDriver driver(&path);
      if (!RunOnce(driver, report, por, common_decisions)) {
        // Durability stop mid-execution: RunOnce rolled its counters back,
        // and `path` still holds the aborted execution's decisions (the
        // prefix it replayed plus what it chose before the stop) — replay
        // is deterministic, so resuming from this exact path re-runs the
        // execution as if it had never been attempted.
        report->truncated = true;
        return;
      }
      ++execs_completed_;
      // max_violations ends the item exactly like an uninterrupted run
      // (finished, nothing to resume).
      const bool capped =
          report->violations.size() >= static_cast<size_t>(options_.max_violations);
      // Odometer: a run that aborted early (violation, POR prune) consumed
      // fewer decisions than the stale path holds, so first trim the path
      // to what was actually replayed.
      bool advanced = false;
      if (!capped) {
        const std::vector<size_t>& counts = driver.counts();
        PCC_ENSURE(path.size() >= counts.size(), "DFS: path shorter than counts");
        path.resize(counts.size());
        advanced = AdvanceOdometer(&path, counts, item->floor);
        // POR bookkeeping below the advanced position is stale (it
        // described subtrees of the previous sibling); the level being
        // advanced keeps its explored-sibling list, which is exactly what
        // the new sibling's sleep sets need.
        if (por != nullptr && por->size() > path.size()) {
          por->resize(path.size());
        }
      }
      if (!advanced) {
        MarkDone(item);
      }
      const bool keep = boundary();
      if (capped) {
        return;
      }
      // Budget stops: resumable whenever the subtree still has work.
      if (report->executions >= options_.max_executions || !keep) {
        report->truncated = true;
        return;
      }
      if (!advanced) {
        return;  // full bounded subtree explored
      }
      common_decisions = path.size() - 1;  // everything before the bumped level
    }
  }

  // Runs PCT executions [next run, hi) of batch `batch` — the PCT analogue
  // of RunDfsSubtree, with item->next_path = {next run} as the live cursor.
  // Each run is seeded by PctRunSeed(seed, batch, run) alone. A slice that
  // hit max_violations counts as finished — later slices still run and the
  // aggregate is trimmed, which keeps the report a pure function of the
  // item list.
  void RunPctSlice(uint64_t batch, uint64_t hi, CheckpointSubtree* item,
                   const std::function<bool()>& boundary) {
    const int depth = PctBatchDepth(batch);
    Report* report = &item->partial;
    uint64_t run = item->next_path[0];
    while (run < hi) {
      if (StopAtBoundary()) {
        report->truncated = true;
        return;
      }
      detail::PctDriver driver(detail::PctRunSeed(options_.seed, batch, run), depth,
                               options_.pct_change_budget, options_.crash_probability,
                               options_.env_probability);
      if (!RunOnce(driver, report, nullptr, /*common_decisions=*/0)) {
        report->truncated = true;
        return;
      }
      ++execs_completed_;
      item->next_path[0] = static_cast<size_t>(++run);
      const bool capped =
          report->violations.size() >= static_cast<size_t>(options_.max_violations);
      if (capped || run >= hi) {
        MarkDone(item);
      }
      const bool keep = boundary();
      if (capped) {
        return;
      }
      if (!keep) {
        report->truncated = true;
        return;
      }
    }
    MarkDone(item);
  }

  static void MarkDone(CheckpointSubtree* item) {
    item->state = CheckpointSubtree::State::kDone;
    item->next_path.clear();
    item->por_levels.clear();
  }

  // The PCT depth batch `batch` runs at: pct_depth, or — under
  // swarm_vary_depth — cycling {d-1, d, d+1} (floored at 2) so one swarm
  // sweep covers several bug depths.
  int PctBatchDepth(uint64_t batch) const {
    int d = options_.pct_depth < 1 ? 1 : options_.pct_depth;
    if (!options_.swarm_vary_depth) {
      return d;
    }
    d += static_cast<int>(batch % 3) - 1;
    return d < 2 ? 2 : d;
  }

  // POR is sound only when sibling subtrees are explored in full: PCT
  // replays nothing, and preemption bounding (itself an unsound reduction)
  // can exclude exactly the sibling order a sleep set relies on. Both
  // therefore run unreduced.
  bool PorActive() const {
    return options_.use_por && options_.mode == ExplorerOptions::Mode::kExhaustive &&
           options_.max_preemptions < 0;
  }

  // ---- Durable-run machinery ----

  // Lazily arms the durability checks: Run() is not the only entry point
  // (ParallelExplorer workers call RunItem directly), and the deadline is
  // measured from whichever entry came first. When nothing
  // durability-related is configured, durability_active_ stays false and
  // the per-decision poll is a single branch on a plain bool.
  void EnsureDurabilityInit() {
    if (durability_init_) {
      return;
    }
    durability_init_ = true;
    durability_active_ = options_.wall_deadline_ms > 0 || options_.max_memory_bytes > 0 ||
                         options_.cancel_token != nullptr || options_.cancel_after_decisions > 0;
    if (options_.wall_deadline_ms > 0) {
      deadline_ = Clock::now() + std::chrono::milliseconds(options_.wall_deadline_ms);
    }
    if (options_.max_memory_bytes > 0) {
      // Each memo cache gets a quarter of the budget with whole-shard
      // eviction (memo.h); the linearizer arena takes what remains. The
      // caps keep steady-state usage under the budget; the oom stop is the
      // backstop when the arena alone exceeds it.
      verdict_cache_->set_max_bytes(options_.max_memory_bytes / 4);
      frontier_cache_->set_max_bytes(options_.max_memory_bytes / 4);
    }
  }

  // The per-decision poll. Token and decision-count checks are O(1) every
  // call; the clock and memory walks are amortized (every 256 decisions) —
  // StopAtBoundary() forces them between executions, so coarse-grained
  // stops are never missed, only decision-granular ones delayed.
  bool StopRequested() {
    if (stop_cause_ != RunOutcome::kComplete) {
      return true;
    }
    if (options_.cancel_token != nullptr && options_.cancel_token->canceled()) {
      stop_cause_ = RunOutcome::kCanceled;
      return true;
    }
    if (options_.cancel_after_decisions > 0 &&
        decisions_total_ >= options_.cancel_after_decisions && execs_completed_ > 0) {
      stop_cause_ = RunOutcome::kCanceled;
      return true;
    }
    if ((++poll_gate_ & 0xFF) == 0) {
      return CheckDeadlineAndMemory();
    }
    return false;
  }

  bool CheckDeadlineAndMemory() {
    if (options_.wall_deadline_ms > 0 && Clock::now() >= deadline_) {
      stop_cause_ = RunOutcome::kDeadline;
      return true;
    }
    if (options_.max_memory_bytes > 0 && approx_memory_bytes() > options_.max_memory_bytes) {
      stop_cause_ = RunOutcome::kOom;
      return true;
    }
    return false;
  }

  // Execution-boundary poll: unamortized, so deadline and memory budget
  // are enforced at least once per execution even when the decision-point
  // gate never fires.
  bool StopAtBoundary() {
    if (!durability_active_) {
      return false;
    }
    if (stop_cause_ != RunOutcome::kComplete) {
      return true;
    }
    if (options_.cancel_token != nullptr && options_.cancel_token->canceled()) {
      stop_cause_ = RunOutcome::kCanceled;
      return true;
    }
    return CheckDeadlineAndMemory();
  }

  proc::Task<void> ClientThread(int client, const std::vector<Op>* ops, Instance<Spec>* inst,
                                History<Spec>* history) {
    for (const Op& op : *ops) {
      uint64_t id = history->Invoke(client, op);
      Ret ret = co_await inst->run_op(client, id, op);
      history->Return(id, ret);
    }
  }

  proc::Task<void> RecoveryThread(Instance<Spec>* inst, History<Spec>* history) {
    co_await inst->recover(history);
  }

  proc::Task<void> ProgramThread(std::function<proc::Task<void>(OpRunner<Spec>*)> program,
                                 Instance<Spec>* inst, History<Spec>* history, int client) {
    OpRunner<Spec> runner(inst, history, client);
    co_await program(&runner);
  }

  // The final observation phase: fixed ops first, then the dynamic
  // observer program, all sequentially on one thread.
  proc::Task<void> ObserverThread(Instance<Spec>* inst, History<Spec>* history, int client) {
    OpRunner<Spec> runner(inst, history, client);
    for (const Op& op : inst->observer_ops) {
      (void)co_await runner.Run(op);
    }
    if (inst->observer_program != nullptr) {
      co_await inst->observer_program(&runner);
    }
  }

  // Sleep-set transition for one taken alternative: entries whose pending
  // step conflicts with what just ran wake up (their step may now differ);
  // fully explored earlier siblings that commute with the taken step go to
  // sleep in its subtree. Only thread alternatives ever sleep.
  static void AdvanceSleepSet(std::vector<detail::SleepEntry>* sleep,
                              const detail::PorLevel& level, size_t pick,
                              const detail::Alt& alt, const proc::Footprint& taken_fp) {
    if (alt.kind == detail::AltKind::kCrash || alt.kind == detail::AltKind::kProceed) {
      // A crash kills every thread (tids are even reused by recovery), and
      // the quiescent proceed point has no runnable threads: no sleeping
      // entry can remain meaningful.
      sleep->clear();
      return;
    }
    std::vector<detail::SleepEntry> next;
    next.reserve(sleep->size() + pick);
    for (const detail::SleepEntry& e : *sleep) {
      if (!proc::FootprintsConflict(e.footprint, taken_fp)) {
        next.push_back(e);
      }
    }
    for (size_t j = 0; j < pick && j < level.tried.size(); ++j) {
      const detail::TriedAlt& t = level.tried[j];
      if (t.kind != detail::AltKind::kThread) {
        continue;
      }
      if (!proc::FootprintsConflict(t.footprint, taken_fp)) {
        next.push_back(detail::SleepEntry{t.thread, t.footprint});
      }
    }
    *sleep = std::move(next);
  }

  // `por` (the per-level POR bookkeeping) non-null activates sleep-set
  // pruning for this run (exhaustive replays only; PCT passes nullptr). `common_decisions` is the
  // caller's guarantee that this run's first decisions replay the previous
  // run's — the basis for resuming the linearizability search mid-history
  // (frontier-spine reuse) and for skipping footprint re-collection on
  // pure-replay steps.
  //
  // Returns false when a durability stop (cancel/deadline/oom) abandoned
  // the execution mid-run. Every Report counter it had touched is rolled
  // back to its entry value, so an aborted execution is indistinguishable
  // from one that never started — the caller re-runs the same decision
  // path on resume and deterministic replay reproduces it exactly.
  bool RunOnce(detail::Driver& driver, Report* report, std::vector<detail::PorLevel>* por,
               size_t common_decisions) {
    const uint64_t entry_executions = report->executions;
    const uint64_t entry_crashes = report->crashes_injected;
    const uint64_t entry_env = report->env_events_fired;
    const size_t entry_violations = report->violations.size();
    ++report->executions;
    // Events shared with the previous run: everything recorded before the
    // first differing decision. Chained through spine_valid_events_ so the
    // guarantee holds against the checker's retained spine even across
    // intermediate runs that never reached the checker (POR prunes, early
    // violations, dedup hits).
    size_t common_events = 0;
    if (common_decisions > 0) {
      PCC_ENSURE(common_decisions < prev_events_at_decision_.size(),
                 "spine reuse: shared decisions exceed the previous run");
      common_events = prev_events_at_decision_[common_decisions];
    }
    const size_t spine_reuse = std::min(spine_valid_events_, common_events);
    spine_valid_events_ = spine_reuse;  // pessimistic default; Check resets it
    prev_events_at_decision_.clear();

    Instance<Spec> inst = factory_();
    History<Spec> history;
    proc::Scheduler sched;
    proc::SchedulerScope scope(&sched);
    if (por != nullptr) {
      sched.EnableFootprintCollection(true);
    }

    for (size_t c = 0; c < inst.client_ops.size(); ++c) {
      sched.Spawn(ClientThread(static_cast<int>(c), &inst.client_ops[c], &inst, &history),
                  "client" + std::to_string(c));
    }
    for (size_t p = 0; p < inst.client_programs.size(); ++p) {
      int client = static_cast<int>(inst.client_ops.size() + p);
      sched.Spawn(ProgramThread(inst.client_programs[p], &inst, &history, client),
                  "client" + std::to_string(client));
    }
    const int observer_client =
        static_cast<int>(inst.client_ops.size() + inst.client_programs.size());
    const bool has_observers = !inst.observer_ops.empty() || inst.observer_program != nullptr;

    int crashes_used = 0;
    int preemptions_used = 0;
    proc::Scheduler::Tid last_thread = proc::Scheduler::kInvalidTid;
    std::vector<int> env_budget;
    env_budget.reserve(inst.env_events.size());
    for (const EnvEvent& e : inst.env_events) {
      env_budget.push_back(e.budget);
    }
    bool observers_started = false;
    uint64_t steps = 0;
    size_t decision_level = 0;
    std::vector<detail::SleepEntry> sleep;
    std::string trace;
    schedule_log_.clear();
    auto add_violation = [&](std::string kind, std::string detail_msg) {
      if (report->violations.size() < static_cast<size_t>(options_.max_violations)) {
        Violation v{std::move(kind), std::move(detail_msg), trace.empty() ? "(empty)" : trace,
                    schedule_log_};
        report->violations.push_back(std::move(v));
      }
    };

    // Presents `alts` (already sleep-filtered by the caller) to the driver,
    // executes nothing itself: returns the chosen index after recording the
    // trace label and step count. The history-event watermark per decision
    // feeds the next run's frontier-spine reuse.
    auto choose = [&](const std::vector<detail::Alt>& alts) -> size_t {
      prev_events_at_decision_.push_back(history.events.size());
      ++decisions_total_;
      size_t pick = driver.Choose(alts);
      PCC_ENSURE(pick < alts.size(), "driver picked an invalid alternative");
      if (!trace.empty()) {
        trace += ' ';
      }
      trace += alts[pick].label;
      schedule_log_.push_back(ScheduleDecision{alts[pick].kind, alts[pick].thread,
                                               static_cast<uint32_t>(alts[pick].env)});
      ++steps;
      return pick;
    };
    // Replay shortcut: when this decision re-takes an alternative whose
    // footprint the POR bookkeeping already holds (tried[pick] exists),
    // deterministic replay makes re-collecting it redundant — return the
    // cached footprint and disable collection for the step. A fresh
    // alternative (pick == tried.size(), including the odometer's bumped
    // level and the truncated seeds of parallel work items) collects
    // normally.
    auto replay_footprint = [&](const std::vector<detail::Alt>& alts,
                                size_t pick) -> const proc::Footprint* {
      if (por == nullptr) {
        return nullptr;
      }
      const detail::PorLevel& level = (*por)[decision_level];
      if (pick >= level.tried.size()) {
        sched.EnableFootprintCollection(true);
        return nullptr;
      }
      const detail::TriedAlt& t = level.tried[pick];
      PCC_ENSURE(t.kind == alts[pick].kind && t.thread == alts[pick].thread,
                 "POR replay divergence: cached alternative does not match");
      sched.EnableFootprintCollection(false);
      return &t.footprint;
    };
    // POR bookkeeping after the chosen alternative ran, with the footprint
    // its step produced; advances the sleep set and persists the footprint
    // for later siblings at this level.
    auto after_step = [&](const std::vector<detail::Alt>& alts, size_t pick,
                          const proc::Footprint& fp) {
      if (por == nullptr) {
        ++decision_level;
        return;
      }
      detail::PorLevel& level = (*por)[decision_level];
      if (pick == level.tried.size()) {
        level.tried.push_back(detail::TriedAlt{alts[pick].kind, alts[pick].thread, fp});
      }
      AdvanceSleepSet(&sleep, level, pick, alts[pick], fp);
      ++decision_level;
    };
    // Ensures a PorLevel exists for the current decision.
    auto ensure_level = [&] {
      if (por != nullptr && decision_level == por->size()) {
        por->emplace_back();
      }
    };

    while (true) {
      // Durability poll, once per decision point (amortized clock/memory
      // reads inside StopRequested). An abandoned execution is rolled back
      // wholesale — see the function comment.
      if (durability_active_ && StopRequested()) {
        report->executions = entry_executions;
        report->crashes_injected = entry_crashes;
        report->env_events_fired = entry_env;
        if (report->violations.size() > entry_violations) {
          report->violations.resize(entry_violations);
        }
        return false;
      }

      // Crash invariants must hold at every step (§5.1).
      if (inst.crash_invariants != nullptr) {
        if (auto broken = inst.crash_invariants->FirstViolation()) {
          add_violation("crash-invariant", "invariant '" + *broken + "' does not hold");
          report->total_steps += steps;
          return true;
        }
      }

      if (sched.AllDone()) {
        if (observers_started) {
          break;  // execution complete
        }
        // Quiescent point: every thread has finished. The durability of
        // completed operations matters precisely here, so offer one more
        // decision — proceed to observation, or inject a crash first.
        bool crash_possible = inst.recover != nullptr && crashes_used < options_.max_crashes;
        bool env_possible = false;
        for (size_t i = 0; i < inst.env_events.size(); ++i) {
          env_possible = env_possible || env_budget[i] > 0;
        }
        if (crash_possible || env_possible) {
          std::vector<detail::Alt> alts;
          alts.push_back(detail::Alt{detail::AltKind::kProceed, -1, 0, "observe"});
          if (crash_possible) {
            alts.push_back(detail::Alt{detail::AltKind::kCrash, -1, 0, "CRASH"});
          }
          for (size_t i = 0; i < inst.env_events.size(); ++i) {
            if (env_budget[i] > 0) {
              alts.push_back(detail::Alt{detail::AltKind::kEnv, -1, i, inst.env_events[i].name});
            }
          }
          ensure_level();
          size_t pick = choose(alts);
          const detail::Alt& alt = alts[pick];
          if (alt.kind == detail::AltKind::kCrash) {
            ++crashes_used;
            ++report->crashes_injected;
            history.Crash();
            sched.KillAllThreads();
            inst.world->Crash();
            sched.Spawn(RecoveryThread(&inst, &history), "recovery");
            after_step(alts, pick, proc::Footprint{});
            continue;
          }
          if (alt.kind == detail::AltKind::kEnv) {
            --env_budget[alt.env];
            ++report->env_events_fired;
            const proc::Footprint* cached = replay_footprint(alts, pick);
            sched.BeginExternalFootprint();
            inst.env_events[alt.env].fire();
            after_step(alts, pick, cached != nullptr ? *cached : sched.last_footprint());
            continue;
          }
          // fall through: proceed to observation
          after_step(alts, pick, proc::Footprint{});
        }
        observers_started = true;
        if (!has_observers) {
          break;
        }
        sched.Spawn(ObserverThread(&inst, &history, observer_client), "observer");
        continue;
      }
      if (sched.Deadlocked()) {
        add_violation("deadlock", "live threads but none runnable\n" + history.ToString());
        report->total_steps += steps;
        return true;
      }
      if (steps >= options_.max_steps_per_run) {
        add_violation("step-bound",
                      "execution exceeded " + std::to_string(options_.max_steps_per_run) +
                          " steps (possible nontermination)");
        report->total_steps += steps;
        return true;
      }

      // Build the alternatives for this decision point.
      std::vector<detail::Alt> alts;
      std::vector<proc::Scheduler::Tid> runnable = sched.RunnableThreads();
      bool last_still_runnable = false;
      for (proc::Scheduler::Tid tid : runnable) {
        last_still_runnable = last_still_runnable || tid == last_thread;
      }
      const bool preemption_exhausted =
          options_.max_preemptions >= 0 && preemptions_used >= options_.max_preemptions;
      for (proc::Scheduler::Tid tid : runnable) {
        if (preemption_exhausted && last_still_runnable && tid != last_thread) {
          continue;  // switching away now would be one preemption too many
        }
        if (por != nullptr) {
          bool asleep = false;
          for (const detail::SleepEntry& e : sleep) {
            asleep = asleep || e.thread == tid;
          }
          if (asleep) {
            continue;  // its subtree here commutes with an explored one
          }
        }
        alts.push_back(detail::Alt{detail::AltKind::kThread, tid, 0, "t" + std::to_string(tid)});
      }
      if (!observers_started && inst.recover != nullptr && crashes_used < options_.max_crashes) {
        alts.push_back(detail::Alt{detail::AltKind::kCrash, -1, 0, "CRASH"});
      }
      // Environment events (disk failures, ...) can strike at any time —
      // including while the observers probe the final state, which is how
      // §3.1's failover inconsistency ("read v, disk 1 fails, read old
      // value") becomes observable.
      for (size_t i = 0; i < inst.env_events.size(); ++i) {
        if (env_budget[i] > 0) {
          alts.push_back(detail::Alt{detail::AltKind::kEnv, -1, i, inst.env_events[i].name});
        }
      }
      if (alts.empty()) {
        // Every runnable thread is asleep and no crash/env alternative
        // remains: every continuation from here commutes with a schedule
        // the DFS already explored. Abandon the execution without a
        // history; the odometer backtracks past this node.
        PCC_ENSURE(por != nullptr, "empty alternative set without POR");
        ++report->por_pruned;
        report->total_steps += steps;
        return true;
      }

      ensure_level();
      size_t pick = choose(alts);
      const detail::Alt& alt = alts[pick];

      switch (alt.kind) {
        case detail::AltKind::kThread: {
          if (last_still_runnable && alt.thread != last_thread) {
            ++preemptions_used;
          }
          last_thread = alt.thread;
          const proc::Footprint* cached = replay_footprint(alts, pick);
          try {
            sched.Step(alt.thread);
          } catch (const UbViolation& ub) {
            add_violation("undefined-behavior", ub.what() + ("\n" + history.ToString()));
            report->total_steps += steps;
            return true;
          }
          after_step(alts, pick, cached != nullptr ? *cached : sched.last_footprint());
          break;
        }
        case detail::AltKind::kCrash: {
          ++crashes_used;
          ++report->crashes_injected;
          history.Crash();
          sched.KillAllThreads();
          inst.world->Crash();
          sched.Spawn(RecoveryThread(&inst, &history), "recovery");
          last_thread = proc::Scheduler::kInvalidTid;  // no thread survived
          after_step(alts, pick, proc::Footprint{});
          break;
        }
        case detail::AltKind::kEnv: {
          --env_budget[alt.env];
          ++report->env_events_fired;
          const proc::Footprint* cached = replay_footprint(alts, pick);
          sched.BeginExternalFootprint();
          inst.env_events[alt.env].fire();
          after_step(alts, pick, cached != nullptr ? *cached : sched.last_footprint());
          break;
        }
        case detail::AltKind::kProceed:
          PCC_ENSURE(false, "proceed alternative outside the quiescent point");
          break;
      }
    }

    report->total_steps += steps;
    ++report->histories_checked;
    checker_.set_frontier_cache(options_.memoize_spec_prefixes ? frontier_cache_ : nullptr);
    // Runs the persistent checker, resuming its retained frontier spine at
    // the deepest event this history provably shares with the spine's
    // source. After a Check the spine covers THIS history in full, so the
    // next run's guarantee is bounded only by its own shared prefix.
    auto check_history = [&]() -> std::optional<std::string> {
      std::optional<std::string> why = checker_.Check(history, spine_reuse);
      spine_valid_events_ = static_cast<size_t>(-1);
      return why;
    };
    if (options_.dedup_histories) {
      // Fingerprint pruning: identical histories get identical verdicts, so
      // replay the cached verdict instead of re-running the search. Only
      // the spec check is skipped — the execution itself (crash invariants,
      // UB, deadlock, step bound) already ran in full above.
      Hash128 fp = FingerprintHistory(history);
      std::optional<std::string> cached;
      if (verdict_cache_->Lookup(fp, &cached)) {
        ++report->histories_deduped;
        if (cached.has_value()) {
          add_violation("non-linearizable", *cached);
        }
        return true;
      }
      std::optional<std::string> why = check_history();
      verdict_cache_->Insert(fp, why, VerdictEntryBytes(why));
      if (why.has_value()) {
        add_violation("non-linearizable", *why);
      }
      report->spec_states_explored += checker_.states_explored();
      return true;
    }
    if (auto why = check_history()) {
      add_violation("non-linearizable", *why);
    }
    report->spec_states_explored += checker_.states_explored();
    return true;
  }

  Spec spec_;
  Factory factory_;
  ExplorerOptions options_;
  // The persistent linearizability checker: its frontier spine (and dedup
  // arena) carries over between executions, which is what RunOnce's
  // spine_reuse resumes into.
  LinearizabilityChecker<Spec> checker_{&spec_};
  // Events of the checker spine's source history known to coincide with the
  // NEXT run's history (chained across runs that skip the checker).
  size_t spine_valid_events_ = 0;
  // Per-decision history-event watermarks of the previous RunOnce.
  std::vector<size_t> prev_events_at_decision_;
  // Every decision of the execution currently inside RunOnce, in order —
  // copied into each Violation as its machine-replayable witness.
  std::vector<ScheduleDecision> schedule_log_;
  // Private default caches; ParallelExplorer injects shared ones.
  VerdictCache own_verdicts_;
  FrontierCache own_frontiers_;
  VerdictCache* verdict_cache_ = &own_verdicts_;
  FrontierCache* frontier_cache_ = &own_frontiers_;

  // ---- Durable-run state ----
  bool durability_init_ = false;
  bool durability_active_ = false;  // false => the per-decision poll is one branch
  RunOutcome stop_cause_ = RunOutcome::kComplete;
  // Executions completed by THIS engine (replays included) — gates the
  // cancel_after_decisions hook so every resume leg makes progress.
  uint64_t execs_completed_ = 0;
  Clock::time_point deadline_{};
  uint64_t decisions_total_ = 0;  // across every execution of this engine
  uint64_t poll_gate_ = 0;        // amortizes clock/memory reads in StopRequested
};

// The one work-item scheduler behind both engines' Run(): a claim -> run ->
// commit loop over a vector of CheckpointSubtree items (DFS subtrees or
// PCT slices; Explorer::RunItem is the only code that tells them apart).
// Explorer::Run is its one-worker case on the calling thread,
// ParallelExplorer::Run its N-worker case. The work list IS the checkpoint
// payload: resuming loads it from the file (no re-enumeration; worker
// count and split depth may differ across the interruption), checkpointing
// snapshots it, and the final Report merges it in list order — DFS order
// for subtrees, batch order for slices — so every worker count, and every
// interrupt/resume split, reports the same deterministic counters.
//
// Stops: the first cause wins and is published once into an internal
// token that ParallelExplorer's worker engines poll at decision
// granularity; each worker rolls back its in-flight execution, commits its
// item's exact resume cursor, and exits. The user's token and the wall
// deadline are forwarded at execution boundaries.
//
// Periodic checkpoints happen at execution boundaries, on one global
// execution counter: the worker that crosses the cadence writes the work
// list with its own item at its exact cursor; items other workers hold
// appear at their last committed position (re-running from there is
// sound, merely redundant). A watchdog thread, started only when
// stuck_worker_timeout_ms is set, watches for stuck workers: a worker
// that owns an item but has not completed an execution for that long gets
// flagged, a recovery checkpoint is flushed, and the run is canceled
// rather than left hanging.
template <typename Spec>
class ItemScheduler {
 public:
  // Loads options.resume_path when set (see TryResume); `verdicts` is the
  // cache the run's engines share, restored from and saved to checkpoints.
  ItemScheduler(const ExplorerOptions& options, VerdictCache* verdicts)
      : options_(options),
        verdicts_(verdicts),
        deadline_(Clock::now() + std::chrono::milliseconds(options.wall_deadline_ms)) {
    resumed_ = TryResume();
  }

  bool resumed() const { return resumed_; }
  // The work list; set it before Run() unless resumed().
  std::vector<CheckpointSubtree>& items() { return items_; }
  // The internal stop token worker engines should poll.
  CancelToken* cancel_token() { return &cancel_; }

  // First stop wins; later causes (typically the cascaded kCanceled the
  // internal token induces in every other worker) keep the original tag.
  void RequestStop(RunOutcome cause) {
    RunOutcome expected = RunOutcome::kComplete;
    cause_.compare_exchange_strong(expected, cause, std::memory_order_relaxed);
    cancel_.RequestCancel();
  }

  // Runs work(w) for each of `workers` workers — a single worker on the
  // calling thread, several each on a thread of their own — then writes the
  // final checkpoint (on completion too, so a finished file resumes to the
  // full report) and merges the items.
  Report Run(int workers, const std::function<void(int)>& work) {
    workers_ = std::vector<WorkerState>(static_cast<size_t>(workers));
    {
      // Both join on scope exit, exceptions included: the pool first, then
      // the watchdog, whose destructor first requests its stop.
      std::jthread watchdog;
      if (options_.stuck_worker_timeout_ms > 0) {
        watchdog = std::jthread([this](std::stop_token stop) { Watchdog(stop); });
      }
      std::vector<std::jthread> pool;
      if (workers == 1) {
        work(0);
      } else {
        for (int w = 0; w < workers; ++w) {
          pool.emplace_back(work, w);
        }
      }
    }
    {
      std::scoped_lock lock(ckpt_mu_);
      WriteCheckpoint();
    }
    Report aggregate;
    aggregate.resumed = resumed_;
    for (const CheckpointSubtree& item : items_) {
      MergeReport(&aggregate, item.partial);
    }
    TrimReportViolations(&aggregate, options_.max_violations);
    aggregate.outcome = cause_.load(std::memory_order_relaxed);
    return aggregate;
  }

  // Worker w's loop: claim the next item (lock-free cursor), run a private
  // copy of it on `engine`, commit it back under state_mu_.
  void Work(int w, Explorer<Spec>& engine) {
    WorkerState& me = workers_[static_cast<size_t>(w)];
    while (!StopRequested() && !budget_exhausted_.load(std::memory_order_relaxed)) {
      const size_t i = next_item_.fetch_add(1, std::memory_order_relaxed);
      if (i >= items_.size()) {
        break;
      }
      CheckpointSubtree item;
      {
        std::scoped_lock lock(state_mu_);
        if (items_[i].state == CheckpointSubtree::State::kDone) {
          continue;  // restored from a checkpoint fully explored
        }
        item = items_[i];
      }
      me.active.store(i + 1, std::memory_order_relaxed);
      ExplorerProgress seen = Counts(item.partial);
      engine.RunItem(&item, [&] { return AtBoundary(&me, i, item, &seen); });
      {
        std::scoped_lock lock(state_mu_);
        items_[i] = std::move(item);
      }
      me.active.store(0, std::memory_order_relaxed);
      if (engine.stop_cause() != RunOutcome::kComplete) {
        // The engine detected a stop itself (deadline/memory mid-
        // execution, or a token); it is sticky-stopped, so publish the
        // cause and retire this worker.
        RequestStop(engine.stop_cause());
        break;
      }
    }
  }

 private:
  using Clock = std::chrono::steady_clock;

  // Per-worker liveness for the watchdog: the heartbeat ticks once per
  // completed execution; `active` holds (item index + 1) while the worker
  // owns an item.
  struct WorkerState {
    std::atomic<uint64_t> heartbeat{0};
    std::atomic<size_t> active{0};
  };

  static ExplorerProgress Counts(const Report& r) {
    return ExplorerProgress{r.executions,        r.total_steps,
                            r.violations.size(), r.histories_checked,
                            r.histories_deduped, r.por_pruned};
  }

  bool StopRequested() const {
    return cause_.load(std::memory_order_relaxed) != RunOutcome::kComplete;
  }

  // Called by worker `me` after every execution of item `i` completes, with
  // `item` (its private copy) already naming the next execution. Folds the
  // item's growth since the last boundary (`seen`) into the run totals,
  // then takes a due periodic checkpoint, fires the progress callback,
  // forwards the user's token and the deadline, and applies the run-wide
  // execution budget. Returns false to stop the item.
  bool AtBoundary(WorkerState* me, size_t i, const CheckpointSubtree& item,
                  ExplorerProgress* seen) {
    me->heartbeat.fetch_add(1, std::memory_order_relaxed);
    auto add = [](std::atomic<uint64_t>& total, uint64_t now, uint64_t* last) {
      const uint64_t grown = now - *last;
      *last = now;
      return total.fetch_add(grown, std::memory_order_relaxed) + grown;
    };
    const Report& r = item.partial;
    const ExplorerProgress totals{
        add(executions_, r.executions, &seen->executions),
        add(steps_, r.total_steps, &seen->total_steps),
        add(violations_, r.violations.size(), &seen->violations),
        add(checked_, r.histories_checked, &seen->histories_checked),
        add(deduped_, r.histories_deduped, &seen->histories_deduped),
        add(pruned_, r.por_pruned, &seen->por_pruned)};
    if (!options_.checkpoint_path.empty() && options_.checkpoint_every_execs > 0) {
      std::scoped_lock lock(ckpt_mu_);
      if (totals.executions >= last_ckpt_execs_ + options_.checkpoint_every_execs) {
        WriteCheckpoint(i, &item);
      }
    }
    if (options_.progress_callback != nullptr && options_.progress_interval > 0 &&
        totals.executions % options_.progress_interval == 0) {
      std::scoped_lock lock(progress_mu_);
      options_.progress_callback(totals);
    }
    if (options_.cancel_token != nullptr && options_.cancel_token->canceled()) {
      RequestStop(RunOutcome::kCanceled);
    }
    if (options_.wall_deadline_ms > 0 && Clock::now() >= deadline_) {
      RequestStop(RunOutcome::kDeadline);
    }
    // The DFS safety cap, run-wide (each DFS item also applies it to its
    // own report); PCT runs are bounded by random_runs alone.
    if (options_.mode == ExplorerOptions::Mode::kExhaustive &&
        totals.executions >= options_.max_executions) {
      budget_exhausted_.store(true, std::memory_order_relaxed);
      return false;
    }
    return !StopRequested();
  }

  // Loads options_.resume_path if set and valid: the work list and the
  // verdict cache. Any rejection (torn, corrupt, version bump, config
  // mismatch) warns on stderr and returns false — the caller starts from
  // scratch, which is always sound.
  bool TryResume() {
    if (options_.resume_path.empty()) {
      return false;
    }
    CheckpointData data;
    Status st = LoadCheckpoint(options_.resume_path, ExplorationConfigFp(options_), &data);
    if (!st.ok()) {
      std::fprintf(stderr, "[explorer] resume rejected, starting fresh: %s\n",
                   st.ToString().c_str());
      return false;
    }
    items_ = std::move(data.subtrees);
    for (CheckpointSubtree& item : items_) {
      // The interruption is healed by resuming: the final report's
      // truncated/outcome reflect THIS run, not the interrupted one.
      item.partial.truncated = false;
      item.partial.outcome = RunOutcome::kComplete;
    }
    for (const auto& [fp, verdict] : data.verdicts) {
      verdicts_->Insert(fp, verdict, VerdictEntryBytes(verdict));
    }
    return true;
  }

  // Writes the work list as committed so far, with `live` — the calling
  // worker's in-flight copy of item `i`, if any — at its exact cursor.
  // Caller holds ckpt_mu_.
  void WriteCheckpoint(size_t i = 0, const CheckpointSubtree* live = nullptr) {
    if (options_.checkpoint_path.empty()) {
      return;
    }
    CheckpointData data;
    data.config_fp = ExplorationConfigFp(options_);
    data.parallel = workers_.size() > 1;
    data.outcome = cause_.load(std::memory_order_relaxed);
    {
      std::scoped_lock lock(state_mu_);
      data.subtrees = items_;
    }
    if (live != nullptr) {
      data.subtrees[i] = *live;
    }
    if (options_.dedup_histories) {
      verdicts_->ForEach([&](const Hash128& fp, const std::optional<std::string>& verdict) {
        data.verdicts.emplace_back(fp, verdict);
      });
    }
    Status st = SaveCheckpoint(options_.checkpoint_path, data);
    if (!st.ok()) {
      std::fprintf(stderr, "[explorer] checkpoint write failed: %s\n", st.ToString().c_str());
    }
    last_ckpt_execs_ = executions_.load(std::memory_order_relaxed);
  }

  void Watchdog(const std::stop_token& stop) {
    const uint64_t timeout_ms = options_.stuck_worker_timeout_ms;
    const auto tick = std::chrono::milliseconds(std::min<uint64_t>(
        1000, std::max<uint64_t>(timeout_ms / 4, 5)));
    std::vector<uint64_t> last_hb(workers_.size(), 0);
    std::vector<Clock::time_point> last_beat(workers_.size(), Clock::now());
    std::vector<bool> flagged(workers_.size(), false);
    std::mutex mu;
    std::condition_variable_any wake;
    std::unique_lock wait_lock(mu);
    while (!wake.wait_for(wait_lock, stop, tick, [&] { return stop.stop_requested(); })) {
      const Clock::time_point now = Clock::now();
      for (size_t w = 0; w < workers_.size(); ++w) {
        const uint64_t hb = workers_[w].heartbeat.load(std::memory_order_relaxed);
        const size_t active = workers_[w].active.load(std::memory_order_relaxed);
        if (active == 0 || hb != last_hb[w]) {
          last_hb[w] = hb;
          last_beat[w] = now;
          flagged[w] = false;
          continue;
        }
        if (!flagged[w] && now - last_beat[w] >= std::chrono::milliseconds(timeout_ms)) {
          flagged[w] = true;
          std::fprintf(stderr,
                       "[explorer] worker %zu stuck on item %zu for %llu ms; "
                       "flushing recovery checkpoint and canceling\n",
                       w, active - 1, static_cast<unsigned long long>(timeout_ms));
          {
            std::scoped_lock lock(ckpt_mu_);
            WriteCheckpoint();
          }
          RequestStop(RunOutcome::kCanceled);
        }
      }
    }
  }

  const ExplorerOptions& options_;
  VerdictCache* verdicts_;
  const Clock::time_point deadline_;
  bool resumed_ = false;
  // Guards every CheckpointSubtree in items_ once workers run: workers
  // commit under it, checkpoint snapshots copy under it. Claiming is the
  // lock-free next_item_ cursor.
  std::mutex state_mu_;
  std::vector<CheckpointSubtree> items_;
  std::atomic<size_t> next_item_{0};
  std::vector<WorkerState> workers_;
  std::atomic<RunOutcome> cause_{RunOutcome::kComplete};
  CancelToken cancel_;
  std::atomic<bool> budget_exhausted_{false};
  // Run totals: each worker adds its item report's growth per execution.
  std::atomic<uint64_t> executions_{0};
  std::atomic<uint64_t> steps_{0};
  std::atomic<uint64_t> violations_{0};
  std::atomic<uint64_t> checked_{0};
  std::atomic<uint64_t> deduped_{0};
  std::atomic<uint64_t> pruned_{0};
  std::mutex progress_mu_;  // one progress_callback caller at a time
  std::mutex ckpt_mu_;      // one checkpoint writer at a time; guards last_ckpt_execs_
  uint64_t last_ckpt_execs_ = 0;
};

}  // namespace perennial::refine

#endif  // PERENNIAL_SRC_REFINE_EXPLORER_H_
