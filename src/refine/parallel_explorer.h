// Multi-threaded refinement checking: the explorer's work-item scheduler
// (ItemScheduler in explorer.h) with a pool of OS worker threads.
//
// Where Explorer::Run walks its work list with one worker, the
// ParallelExplorer splits the decision tree by decision-path *prefix*:
//
//   1. A coordinator replays the first `split_depth` decision levels
//      (Explorer::EnumerateSubtreePrefixes) and emits one work item per
//      reachable prefix, in DFS order. Prefixes are mutually disjoint and
//      jointly exhaustive, so the work items partition the execution space.
//      PCT/swarm runs use Explorer::BuildPctItems instead — (batch,
//      run-range) slices whose per-run seeds are pure functions of (seed,
//      batch, run) — the same list the serial engine builds.
//   2. Each worker owns a private Explorer — and therefore its own
//      Instance, Scheduler, and World — and runs its claimed items through
//      Explorer::RunItem. This is safe precisely because Instance factories
//      are required to be deterministic: replaying a prefix reconstructs
//      the same execution on any thread. The verdict and spec-frontier
//      caches (memo.h) are the exception: they are shared across workers,
//      which is sound because cached values are pure functions of their
//      fingerprints — sharing only changes WHO pays for a check, never its
//      outcome.
//   3. Per-item Reports are merged in item (= DFS / batch) order, so the
//      aggregate is deterministic regardless of thread timing: executions,
//      steps, crash counts, and the violation *sequence* are bit-identical
//      to the serial Explorer whenever the serial run does not stop early
//      (max_violations larger than the total violation count, no
//      max_executions truncation), and always for PCT (dedup counters
//      excepted). With early stopping, the first max_violations violations
//      still match the serial ones — each subtree contributes at most its
//      first max_violations violations, and the merged list is truncated
//      to the global first max_violations — but the execution count is
//      larger because workers cannot know about violations in other
//      subtrees.
//
// Durable runs (checkpoint.h) are the scheduler's: checkpoints, resume,
// stop fan-out and the stuck-worker watchdog work the same for any worker
// count, and checkpoints of either engine resume on either. Worker engines
// poll the scheduler's internal stop token instead of the user's, so a
// stop detected anywhere drains every worker at decision granularity.
#ifndef PERENNIAL_SRC_REFINE_PARALLEL_EXPLORER_H_
#define PERENNIAL_SRC_REFINE_PARALLEL_EXPLORER_H_

#include <algorithm>
#include <utility>
#include <vector>

#include "src/refine/checkpoint.h"
#include "src/refine/explorer.h"
#include "src/refine/memo.h"
#include "src/refine/run_state.h"

namespace perennial::refine {

template <typename Spec>
class ParallelExplorer {
 public:
  using Factory = typename Explorer<Spec>::Factory;

  // `factory` is invoked concurrently from worker threads; it must be
  // thread-safe in addition to deterministic (the harness factories in
  // src/systems/ qualify: they only read their options struct and build
  // fresh objects).
  ParallelExplorer(Spec spec, Factory factory, ExplorerOptions options)
      : spec_(std::move(spec)), factory_(std::move(factory)), options_(options) {}

  Report Run() {
    // Caches shared across the probe and every worker: a history (or history
    // prefix) checked by one thread is a cache hit for all. Verdicts and
    // frontiers are pure functions of their fingerprint, so cross-thread
    // sharing cannot change any verdict — only Report::histories_deduped
    // becomes timing-dependent (which worker reaches a fingerprint first).
    VerdictCache verdicts;
    typename Explorer<Spec>::FrontierCache frontiers;
    ItemScheduler<Spec> scheduler(options_, &verdicts);
    // cancel_after_decisions counts one engine's decisions: a serial hook.
    ExplorerOptions engine_options = options_;
    engine_options.cancel_after_decisions = 0;
    bool enumeration_truncated = false;
    if (!scheduler.resumed()) {
      // The probe runs before any worker exists, so it polls the USER's
      // cancel token (plus its own deadline/memory budget).
      Explorer<Spec> probe(spec_, factory_, engine_options);
      probe.set_verdict_cache(&verdicts);
      probe.set_frontier_cache(&frontiers);
      // Clamp like num_workers: a non-positive depth degenerates to one
      // subtree (the whole tree) rather than tripping the probe's
      // precondition.
      scheduler.items() = options_.mode == ExplorerOptions::Mode::kPct
                              ? probe.BuildPctItems()
                              : probe.EnumerateSubtreePrefixes(
                                    options_.split_depth > 0 ? options_.split_depth : 0,
                                    &enumeration_truncated);
      if (probe.stop_cause() != RunOutcome::kComplete) {
        // A durability stop during enumeration: the partition is unusable
        // (its prefixes may not be exhaustive), so the whole tree becomes
        // one pending item — nothing explored yet, everything resumable.
        scheduler.items().assign(1, CheckpointSubtree{});
        scheduler.RequestStop(probe.stop_cause());
        enumeration_truncated = true;
      }
    }
    engine_options.cancel_token = scheduler.cancel_token();
    int workers = options_.num_workers > 0 ? options_.num_workers : 1;
    if (static_cast<size_t>(workers) > scheduler.items().size()) {
      workers = std::max(1, static_cast<int>(scheduler.items().size()));
    }
    Report report = scheduler.Run(workers, [&](int w) {
      Explorer<Spec> engine(spec_, factory_, engine_options);
      engine.set_verdict_cache(&verdicts);
      engine.set_frontier_cache(&frontiers);
      scheduler.Work(w, engine);
    });
    report.truncated = report.truncated || enumeration_truncated;
    return report;
  }

 private:
  Spec spec_;
  Factory factory_;
  ExplorerOptions options_;
};

}  // namespace perennial::refine

#endif  // PERENNIAL_SRC_REFINE_PARALLEL_EXPLORER_H_
