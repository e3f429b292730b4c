// PCT randomized exploration and swarm mode (the tier2-pct suite):
// priority-based random testing is a REPRODUCIBLE mode, so everything it
// reports must be a pure function of (seed, config) — never of worker
// count, chunk boundaries, or interruption points.
//
// The suite asserts:
//   * bit-identical reports: the same seed+config produces field-for-field
//     identical Reports from the serial engine and ParallelExplorer at
//     1/2/4 workers, for plain PCT and for swarm mode (many seed batches),
//     including run counts that do not align with the work-item chunk size;
//   * checkpoint/resume: a swarm interrupted every k decisions and resumed
//     from its checkpoint file converges to the uninterrupted report;
//   * bug-finding power: for every pct_suite.h deep bug, bounded DFS at
//     the calibrated budget truncates with ZERO violations while PCT d=3
//     finds the bug within the same budget for every suite seed, and a
//     4-way swarm splitting that budget finds it too;
//   * PCT crash/env draw paths (regression for the quiescent-point crash
//     bias): crash_probability=0 injects no crashes, env_probability=0
//     fires no env events, and the positive-probability variants do;
//   * a PCT-found violation minimizes to a 1-minimal replayable witness
//     (the end-to-end find -> shrink -> replay pipeline).
//
// Like the other tier2 suites this one is also meant to run under
// -DPCC_SANITIZE=thread: swarm work distribution and the shared memo
// caches are the cross-worker state PCT mode adds.
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench/pct_suite.h"
#include "src/refine/explorer.h"
#include "src/refine/minimize.h"
#include "src/refine/parallel_explorer.h"
#include "src/systems/repl/repl_harness.h"

namespace perennial::systems {
namespace {

using refine::Explorer;
using refine::ExplorerOptions;
using refine::ParallelExplorer;
using refine::Report;
using refine::RunOutcome;

void ExpectReportsEqual(const Report& got, const Report& want) {
  EXPECT_EQ(got.executions, want.executions);
  EXPECT_EQ(got.total_steps, want.total_steps);
  EXPECT_EQ(got.crashes_injected, want.crashes_injected);
  EXPECT_EQ(got.env_events_fired, want.env_events_fired);
  EXPECT_EQ(got.histories_checked, want.histories_checked);
  EXPECT_EQ(got.spec_states_explored, want.spec_states_explored);
  ASSERT_EQ(got.violations.size(), want.violations.size())
      << got.Summary() << "\nvs\n" << want.Summary();
  for (size_t i = 0; i < want.violations.size(); ++i) {
    EXPECT_EQ(got.violations[i].kind, want.violations[i].kind) << "violation " << i;
    EXPECT_EQ(got.violations[i].detail, want.violations[i].detail) << "violation " << i;
    EXPECT_EQ(got.violations[i].trace, want.violations[i].trace) << "violation " << i;
    EXPECT_EQ(got.violations[i].schedule == want.violations[i].schedule, true)
        << "violation " << i << ": recorded schedules differ";
  }
}

// The workload all determinism tests share: the deadlock suite entry with
// the violation cap lifted and dedup off, so every counter is comparable.
// random_runs deliberately not a multiple of the 64-run chunk, so the last
// work item is short.
ExplorerOptions DeterminismOptions(uint64_t seed, uint64_t runs, uint64_t swarm) {
  ExplorerOptions opts;
  opts.mode = ExplorerOptions::Mode::kPct;
  opts.max_crashes = 0;
  opts.max_violations = 1 << 20;
  opts.dedup_histories = false;
  opts.random_runs = runs;
  opts.seed = seed;
  opts.pct_depth = kPctSuiteDepth;
  opts.pct_change_budget = kPctSuiteChangeBudget;
  opts.swarm_seeds = swarm;
  opts.env_probability = 0.05;
  return opts;
}

template <typename Visit>
void WithDeadlockEntry(Visit&& visit) {
  bool seen = false;
  ForEachDeepBug([&](const DeepBugInfo& info, auto spec, auto factory) {
    if (std::string(info.slug) == "pct-kv-deadlock-deep") {
      seen = true;
      visit(info, spec, factory);
    }
  });
  ASSERT_TRUE(seen);
}

// ---------- Bit-identical reports: serial vs parallel, PCT and swarm ----------

TEST(PctDeterminism, SerialParallelBitIdentical) {
  WithDeadlockEntry([](const DeepBugInfo&, auto spec, auto factory) {
    ExplorerOptions opts = DeterminismOptions(/*seed=*/7, /*runs=*/300, /*swarm=*/0);
    using Spec = decltype(spec);
    Report serial = Explorer<Spec>(spec, factory, opts).Run();
    EXPECT_GT(serial.violations.size(), 0u) << serial.Summary();
    for (int workers : {1, 2, 4}) {
      SCOPED_TRACE("workers=" + std::to_string(workers));
      ExplorerOptions popts = opts;
      popts.num_workers = workers;
      Report parallel = ParallelExplorer<Spec>(spec, factory, popts).Run();
      ExpectReportsEqual(parallel, serial);
    }
  });
}

TEST(PctDeterminism, SwarmSerialParallelBitIdentical) {
  WithDeadlockEntry([](const DeepBugInfo&, auto spec, auto factory) {
    ExplorerOptions opts = DeterminismOptions(/*seed=*/3, /*runs=*/100, /*swarm=*/4);
    opts.swarm_vary_depth = true;  // batches cycle pct_depth too
    using Spec = decltype(spec);
    Report serial = Explorer<Spec>(spec, factory, opts).Run();
    EXPECT_GT(serial.executions, 0u);
    for (int workers : {2, 4}) {
      SCOPED_TRACE("workers=" + std::to_string(workers));
      ExplorerOptions popts = opts;
      popts.num_workers = workers;
      Report parallel = ParallelExplorer<Spec>(spec, factory, popts).Run();
      ExpectReportsEqual(parallel, serial);
    }
  });
}

TEST(PctDeterminism, SeedIsLoadBearing) {
  // Different seeds must actually change the sampled schedules; equal
  // reports would mean the per-run seed derivation ignores options_.seed.
  WithDeadlockEntry([](const DeepBugInfo&, auto spec, auto factory) {
    using Spec = decltype(spec);
    Report a = Explorer<Spec>(spec, factory, DeterminismOptions(1, 300, 0)).Run();
    Report b = Explorer<Spec>(spec, factory, DeterminismOptions(2, 300, 0)).Run();
    EXPECT_EQ(a.executions, b.executions);
    EXPECT_NE(a.total_steps, b.total_steps)
        << "seed 1 and seed 2 sampled identical schedules";
  });
}

// ---------- Checkpoint/resume mid-swarm ----------

TEST(PctCheckpoint, InterruptedSwarmConvergesToUninterrupted) {
  WithDeadlockEntry([](const DeepBugInfo&, auto spec, auto factory) {
    using Spec = decltype(spec);
    ExplorerOptions base = DeterminismOptions(/*seed=*/5, /*runs=*/80, /*swarm=*/4);
    Report want = Explorer<Spec>(spec, factory, base).Run();
    ASSERT_EQ(want.outcome, RunOutcome::kComplete);

    const std::string path = ::testing::TempDir() + "pct_swarm_resume.ckpt";
    std::remove(path.c_str());
    ExplorerOptions opts = base;
    opts.checkpoint_path = path;
    opts.cancel_after_decisions = 400;
    Report r = Explorer<Spec>(spec, factory, opts).Run();
    int legs = 1;
    opts.resume_path = path;
    while (r.outcome != RunOutcome::kComplete && legs < 2000) {
      ASSERT_EQ(r.outcome, RunOutcome::kCanceled) << r.Summary();
      EXPECT_TRUE(r.truncated);
      r = Explorer<Spec>(spec, factory, opts).Run();
      ++legs;
    }
    ASSERT_EQ(r.outcome, RunOutcome::kComplete) << "chain did not converge: " << r.Summary();
    EXPECT_GE(legs, 2) << "cancel_after_decisions never fired; workload too small?";
    ExpectReportsEqual(r, want);
    std::remove(path.c_str());
  });
}

TEST(PctCheckpoint, SerialInterruptParallelResume) {
  // Work items are engine-agnostic: a swarm interrupted under the serial
  // engine finishes under ParallelExplorer with the identical report.
  WithDeadlockEntry([](const DeepBugInfo&, auto spec, auto factory) {
    using Spec = decltype(spec);
    ExplorerOptions base = DeterminismOptions(/*seed=*/9, /*runs=*/80, /*swarm=*/2);
    Report want = Explorer<Spec>(spec, factory, base).Run();

    const std::string path = ::testing::TempDir() + "pct_cross_resume.ckpt";
    std::remove(path.c_str());
    ExplorerOptions first = base;
    first.checkpoint_path = path;
    first.cancel_after_decisions = 600;
    Report partial = Explorer<Spec>(spec, factory, first).Run();
    ASSERT_EQ(partial.outcome, RunOutcome::kCanceled) << partial.Summary();

    ExplorerOptions rest = base;
    rest.resume_path = path;
    rest.checkpoint_path = path;
    rest.num_workers = 4;
    Report resumed = ParallelExplorer<Spec>(spec, factory, rest).Run();
    int legs = 2;
    while (resumed.outcome != RunOutcome::kComplete && legs < 2000) {
      resumed = ParallelExplorer<Spec>(spec, factory, rest).Run();
      ++legs;
    }
    ASSERT_EQ(resumed.outcome, RunOutcome::kComplete) << resumed.Summary();
    ExpectReportsEqual(resumed, want);
    std::remove(path.c_str());
  });
}

// ---------- PCT draw-path regressions ----------

// The repl recovery_zeroes bug needs a crash to manifest; with the crash
// probability pinned to zero the sample must never inject one. This is the
// regression for the quiescent-point bias, where the observe-vs-crash
// fallback used to flip a fair coin regardless of crash_probability.
TEST(PctDrawRegression, ZeroCrashProbabilityInjectsNoCrashes) {
  ReplHarnessOptions options;
  options.num_blocks = 1;
  options.client_ops = {{ReplSpec::MakeWrite(0, 5)}};
  options.mutations.recovery_zeroes = true;
  auto factory = [&] { return MakeReplInstance(options); };
  ExplorerOptions opts;
  opts.mode = ExplorerOptions::Mode::kPct;
  opts.max_crashes = 1;
  opts.max_violations = 1 << 20;
  opts.random_runs = 200;
  opts.seed = 11;
  opts.crash_probability = 0.0;
  Report none = Explorer<ReplSpec>(ReplSpec{1}, factory, opts).Run();
  EXPECT_EQ(none.crashes_injected, 0u) << none.Summary();
  EXPECT_TRUE(none.ok()) << "violation without a crash in a crash-only bug:\n" << none.Summary();

  opts.crash_probability = 0.5;
  Report some = Explorer<ReplSpec>(ReplSpec{1}, factory, opts).Run();
  EXPECT_GT(some.crashes_injected, 0u);
  EXPECT_FALSE(some.ok()) << "crashing sample missed the recovery_zeroes bug";
}

TEST(PctDrawRegression, ZeroEnvProbabilityFiresNoEvents) {
  // Single-candidate env draws: exactly one env alternative (the disk-1
  // failure event) is on offer, so any bias in the declined-draw fallback
  // would fire it spuriously.
  ReplHarnessOptions options;
  options.num_blocks = 1;
  options.client_ops = {{ReplSpec::MakeWrite(0, 5)}, {ReplSpec::MakeRead(0)}};
  options.with_disk1_failure_event = true;
  auto factory = [&] { return MakeReplInstance(options); };
  ExplorerOptions opts;
  opts.mode = ExplorerOptions::Mode::kPct;
  opts.max_crashes = 0;
  opts.max_violations = 1 << 20;
  opts.random_runs = 100;
  opts.seed = 11;
  opts.env_probability = 0.0;
  Report none = Explorer<ReplSpec>(ReplSpec{1}, factory, opts).Run();
  EXPECT_EQ(none.env_events_fired, 0u) << none.Summary();

  opts.env_probability = 1.0;
  Report all = Explorer<ReplSpec>(ReplSpec{1}, factory, opts).Run();
  EXPECT_GT(all.env_events_fired, 0u);
}

// Both probabilities pinned to zero at once, on the crash-only bug.
TEST(PctDrawRegression, PctRespectsZeroProbabilities) {
  ReplHarnessOptions options;
  options.num_blocks = 1;
  options.client_ops = {{ReplSpec::MakeWrite(0, 5)}};
  options.mutations.recovery_zeroes = true;
  auto factory = [&] { return MakeReplInstance(options); };
  ExplorerOptions opts;
  opts.mode = ExplorerOptions::Mode::kPct;
  opts.max_crashes = 1;
  opts.max_violations = 1 << 20;
  opts.random_runs = 200;
  opts.seed = 11;
  opts.crash_probability = 0.0;
  opts.env_probability = 0.0;
  Report r = Explorer<ReplSpec>(ReplSpec{1}, factory, opts).Run();
  EXPECT_EQ(r.crashes_injected, 0u) << r.Summary();
  EXPECT_EQ(r.env_events_fired, 0u) << r.Summary();
}

// ---------- Bug-finding power: DFS misses, PCT and swarm find ----------

TEST(PctFindsDeepBugs, DfsMissesAtEqualBudget) {
  ForEachDeepBug([](const DeepBugInfo& info, auto spec, auto factory) {
    SCOPED_TRACE(info.slug);
    using Spec = decltype(spec);
    Report dfs = Explorer<Spec>(spec, factory, DfsSuiteOptions(info)).Run();
    EXPECT_TRUE(dfs.truncated) << info.slug << ": DFS budget not exhausted — recalibrate\n"
                               << dfs.Summary();
    EXPECT_EQ(dfs.violations.size(), 0u)
        << info.slug << ": bounded DFS found the bug; it is not deep enough\n" << dfs.Summary();
    EXPECT_EQ(dfs.executions, info.budget);
  });
}

TEST(PctFindsDeepBugs, PctFindsWithinBudgetForEverySeed) {
  ForEachDeepBug([](const DeepBugInfo& info, auto spec, auto factory) {
    using Spec = decltype(spec);
    for (uint64_t seed : kPctSuiteSeeds) {
      SCOPED_TRACE(std::string(info.slug) + " seed=" + std::to_string(seed));
      Report pct = Explorer<Spec>(spec, factory, PctSuiteOptions(info, seed)).Run();
      ASSERT_GE(pct.violations.size(), 1u)
          << info.slug << ": PCT missed the bug at its calibrated budget\n" << pct.Summary();
      EXPECT_EQ(pct.violations[0].kind, info.kind);
      EXPECT_FALSE(pct.violations[0].schedule.empty());
    }
  });
}

TEST(PctFindsDeepBugs, SwarmSplitsBudgetAndStillFinds) {
  ForEachDeepBug([](const DeepBugInfo& info, auto spec, auto factory) {
    SCOPED_TRACE(info.slug);
    using Spec = decltype(spec);
    ExplorerOptions opts = PctSuiteOptions(info, /*seed=*/1);
    opts.swarm_seeds = 4;
    opts.random_runs = info.budget / 4;  // same total executions as plain PCT
    Report swarm = ParallelExplorer<Spec>(spec, factory, opts).Run();
    ASSERT_GE(swarm.violations.size(), 1u)
        << info.slug << ": 4-way swarm missed the bug at the shared budget\n" << swarm.Summary();
    EXPECT_EQ(swarm.violations[0].kind, info.kind);
  });
}

// ---------- End-to-end: PCT finds, minimizer shrinks, replay confirms ----------

TEST(PctMinimizePipeline, DeadlockWitnessShrinksToMinimalCore) {
  WithDeadlockEntry([](const DeepBugInfo& info, auto spec, auto factory) {
    using Spec = decltype(spec);
    ExplorerOptions opts = PctSuiteOptions(info, /*seed=*/1);
    Report pct = Explorer<Spec>(spec, factory, opts).Run();
    ASSERT_GE(pct.violations.size(), 1u);
    const refine::Violation& seed = pct.violations[0];

    refine::MinimizeResult m = MinimizeSchedule(spec, factory, opts, seed);
    ASSERT_TRUE(m.reproduced);
    EXPECT_EQ(m.violation.kind, seed.kind);
    EXPECT_LE(m.schedule.size(), seed.schedule.size());

    Explorer<Spec> engine(spec, factory, opts);
    Report replay = engine.ReplaySchedule(m.schedule);
    ASSERT_FALSE(replay.ok());
    EXPECT_EQ(replay.violations[0].kind, seed.kind);
    for (size_t i = 0; i < m.schedule.size(); ++i) {
      std::vector<refine::ScheduleDecision> cand = m.schedule;
      cand.erase(cand.begin() + i);
      Report r = engine.ReplaySchedule(cand);
      const bool still = !r.violations.empty() && r.violations[0].kind == seed.kind;
      EXPECT_FALSE(still) << "not 1-minimal at decision " << i;
    }
  });
}

}  // namespace
}  // namespace perennial::systems
