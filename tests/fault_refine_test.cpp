// Fault placements under the refinement checker (the tier2-faults suite):
//   * serial DFS and ParallelExplorer agree execution-for-execution when the
//     decision tree contains AltKind::kEnv fault alternatives;
//   * systems written with retry + write barriers pass with crashes AND
//     injected faults; the seeded-bug variants (missing retry in the
//     replicated disk, missing barrier in the txn log) are caught;
//   * retry/backoff is deterministic under the DFS scheduler;
//   * PctDriver's env single-candidate guard keeps seed streams stable.
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/rand.h"
#include "src/refine/explorer.h"
#include "src/refine/parallel_explorer.h"
#include "src/systems/repl/repl_harness.h"
#include "src/systems/txnlog/txn_harness.h"

namespace perennial::systems {
namespace {

using refine::Explorer;
using refine::ExplorerOptions;
using refine::ParallelExplorer;
using refine::Report;

// Mirrors parallel_refine_test's equivalence helper, additionally pinning
// env_events_fired: fault placements are decisions, so the parallel
// partition must fire exactly the serial set of them.
template <typename Spec, typename Factory>
void ExpectFaultEquivalence(Spec spec, Factory factory, ExplorerOptions opts) {
  opts.max_violations = 1 << 20;
  Explorer<Spec> serial(spec, factory, opts);
  Report s = serial.Run();
  ASSERT_FALSE(s.truncated) << "workload too large for equivalence testing: " << s.Summary();
  for (int workers : {1, 2, 4}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    ExplorerOptions popts = opts;
    popts.num_workers = workers;
    ParallelExplorer<Spec> parallel(spec, factory, popts);
    Report p = parallel.Run();
    EXPECT_EQ(p.executions, s.executions);
    EXPECT_EQ(p.total_steps, s.total_steps);
    EXPECT_EQ(p.crashes_injected, s.crashes_injected);
    EXPECT_EQ(p.env_events_fired, s.env_events_fired);
    EXPECT_EQ(p.histories_checked, s.histories_checked);
    ASSERT_EQ(p.violations.size(), s.violations.size()) << p.Summary() << "\nvs\n" << s.Summary();
    for (size_t i = 0; i < s.violations.size(); ++i) {
      EXPECT_EQ(p.violations[i].kind, s.violations[i].kind) << "violation " << i;
      EXPECT_EQ(p.violations[i].detail, s.violations[i].detail) << "violation " << i;
      EXPECT_EQ(p.violations[i].trace, s.violations[i].trace) << "violation " << i;
    }
  }
}

// ---------- Fixed systems survive crashes + injected faults ----------

TEST(FaultRefine, ReplWithRetrySurvivesTransientWriteAndCrash) {
  ReplHarnessOptions options;
  options.num_blocks = 1;
  options.client_ops = {{ReplSpec::MakeWrite(0, 5)}};
  options.fault_plan.transient_writes = 1;
  ExplorerOptions opts;
  opts.max_crashes = 1;
  opts.max_violations = 1 << 20;
  Explorer<ReplSpec> explorer(ReplSpec{1}, [&] { return MakeReplInstance(options); }, opts);
  Report report = explorer.Run();
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_GT(report.env_events_fired, 0u);  // the fault was actually placed
  EXPECT_GT(report.crashes_injected, 0u);
}

TEST(FaultRefine, ReplWithRetrySurvivesTransientReadDuringFailover) {
  ReplHarnessOptions options;
  options.num_blocks = 1;
  options.client_ops = {{ReplSpec::MakeWrite(0, 5)}, {ReplSpec::MakeRead(0)}};
  options.fault_plan.transient_reads = 1;
  options.fault_plan.target = ReplicatedDisk::kDisk1;
  ExplorerOptions opts;
  opts.max_crashes = 1;
  opts.max_violations = 1 << 20;
  Explorer<ReplSpec> explorer(ReplSpec{1}, [&] { return MakeReplInstance(options); }, opts);
  Report report = explorer.Run();
  EXPECT_TRUE(report.ok()) << report.Summary();
}

TEST(FaultRefine, TxnLogWithBarrierSurvivesTornRecordAndCrash) {
  TxnHarnessOptions options;
  options.num_addrs = 2;
  options.log_capacity = 2;
  options.client_ops = {{TxnSpec::MakeBatch({{0, 1}})}};
  options.fault_plan.torn_writes = 1;
  ExplorerOptions opts;
  opts.max_crashes = 1;
  opts.max_violations = 1 << 20;
  Explorer<TxnSpec> explorer(TxnSpec{2}, [&] { return MakeTxnInstance(options); }, opts);
  Report report = explorer.Run();
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_GT(report.env_events_fired, 0u);
  EXPECT_GT(report.crashes_injected, 0u);
}

TEST(FaultRefine, TxnLogSurvivesFailSlowDevice) {
  TxnHarnessOptions options;
  options.num_addrs = 2;
  options.log_capacity = 2;
  options.client_ops = {{TxnSpec::MakeBatch({{0, 1}})}, {TxnSpec::MakeRead(0)}};
  options.fault_plan.fail_slow = 1;
  ExplorerOptions opts;
  opts.max_crashes = 1;
  opts.max_violations = 1 << 20;
  Explorer<TxnSpec> explorer(TxnSpec{2}, [&] { return MakeTxnInstance(options); }, opts);
  Report report = explorer.Run();
  EXPECT_TRUE(report.ok()) << report.Summary();
}

// ---------- Seeded bugs are caught ----------

TEST(FaultRefine, MissingRetryBreaksReplCrashInvariant) {
  // Without retry, a transient write to disk 1 is silently dropped: the
  // disks diverge with no helping token deposited, so the §5.4 crash
  // invariant fails the moment the fault fires.
  ReplHarnessOptions options;
  options.num_blocks = 1;
  options.client_ops = {{ReplSpec::MakeWrite(0, 5)}};
  options.mutations.no_retry = true;
  options.fault_plan.transient_writes = 1;
  options.fault_plan.target = ReplicatedDisk::kDisk1;
  ExplorerOptions opts;
  opts.max_crashes = 1;
  Explorer<ReplSpec> explorer(ReplSpec{1}, [&] { return MakeReplInstance(options); }, opts);
  Report report = explorer.Run();
  ASSERT_FALSE(report.ok()) << report.Summary();
  EXPECT_EQ(report.violations[0].kind, "crash-invariant");
}

TEST(FaultRefine, MissingRetryIsNonLinearizableWithoutTheInvariant) {
  // Same bug, invariant checking off: the spec-level symptom. The dropped
  // d1 write makes a crash-recovery (which copies d1 over d2) resurrect the
  // old value after the write already returned — no spec interleaving
  // explains the observer's read.
  ReplHarnessOptions options;
  options.num_blocks = 1;
  options.client_ops = {{ReplSpec::MakeWrite(0, 5)}};
  options.mutations.no_retry = true;
  options.fault_plan.transient_writes = 1;
  options.fault_plan.target = ReplicatedDisk::kDisk1;
  options.check_crash_invariants = false;
  ExplorerOptions opts;
  opts.max_crashes = 1;
  Explorer<ReplSpec> explorer(ReplSpec{1}, [&] { return MakeReplInstance(options); }, opts);
  Report report = explorer.Run();
  ASSERT_FALSE(report.ok()) << report.Summary();
  EXPECT_EQ(report.violations[0].kind, "non-linearizable");
}

TEST(FaultRefine, MissingBarrierCommitsTornRecordInTxnLog) {
  // no_write_barrier skips the flush between record writes and the commit
  // header. A torn record write + crash then leaves a committed record
  // whose value half never persisted: recovery applies (addr, 0) and the
  // observer reads 0 where the spec requires 1 (or no commit at all).
  TxnHarnessOptions options;
  options.num_addrs = 2;
  options.log_capacity = 2;
  options.client_ops = {{TxnSpec::MakeBatch({{0, 1}})}};
  options.mutations.no_write_barrier = true;
  options.fault_plan.torn_writes = 1;
  ExplorerOptions opts;
  opts.max_crashes = 1;
  Explorer<TxnSpec> explorer(TxnSpec{2}, [&] { return MakeTxnInstance(options); }, opts);
  Report report = explorer.Run();
  ASSERT_FALSE(report.ok()) << report.Summary();
  EXPECT_EQ(report.violations[0].kind, "non-linearizable");
}

TEST(FaultRefine, BarrierlessTxnLogPassesWithoutTornFaults) {
  // Control: the barrier only matters under torn writes. On an atomic disk
  // the mutation is harmless — it must NOT be reported. This pins down that
  // the violation above comes from the modeled fault, not from the
  // mutation's reordering alone.
  TxnHarnessOptions options;
  options.num_addrs = 2;
  options.log_capacity = 2;
  options.client_ops = {{TxnSpec::MakeBatch({{0, 1}})}};
  options.mutations.no_write_barrier = true;
  ExplorerOptions opts;
  opts.max_crashes = 1;
  opts.max_violations = 1 << 20;
  Explorer<TxnSpec> explorer(TxnSpec{2}, [&] { return MakeTxnInstance(options); }, opts);
  Report report = explorer.Run();
  EXPECT_TRUE(report.ok()) << report.Summary();
}

// ---------- Serial vs parallel with env alternatives ----------

TEST(FaultParallelEquivalence, ReplCorrectWithTransientFault) {
  ReplHarnessOptions options;
  options.num_blocks = 1;
  options.client_ops = {{ReplSpec::MakeWrite(0, 5)}};
  options.fault_plan.transient_writes = 1;
  ExplorerOptions opts;
  opts.max_crashes = 1;
  ExpectFaultEquivalence(ReplSpec{1}, [&] { return MakeReplInstance(options); }, opts);
}

TEST(FaultParallelEquivalence, ReplSeededBugNoRetry) {
  ReplHarnessOptions options;
  options.num_blocks = 1;
  options.client_ops = {{ReplSpec::MakeWrite(0, 5)}};
  options.mutations.no_retry = true;
  options.fault_plan.transient_writes = 1;
  options.fault_plan.target = ReplicatedDisk::kDisk1;
  ExplorerOptions opts;
  opts.max_crashes = 1;
  ExpectFaultEquivalence(ReplSpec{1}, [&] { return MakeReplInstance(options); }, opts);
}

TEST(FaultParallelEquivalence, TxnLogSeededBugNoBarrier) {
  TxnHarnessOptions options;
  options.num_addrs = 2;
  options.log_capacity = 2;
  options.client_ops = {{TxnSpec::MakeBatch({{0, 1}})}};
  options.mutations.no_write_barrier = true;
  options.fault_plan.torn_writes = 1;
  ExplorerOptions opts;
  opts.max_crashes = 1;
  ExpectFaultEquivalence(TxnSpec{2}, [&] { return MakeTxnInstance(options); }, opts);
}

// ---------- Retry/backoff determinism ----------

TEST(FaultRefine, DfsRunsAreReproducibleWithRetries) {
  // Two independent DFS sweeps over a workload whose executions contain
  // retry loops (transient faults armed and consumed) must agree exactly:
  // backoff is scheduler yields, never wall-clock, so the decision tree is
  // identical run to run.
  ReplHarnessOptions options;
  options.num_blocks = 1;
  options.client_ops = {{ReplSpec::MakeWrite(0, 5)}};
  options.fault_plan.transient_writes = 1;
  ExplorerOptions opts;
  opts.max_crashes = 1;
  opts.max_violations = 1 << 20;
  auto run = [&] {
    Explorer<ReplSpec> explorer(ReplSpec{1}, [&] { return MakeReplInstance(options); }, opts);
    return explorer.Run();
  };
  Report a = run();
  Report b = run();
  EXPECT_EQ(a.Summary(), b.Summary());
  EXPECT_EQ(a.executions, b.executions);
  EXPECT_EQ(a.total_steps, b.total_steps);
  EXPECT_EQ(a.env_events_fired, b.env_events_fired);
}

// ---------- PCT: env sampling ----------

TEST(FaultRandom, SameSeedSameReportWithFaults) {
  ReplHarnessOptions options;
  options.num_blocks = 1;
  options.client_ops = {{ReplSpec::MakeWrite(0, 5)}, {ReplSpec::MakeWrite(0, 7)}};
  options.fault_plan.transient_writes = 1;
  ExplorerOptions opts;
  opts.mode = ExplorerOptions::Mode::kPct;
  opts.random_runs = 300;
  opts.seed = 42;
  opts.env_probability = 0.3;
  opts.max_violations = 1 << 20;
  auto run = [&] {
    Explorer<ReplSpec> explorer(ReplSpec{1}, [&] { return MakeReplInstance(options); }, opts);
    return explorer.Run();
  };
  Report a = run();
  Report b = run();
  EXPECT_TRUE(a.ok()) << a.Summary();
  EXPECT_EQ(a.Summary(), b.Summary());
  EXPECT_GT(a.env_events_fired, 0u);  // p=0.3 over 300 runs: faults sampled
}

TEST(FaultRandom, SingleCandidateEnvDrawKeepsStreamComparable) {
  // Regression for the single-candidate uniform-draw guard: with exactly
  // one env alternative on offer, the driver must consume ONE Bernoulli
  // draw and ZERO Below() draws for it at each decision point. We mirror
  // the driver's consumption against a reference Rng: after any prefix of
  // decisions with a lone env candidate, both streams are at the same
  // state, so the chosen thread sequence matches a hand-rolled replay.
  // Depth 1 draws no change points; the mirror takes the first-sight
  // priority draws (depth + Below(2^20), in alternative order) and picks
  // the first highest-priority thread.
  const double env_p = 0.75;
  refine::detail::PctDriver driver(9, /*depth=*/1, /*change_budget=*/64, /*crash_p=*/0.0,
                                   env_p);
  Rng mirror(9);
  std::map<int, int64_t> priority;
  std::vector<refine::detail::Alt> alts;
  alts.push_back({refine::detail::AltKind::kThread, 0, 0, "t0"});
  alts.push_back({refine::detail::AltKind::kThread, 1, 0, "t1"});
  alts.push_back({refine::detail::AltKind::kEnv, -1, 0, "fault:transient-write"});
  for (int i = 0; i < 200; ++i) {
    size_t pick = driver.Choose(alts);
    if (mirror.Chance(env_p)) {
      // Lone env candidate: no Below() draw may be consumed.
      EXPECT_EQ(pick, 2u) << "decision " << i;
      continue;
    }
    for (int tid : {0, 1}) {
      if (priority.find(tid) == priority.end()) {
        priority[tid] = 1 + static_cast<int64_t>(mirror.Below(1u << 20));
      }
    }
    EXPECT_EQ(pick, priority[1] > priority[0] ? 1u : 0u) << "decision " << i;
  }
}

}  // namespace
}  // namespace perennial::systems
