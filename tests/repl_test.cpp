// Tests for the replicated disk: unit behavior, exhaustive refinement
// checking (concurrency × crash points × disk failures), and rejection of
// the paper's buggy variants.
#include <gtest/gtest.h>

#include "src/refine/explorer.h"
#include "src/systems/repl/repl_harness.h"
#include "src/systems/repl/repl_spec.h"
#include "src/systems/repl/replicated_disk.h"
#include "tests/sim_util.h"

namespace perennial::systems {
namespace {

using perennial::testing::SimRun;
using perennial::testing::SimRunVoid;
using proc::Task;
using refine::Explorer;
using refine::ExplorerOptions;
using refine::Report;

TEST(ReplSpecTest, ReadReturnsState) {
  ReplSpec spec{2};
  ReplSpec::State s = spec.Initial();
  s.blocks[1] = 9;
  auto out = spec.Step(s, ReplSpec::MakeRead(1));
  ASSERT_EQ(out.branches.size(), 1u);
  EXPECT_EQ(out.branches[0].second, 9u);
}

TEST(ReplSpecTest, WriteUpdatesState) {
  ReplSpec spec{2};
  auto out = spec.Step(spec.Initial(), ReplSpec::MakeWrite(0, 4));
  ASSERT_EQ(out.branches.size(), 1u);
  EXPECT_EQ(out.branches[0].first.blocks[0], 4u);
}

TEST(ReplSpecTest, OutOfBoundsIsUndefined) {
  ReplSpec spec{2};
  EXPECT_TRUE(spec.Step(spec.Initial(), ReplSpec::MakeRead(2)).undefined);
  EXPECT_TRUE(spec.Step(spec.Initial(), ReplSpec::MakeWrite(5, 0)).undefined);
}

TEST(ReplSpecTest, CrashLosesNothing) {
  ReplSpec spec{1};
  ReplSpec::State s = spec.Initial();
  s.blocks[0] = 3;
  auto crashed = spec.CrashSteps(s);
  ASSERT_EQ(crashed.size(), 1u);
  EXPECT_EQ(crashed[0], s);
}

TEST(ReplicatedDiskTest, WriteThenReadSequential) {
  goose::World world;
  ReplicatedDisk rd(&world, 2);
  auto body = [&]() -> Task<uint64_t> {
    co_await rd.Write(0, 11, 1);
    co_await rd.Write(1, 22, 2);
    co_return co_await rd.Read(0) * 100 + co_await rd.Read(1);
  };
  EXPECT_EQ(SimRun(body()), 1122u);
}

TEST(ReplicatedDiskTest, ReadFailsOverToDisk2) {
  goose::World world;
  ReplicatedDisk rd(&world, 1);
  auto write = [&]() -> Task<void> { co_await rd.Write(0, 5, 1); };
  SimRunVoid(write());
  rd.FailDisk1();
  auto read = [&]() -> Task<uint64_t> { co_return co_await rd.Read(0); };
  EXPECT_EQ(SimRun(read()), 5u);
}

TEST(ReplicatedDiskTest, RecoverRepairsDivergence) {
  goose::World world;
  ReplicatedDisk rd(&world, 1);
  auto write = [&]() -> Task<void> { co_await rd.Write(0, 5, 1); };
  SimRunVoid(write());
  world.Crash();
  auto recover = [&]() -> Task<void> { co_await rd.Recover([](uint64_t) {}); };
  SimRunVoid(recover());
  auto read = [&]() -> Task<uint64_t> { co_return co_await rd.Read(0); };
  EXPECT_EQ(SimRun(read()), 5u);
}

TEST(ReplicatedDiskTest, CrashInvariantHoldsInitially) {
  goose::World world;
  ReplicatedDisk rd(&world, 2);
  EXPECT_TRUE(rd.crash_invariants().AllHold());
}

// --- Exhaustive refinement checks (the §9.1 replicated-disk result) ---

TEST(ReplCheck, TwoConcurrentWritersWithCrashesRefineTheSpec) {
  ReplHarnessOptions options;
  options.num_blocks = 1;
  options.client_ops = {{ReplSpec::MakeWrite(0, 5)}, {ReplSpec::MakeWrite(0, 7)}};
  ExplorerOptions opts;
  opts.max_crashes = 1;
  Explorer<ReplSpec> ex(ReplSpec{1}, [&] { return MakeReplInstance(options); }, opts);
  Report report = ex.Run();
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_GT(report.crashes_injected, 0u);
  EXPECT_FALSE(report.truncated);
}

TEST(ReplCheck, WriterAndReaderWithCrashDuringRecovery) {
  ReplHarnessOptions options;
  options.num_blocks = 1;
  options.client_ops = {{ReplSpec::MakeWrite(0, 9)}, {ReplSpec::MakeRead(0)}};
  ExplorerOptions opts;
  opts.max_crashes = 2;  // the second crash can land inside recovery
  Explorer<ReplSpec> ex(ReplSpec{1}, [&] { return MakeReplInstance(options); }, opts);
  Report report = ex.Run();
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_FALSE(report.truncated);
}

TEST(ReplCheck, Disk1FailureAnywhereStillRefines) {
  ReplHarnessOptions options;
  options.num_blocks = 1;
  options.client_ops = {{ReplSpec::MakeWrite(0, 5)}, {ReplSpec::MakeRead(0)}};
  options.with_disk1_failure_event = true;
  ExplorerOptions opts;
  opts.max_crashes = 1;
  Explorer<ReplSpec> ex(ReplSpec{1}, [&] { return MakeReplInstance(options); }, opts);
  Report report = ex.Run();
  EXPECT_TRUE(report.ok()) << report.Summary();
}

TEST(ReplCheck, Disk2FailureAnywhereStillRefines) {
  ReplHarnessOptions options;
  options.num_blocks = 1;
  options.client_ops = {{ReplSpec::MakeWrite(0, 5)}, {ReplSpec::MakeRead(0)}};
  options.with_disk2_failure_event = true;
  ExplorerOptions opts;
  opts.max_crashes = 1;
  Explorer<ReplSpec> ex(ReplSpec{1}, [&] { return MakeReplInstance(options); }, opts);
  Report report = ex.Run();
  EXPECT_TRUE(report.ok()) << report.Summary();
}

TEST(ReplCheck, TwoAddressesTwoWritersNoCrashExhaustive) {
  ReplHarnessOptions options;
  options.num_blocks = 2;
  options.client_ops = {{ReplSpec::MakeWrite(0, 1), ReplSpec::MakeRead(1)},
                        {ReplSpec::MakeWrite(1, 2), ReplSpec::MakeRead(0)}};
  ExplorerOptions opts;
  opts.max_crashes = 0;
  Explorer<ReplSpec> ex(ReplSpec{2}, [&] { return MakeReplInstance(options); }, opts);
  Report report = ex.Run();
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_FALSE(report.truncated);
}

TEST(ReplCheck, RandomisedLargerConfigRefines) {
  ReplHarnessOptions options;
  options.num_blocks = 3;
  options.client_ops = {{ReplSpec::MakeWrite(0, 1), ReplSpec::MakeWrite(1, 2)},
                        {ReplSpec::MakeWrite(1, 3), ReplSpec::MakeRead(0)},
                        {ReplSpec::MakeRead(2), ReplSpec::MakeWrite(2, 4)}};
  ExplorerOptions opts;
  opts.mode = ExplorerOptions::Mode::kPct;
  opts.random_runs = 400;
  opts.seed = 7;
  opts.max_crashes = 2;
  Explorer<ReplSpec> ex(ReplSpec{3}, [&] { return MakeReplInstance(options); }, opts);
  Report report = ex.Run();
  EXPECT_TRUE(report.ok()) << report.Summary();
}

// --- The buggy variants must be rejected (§1's zeroing recovery, etc.) ---

TEST(ReplMutation, ZeroingRecoveryIsCaught) {
  ReplHarnessOptions options;
  options.num_blocks = 1;
  options.client_ops = {{ReplSpec::MakeWrite(0, 5)}};
  options.mutations.recovery_zeroes = true;
  ExplorerOptions opts;
  opts.max_crashes = 1;
  Explorer<ReplSpec> ex(ReplSpec{1}, [&] { return MakeReplInstance(options); }, opts);
  Report report = ex.Run();
  ASSERT_FALSE(report.ok());
  // Caught either as the crash invariant breaking mid-zeroing (the disks
  // disagree with no pending write) or as a lost completed write.
  EXPECT_TRUE(report.violations[0].kind == "non-linearizable" ||
              report.violations[0].kind == "crash-invariant")
      << report.Summary();
}

TEST(ReplMutation, SkippedRecoveryIsCaught) {
  // Without recovery, a crash between the two writes leaves the disks out
  // of sync; a later disk-1 failure exposes the stale value on disk 2.
  ReplHarnessOptions options;
  options.num_blocks = 1;
  options.client_ops = {{ReplSpec::MakeWrite(0, 5)}};
  options.mutations.skip_recovery = true;
  options.with_disk1_failure_event = true;
  options.observe_repeats = 2;  // read 5 from disk 1, fail it, read 0 from disk 2
  ExplorerOptions opts;
  opts.max_crashes = 1;
  Explorer<ReplSpec> ex(ReplSpec{1}, [&] { return MakeReplInstance(options); }, opts);
  Report report = ex.Run();
  ASSERT_FALSE(report.ok());
}

TEST(ReplMutation, MissingSecondWriteIsCaught) {
  ReplHarnessOptions options;
  options.num_blocks = 1;
  options.client_ops = {{ReplSpec::MakeWrite(0, 5)}};
  options.mutations.skip_second_write = true;
  options.with_disk1_failure_event = true;
  ExplorerOptions opts;
  opts.max_crashes = 0;
  Explorer<ReplSpec> ex(ReplSpec{1}, [&] { return MakeReplInstance(options); }, opts);
  Report report = ex.Run();
  ASSERT_FALSE(report.ok());
}

TEST(ReplMutation, UnlockedWritesAreCaught) {
  ReplHarnessOptions options;
  options.num_blocks = 1;
  options.client_ops = {{ReplSpec::MakeWrite(0, 5)}, {ReplSpec::MakeWrite(0, 7)}};
  options.mutations.skip_locking = true;
  ExplorerOptions opts;
  opts.max_crashes = 0;
  Explorer<ReplSpec> ex(ReplSpec{1}, [&] { return MakeReplInstance(options); }, opts);
  Report report = ex.Run();
  // Caught as a capability violation (double helping deposit / torn
  // interleaving) or as a broken crash invariant / non-linearizable
  // history, depending on the first schedule that exposes it.
  ASSERT_FALSE(report.ok());
}

}  // namespace
}  // namespace perennial::systems
