// Tests for src/refine: the linearizability checker (with crash transitions
// and helping) and the schedule/crash-point explorer, using a small
// register specification.
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/cap/crash_invariant.h"
#include "src/disk/disk.h"
#include "src/goose/heap.h"
#include "src/goose/mutex.h"
#include "src/goose/world.h"
#include "src/refine/explorer.h"
#include "src/refine/history.h"
#include "src/refine/linearize.h"
#include "src/tsys/transition.h"

namespace perennial::refine {
namespace {

// ----- A register specification: write(v) / read() -> v, durable across
// crashes (crash transition is the identity). -----
struct RegSpec {
  struct State {
    uint64_t v = 0;
    friend bool operator==(const State&, const State&) = default;
  };
  struct Op {
    bool is_write = false;
    uint64_t arg = 0;
  };
  using Ret = uint64_t;  // reads return the value; writes return 0

  State Initial() const { return {}; }

  tsys::Outcome<State, Ret> Step(const State& s, const Op& op) const {
    if (op.is_write) {
      return tsys::Outcome<State, Ret>::One(State{op.arg}, 0);
    }
    return tsys::Outcome<State, Ret>::One(s, s.v);
  }

  std::vector<State> CrashSteps(const State& s) const { return {s}; }

  static std::string StateKey(const State& s) { return std::to_string(s.v); }
  static std::string RetKey(const Ret& r) { return std::to_string(r); }
  static std::string OpName(const Op& op) {
    return op.is_write ? "write(" + std::to_string(op.arg) + ")" : "read()";
  }
};

RegSpec::Op Write(uint64_t v) { return RegSpec::Op{true, v}; }
RegSpec::Op Read() { return RegSpec::Op{false, 0}; }

using Hist = History<RegSpec>;

TEST(Linearize, EmptyHistoryIsLinearizable) {
  RegSpec spec;
  LinearizabilityChecker<RegSpec> checker(&spec);
  Hist h;
  EXPECT_EQ(checker.Check(h), std::nullopt);
}

TEST(Linearize, SequentialWriteReadOk) {
  RegSpec spec;
  LinearizabilityChecker<RegSpec> checker(&spec);
  Hist h;
  uint64_t w = h.Invoke(0, Write(5));
  h.Return(w, 0);
  uint64_t r = h.Invoke(0, Read());
  h.Return(r, 5);
  EXPECT_EQ(checker.Check(h), std::nullopt);
}

TEST(Linearize, ReadOfNeverWrittenValueFails) {
  RegSpec spec;
  LinearizabilityChecker<RegSpec> checker(&spec);
  Hist h;
  uint64_t r = h.Invoke(0, Read());
  h.Return(r, 5);
  EXPECT_NE(checker.Check(h), std::nullopt);
}

TEST(Linearize, ConcurrentWriteCanLinearizeBeforeOverlappingRead) {
  RegSpec spec;
  LinearizabilityChecker<RegSpec> checker(&spec);
  Hist h;
  uint64_t w = h.Invoke(0, Write(1));
  uint64_t r = h.Invoke(1, Read());
  h.Return(r, 1);  // read observed the concurrent write
  h.Return(w, 0);
  EXPECT_EQ(checker.Check(h), std::nullopt);
}

TEST(Linearize, ConcurrentReadMayAlsoMissTheWrite) {
  RegSpec spec;
  LinearizabilityChecker<RegSpec> checker(&spec);
  Hist h;
  uint64_t w = h.Invoke(0, Write(1));
  uint64_t r = h.Invoke(1, Read());
  h.Return(r, 0);  // read linearized before the write
  h.Return(w, 0);
  EXPECT_EQ(checker.Check(h), std::nullopt);
}

TEST(Linearize, ReadCannotSeeAFutureWrite) {
  RegSpec spec;
  LinearizabilityChecker<RegSpec> checker(&spec);
  Hist h;
  uint64_t r = h.Invoke(1, Read());
  h.Return(r, 1);  // returned before write(1) was even invoked
  uint64_t w = h.Invoke(0, Write(1));
  h.Return(w, 0);
  EXPECT_NE(checker.Check(h), std::nullopt);
}

TEST(Linearize, CompletedWriteMustSurviveCrash) {
  RegSpec spec;
  LinearizabilityChecker<RegSpec> checker(&spec);
  Hist h;
  uint64_t w = h.Invoke(0, Write(7));
  h.Return(w, 0);
  h.Crash();
  uint64_t r = h.Invoke(1, Read());
  h.Return(r, 0);  // durable write lost: must be rejected
  EXPECT_NE(checker.Check(h), std::nullopt);
}

TEST(Linearize, PendingWriteMayCommitAtCrash) {
  RegSpec spec;
  LinearizabilityChecker<RegSpec> checker(&spec);
  Hist h;
  h.Invoke(0, Write(7));  // never returns
  h.Crash();
  uint64_t r = h.Invoke(1, Read());
  h.Return(r, 7);
  EXPECT_EQ(checker.Check(h), std::nullopt);
}

TEST(Linearize, PendingWriteMayAlsoVanishAtCrash) {
  RegSpec spec;
  LinearizabilityChecker<RegSpec> checker(&spec);
  Hist h;
  h.Invoke(0, Write(7));
  h.Crash();
  uint64_t r = h.Invoke(1, Read());
  h.Return(r, 0);
  EXPECT_EQ(checker.Check(h), std::nullopt);
}

TEST(Linearize, PendingWriteCannotHalfCommit) {
  RegSpec spec;
  LinearizabilityChecker<RegSpec> checker(&spec);
  Hist h;
  h.Invoke(0, Write(7));
  h.Crash();
  uint64_t r = h.Invoke(1, Read());
  h.Return(r, 3);  // neither 0 nor 7: corruption
  EXPECT_NE(checker.Check(h), std::nullopt);
}

TEST(Linearize, HelpedOpMustBeVisibleAfterCrash) {
  RegSpec spec;
  LinearizabilityChecker<RegSpec> checker(&spec);
  Hist h;
  uint64_t w = h.Invoke(0, Write(7));
  h.Crash();
  h.Helped(w);  // recovery claims it committed the write
  uint64_t r = h.Invoke(1, Read());
  h.Return(r, 0);  // ...but the effect is missing
  EXPECT_NE(checker.Check(h), std::nullopt);
}

TEST(Linearize, HelpedOpVisibleIsAccepted) {
  RegSpec spec;
  LinearizabilityChecker<RegSpec> checker(&spec);
  Hist h;
  uint64_t w = h.Invoke(0, Write(7));
  h.Crash();
  h.Helped(w);
  uint64_t r = h.Invoke(1, Read());
  h.Return(r, 7);
  EXPECT_EQ(checker.Check(h), std::nullopt);
}

TEST(Linearize, TwoPendingWritesEitherOrderAtCrash) {
  RegSpec spec;
  LinearizabilityChecker<RegSpec> checker(&spec);
  Hist h;
  h.Invoke(0, Write(1));
  h.Invoke(1, Write(2));
  h.Crash();
  uint64_t r = h.Invoke(2, Read());
  h.Return(r, 1);  // write(2) then write(1), or write(2) dropped
  EXPECT_EQ(checker.Check(h), std::nullopt);
  Hist h2;
  h2.Invoke(0, Write(1));
  h2.Invoke(1, Write(2));
  h2.Crash();
  uint64_t r2 = h2.Invoke(2, Read());
  h2.Return(r2, 2);
  EXPECT_EQ(checker.Check(h2), std::nullopt);
}

// A lossy-register spec: the crash transition may reset the value to 0
// (modeling group-commit-style allowed loss).
struct LossyRegSpec : RegSpec {
  std::vector<State> CrashSteps(const State& s) const { return {s, State{0}}; }
};

TEST(Linearize, LossyCrashAllowsReset) {
  LossyRegSpec spec;
  LinearizabilityChecker<LossyRegSpec> checker(&spec);
  History<LossyRegSpec> h;
  uint64_t w = h.Invoke(0, Write(9));
  h.Return(w, 0);
  h.Crash();
  uint64_t r = h.Invoke(1, Read());
  h.Return(r, 0);  // allowed: crash step may lose the value
  EXPECT_EQ(checker.Check(h), std::nullopt);
}

// A spec whose read is undefined when the register holds 13: histories
// reaching it are accepted wholesale.
struct UbRegSpec : RegSpec {
  tsys::Outcome<State, Ret> Step(const State& s, const Op& op) const {
    if (!op.is_write && s.v == 13) {
      return tsys::Outcome<State, Ret>::Undef();
    }
    return RegSpec::Step(s, op);
  }
};

TEST(Linearize, UndefinedSpecBehaviorAcceptsAnything) {
  UbRegSpec spec;
  LinearizabilityChecker<UbRegSpec> checker(&spec);
  History<UbRegSpec> h;
  uint64_t w = h.Invoke(0, Write(13));
  h.Return(w, 0);
  uint64_t r = h.Invoke(0, Read());
  h.Return(r, 999);  // nonsense, but reachable only via UB
  EXPECT_EQ(checker.Check(h), std::nullopt);
}

// ----- Explorer end-to-end with small register implementations -----

// A correct volatile register: a heap cell protected by a mutex.
struct LockedRegister {
  goose::World world;
  goose::Heap heap{&world};
  goose::Mutex mu{&world};
  goose::Ptr<uint64_t> cell;

  LockedRegister() { cell = heap.New<uint64_t>(0); }

  proc::Task<uint64_t> Run(RegSpec::Op op) {
    co_await mu.Lock();
    uint64_t result = 0;
    if (op.is_write) {
      co_await heap.Store(cell, op.arg);
    } else {
      result = co_await heap.Load(cell);
    }
    co_await mu.Unlock();
    co_return result;
  }
};

Instance<RegSpec> MakeLockedRegisterInstance() {
  auto sys = std::make_shared<LockedRegister>();
  Instance<RegSpec> inst;
  inst.keep_alive = sys;
  inst.world = &sys->world;
  inst.client_ops = {{Write(1)}, {Read()}, {Write(2)}};
  inst.run_op = [sys](int, uint64_t, RegSpec::Op op) { return sys->Run(op); };
  inst.recover = nullptr;  // volatile system: no crash exploration
  return inst;
}

TEST(Explorer, ExhaustiveLockedRegisterIsLinearizable) {
  ExplorerOptions opts;
  opts.max_crashes = 0;
  Explorer<RegSpec> ex(RegSpec{}, MakeLockedRegisterInstance, opts);
  Report report = ex.Run();
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_GT(report.executions, 10u);  // plural schedules actually explored
  EXPECT_FALSE(report.truncated);
}

// A racy register (no lock): the explorer must find the Goose race UB.
struct RacyRegister {
  goose::World world;
  goose::Heap heap{&world};
  goose::Ptr<uint64_t> cell;

  RacyRegister() { cell = heap.New<uint64_t>(0); }

  proc::Task<uint64_t> Run(RegSpec::Op op) {
    if (op.is_write) {
      co_await heap.Store(cell, op.arg);
      co_return 0;
    }
    co_return co_await heap.Load(cell);
  }
};

TEST(Explorer, FindsRaceInUnlockedRegister) {
  auto factory = [] {
    auto sys = std::make_shared<RacyRegister>();
    Instance<RegSpec> inst;
    inst.keep_alive = sys;
    inst.world = &sys->world;
    inst.client_ops = {{Write(1)}, {Write(2)}};
    inst.run_op = [sys](int, uint64_t, RegSpec::Op op) { return sys->Run(op); };
    return inst;
  };
  ExplorerOptions opts;
  opts.max_crashes = 0;
  Explorer<RegSpec> ex(RegSpec{}, factory, opts);
  Report report = ex.Run();
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.violations[0].kind, "undefined-behavior");
}

// A register that writes the wrong value: must show up as non-linearizable.
struct OffByOneRegister : LockedRegister {
  proc::Task<uint64_t> Run(RegSpec::Op op) {
    if (op.is_write) {
      op.arg += 1;  // bug
    }
    co_return co_await LockedRegister::Run(op);
  }
};

TEST(Explorer, FindsWrongValueAsNonLinearizable) {
  auto factory = [] {
    auto sys = std::make_shared<OffByOneRegister>();
    Instance<RegSpec> inst;
    inst.keep_alive = sys;
    inst.world = &sys->world;
    inst.client_ops = {{Write(1)}};
    inst.run_op = [sys](int, uint64_t, RegSpec::Op op) { return sys->Run(op); };
    inst.observer_ops = {Read()};
    return inst;
  };
  ExplorerOptions opts;
  opts.max_crashes = 0;
  Explorer<RegSpec> ex(RegSpec{}, factory, opts);
  Report report = ex.Run();
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.violations[0].kind, "non-linearizable");
}

// A durable register on a disk block, with a no-op recovery: exhaustive
// crash exploration should pass (the disk write is atomic).
struct DiskRegister {
  goose::World world;
  disk::Disk d{&world, 1, disk::BlockOfU64(0)};
  bool zero_on_recovery = false;  // mutation: a recovery that wipes data

  proc::Task<uint64_t> Run(RegSpec::Op op) {
    if (op.is_write) {
      (void)co_await d.Write(0, disk::BlockOfU64(op.arg));
      co_return 0;
    }
    Result<disk::Block> r = co_await d.Read(0);
    co_return disk::U64OfBlock(r.value());
  }

  proc::Task<void> Recover() {
    if (zero_on_recovery) {
      (void)co_await d.Write(0, disk::BlockOfU64(0));
    }
    co_return;
  }
};

Instance<RegSpec> MakeDiskRegisterInstance(bool zero_on_recovery) {
  auto sys = std::make_shared<DiskRegister>();
  sys->zero_on_recovery = zero_on_recovery;
  Instance<RegSpec> inst;
  inst.keep_alive = sys;
  inst.world = &sys->world;
  inst.client_ops = {{Write(5)}};
  inst.run_op = [sys](int, uint64_t, RegSpec::Op op) { return sys->Run(op); };
  inst.recover = [sys](History<RegSpec>*) { return sys->Recover(); };
  inst.observer_ops = {Read()};
  return inst;
}

TEST(Explorer, DiskRegisterSurvivesCrashesEverywhere) {
  ExplorerOptions opts;
  opts.max_crashes = 2;  // including a crash during recovery
  Explorer<RegSpec> ex(
      RegSpec{}, [] { return MakeDiskRegisterInstance(false); }, opts);
  Report report = ex.Run();
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_GT(report.crashes_injected, 0u);
}

TEST(Explorer, FindsRecoveryThatWipesDurableData) {
  ExplorerOptions opts;
  opts.max_crashes = 1;
  Explorer<RegSpec> ex(
      RegSpec{}, [] { return MakeDiskRegisterInstance(true); }, opts);
  Report report = ex.Run();
  ASSERT_FALSE(report.ok());
  // The write returns, then a crash + wiping recovery loses it.
  EXPECT_EQ(report.violations[0].kind, "non-linearizable");
}

TEST(Explorer, CrashInvariantViolationIsReported) {
  auto factory = [] {
    auto sys = std::make_shared<DiskRegister>();
    auto invariants = std::make_shared<cap::CrashInvariants>();
    invariants->Register("value-is-even", [sys] {
      return disk::U64OfBlock(sys->d.PeekBlock(0)) % 2 == 0;
    });
    struct Bundle {
      std::shared_ptr<DiskRegister> sys;
      std::shared_ptr<cap::CrashInvariants> inv;
    };
    auto bundle = std::make_shared<Bundle>(Bundle{sys, invariants});
    Instance<RegSpec> inst;
    inst.keep_alive = bundle;
    inst.world = &sys->world;
    inst.crash_invariants = invariants.get();
    inst.client_ops = {{Write(5)}};  // writes an odd value: invariant breaks
    inst.run_op = [sys](int, uint64_t, RegSpec::Op op) { return sys->Run(op); };
    inst.recover = [sys](History<RegSpec>*) { return sys->Recover(); };
    return inst;
  };
  ExplorerOptions opts;
  Explorer<RegSpec> ex(RegSpec{}, factory, opts);
  Report report = ex.Run();
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.violations[0].kind, "crash-invariant");
}

TEST(Explorer, StepBoundCatchesInfiniteLoop) {
  struct Spinner {
    goose::World world;
    proc::Task<uint64_t> Run() {
      while (true) {
        co_await proc::Yield();
      }
    }
  };
  auto factory = [] {
    auto sys = std::make_shared<Spinner>();
    Instance<RegSpec> inst;
    inst.keep_alive = sys;
    inst.world = &sys->world;
    inst.client_ops = {{Read()}};
    inst.run_op = [sys](int, uint64_t, RegSpec::Op) { return sys->Run(); };
    return inst;
  };
  ExplorerOptions opts;
  opts.max_crashes = 0;
  opts.max_steps_per_run = 200;
  Explorer<RegSpec> ex(RegSpec{}, factory, opts);
  Report report = ex.Run();
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.violations[0].kind, "step-bound");
}

TEST(Explorer, DeadlockIsReported) {
  struct Stuck {
    goose::World world;
    goose::Mutex mu{&world};
    proc::Task<uint64_t> Run() {
      co_await mu.Lock();
      co_await mu.Lock();  // self-deadlock
      co_return 0;
    }
  };
  auto factory = [] {
    auto sys = std::make_shared<Stuck>();
    Instance<RegSpec> inst;
    inst.keep_alive = sys;
    inst.world = &sys->world;
    inst.client_ops = {{Read()}};
    inst.run_op = [sys](int, uint64_t, RegSpec::Op) { return sys->Run(); };
    return inst;
  };
  ExplorerOptions opts;
  opts.max_crashes = 0;
  Explorer<RegSpec> ex(RegSpec{}, factory, opts);
  Report report = ex.Run();
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.violations[0].kind, "deadlock");
}

TEST(Explorer, PreemptionBoundShrinksTheSpace) {
  ExplorerOptions unbounded;
  unbounded.max_crashes = 0;
  Explorer<RegSpec> full(RegSpec{}, MakeLockedRegisterInstance, unbounded);
  Report full_report = full.Run();
  ASSERT_TRUE(full_report.ok());

  ExplorerOptions bounded = unbounded;
  bounded.max_preemptions = 1;
  Explorer<RegSpec> small(RegSpec{}, MakeLockedRegisterInstance, bounded);
  Report small_report = small.Run();
  EXPECT_TRUE(small_report.ok()) << small_report.Summary();
  EXPECT_LT(small_report.executions, full_report.executions);
  EXPECT_GT(small_report.executions, 1u);  // still explores some interleavings
}

TEST(Explorer, PreemptionBoundStillFindsRaces) {
  // The unlocked-register race needs only one preemption (inside a store).
  auto factory = [] {
    auto sys = std::make_shared<RacyRegister>();
    Instance<RegSpec> inst;
    inst.keep_alive = sys;
    inst.world = &sys->world;
    inst.client_ops = {{Write(1)}, {Write(2)}};
    inst.run_op = [sys](int, uint64_t, RegSpec::Op op) { return sys->Run(op); };
    return inst;
  };
  ExplorerOptions opts;
  opts.max_crashes = 0;
  opts.max_preemptions = 1;
  Explorer<RegSpec> ex(RegSpec{}, factory, opts);
  Report report = ex.Run();
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.violations[0].kind, "undefined-behavior");
}

TEST(Explorer, ZeroPreemptionsStillRunsAllThreadsToCompletion) {
  ExplorerOptions opts;
  opts.max_crashes = 0;
  opts.max_preemptions = 0;  // non-preemptive schedules only
  Explorer<RegSpec> ex(RegSpec{}, MakeLockedRegisterInstance, opts);
  Report report = ex.Run();
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_GE(report.executions, 1u);
}

TEST(Explorer, MaxExecutionsTruncatesDfs) {
  ExplorerOptions opts;
  opts.max_crashes = 0;
  opts.max_executions = 5;  // far below the full space
  Explorer<RegSpec> ex(RegSpec{}, MakeLockedRegisterInstance, opts);
  Report report = ex.Run();
  EXPECT_TRUE(report.truncated);
  EXPECT_EQ(report.executions, 5u);
}

TEST(Explorer, ReportSummaryMentionsViolations) {
  auto factory = [] {
    auto sys = std::make_shared<OffByOneRegister>();
    Instance<RegSpec> inst;
    inst.keep_alive = sys;
    inst.world = &sys->world;
    inst.client_ops = {{Write(1)}};
    inst.run_op = [sys](int, uint64_t, RegSpec::Op op) { return sys->Run(op); };
    inst.observer_ops = {Read()};
    return inst;
  };
  ExplorerOptions opts;
  opts.max_crashes = 0;
  opts.max_violations = 1;
  Explorer<RegSpec> ex(RegSpec{}, factory, opts);
  Report report = ex.Run();
  std::string summary = report.Summary();
  EXPECT_NE(summary.find("violations=1"), std::string::npos);
  EXPECT_NE(summary.find("non-linearizable"), std::string::npos);
}

TEST(Explorer, ViolationCarriesTheSchedule) {
  auto factory = [] {
    auto sys = std::make_shared<OffByOneRegister>();
    Instance<RegSpec> inst;
    inst.keep_alive = sys;
    inst.world = &sys->world;
    inst.client_ops = {{Write(1)}};
    inst.run_op = [sys](int, uint64_t, RegSpec::Op op) { return sys->Run(op); };
    inst.observer_ops = {Read()};
    return inst;
  };
  ExplorerOptions opts;
  opts.max_crashes = 0;
  opts.max_violations = 1;
  Explorer<RegSpec> ex(RegSpec{}, factory, opts);
  Report report = ex.Run();
  ASSERT_FALSE(report.ok());
  // The trace replays as a space-separated list of thread/crash labels.
  EXPECT_NE(report.violations[0].trace.find("t0"), std::string::npos);
}

TEST(History, ToStringRendersAllEventKinds) {
  Hist h;
  uint64_t w = h.Invoke(0, Write(5));
  h.Return(w, 0);
  h.Crash();
  h.Helped(w);
  std::string out = h.ToString();
  EXPECT_NE(out.find("invoke #1"), std::string::npos);
  EXPECT_NE(out.find("write(5)"), std::string::npos);
  EXPECT_NE(out.find("CRASH"), std::string::npos);
  EXPECT_NE(out.find("helped #1"), std::string::npos);
}

TEST(Linearize, BlockedOperationsDelayUntilEnabled) {
  // A spec op that is blocked (no branches) until the state allows it:
  // linearization must order it after the enabling write.
  struct GateSpec : RegSpec {
    tsys::Outcome<State, Ret> Step(const State& s, const Op& op) const {
      if (!op.is_write && s.v == 0) {
        return tsys::Outcome<State, Ret>::None();  // reads blocked at 0
      }
      return RegSpec::Step(s, op);
    }
  };
  GateSpec spec;
  LinearizabilityChecker<GateSpec> checker(&spec);
  History<GateSpec> h;
  uint64_t r = h.Invoke(0, Read());
  uint64_t w = h.Invoke(1, Write(3));
  h.Return(w, 0);
  h.Return(r, 3);  // the read could only linearize after the write
  EXPECT_EQ(checker.Check(h), std::nullopt);

  History<GateSpec> h2;
  uint64_t r2 = h2.Invoke(0, Read());
  h2.Return(r2, 0);  // impossible: reads are blocked while v == 0
  uint64_t w2 = h2.Invoke(1, Write(3));
  h2.Return(w2, 0);
  EXPECT_NE(checker.Check(h2), std::nullopt);
}

TEST(Explorer, PctModeAlsoWorks) {
  ExplorerOptions opts;
  opts.mode = ExplorerOptions::Mode::kPct;
  opts.random_runs = 200;
  opts.seed = 42;
  opts.max_crashes = 1;
  Explorer<RegSpec> ex(
      RegSpec{}, [] { return MakeDiskRegisterInstance(false); }, opts);
  Report report = ex.Run();
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_EQ(report.executions, 200u);
}

TEST(Explorer, OdometerSurvivesEarlyAbortedRuns) {
  // Regression guard for the DFS odometer's trim path: a run that aborts
  // early (here: deadlock) consumes fewer decisions than the stale path
  // recorded by the previous, longer run, so Run() must first trim the
  // path to the replayed decision count (`path.resize(counts.size())`)
  // before advancing — and still enumerate the full remaining space.
  struct TwoLocks {
    goose::World world;
    goose::Mutex a{&world};
    goose::Mutex b{&world};
    proc::Task<void> LockBoth(goose::Mutex* first, goose::Mutex* second) {
      co_await first->Lock();
      co_await second->Lock();
      co_await second->Unlock();
      co_await first->Unlock();
    }
  };
  auto factory = [] {
    auto sys = std::make_shared<TwoLocks>();
    Instance<RegSpec> inst;
    inst.keep_alive = sys;
    inst.world = &sys->world;
    // Opposite acquisition orders: some interleavings deadlock, others
    // complete — the DFS sequence mixes early-aborted and full-length runs.
    inst.client_programs = {
        [sys](OpRunner<RegSpec>*) { return sys->LockBoth(&sys->a, &sys->b); },
        [sys](OpRunner<RegSpec>*) { return sys->LockBoth(&sys->b, &sys->a); },
    };
    return inst;
  };
  ExplorerOptions opts;
  opts.max_crashes = 0;
  opts.max_violations = 1 << 20;  // never stop early: enumerate everything
  // POR off: the arithmetic below accounts every execution to either a
  // checked history or a deadlock; sleep-set pruning adds a third outcome.
  opts.use_por = false;
  Explorer<RegSpec> ex(RegSpec{}, factory, opts);
  Report report = ex.Run();
  ASSERT_FALSE(report.truncated);
  size_t deadlocks = 0;
  for (const Violation& v : report.violations) {
    EXPECT_EQ(v.kind, "deadlock");
    ++deadlocks;
  }
  // Both behaviors must be present, and together they must account for
  // every enumerated execution: aborted runs may not swallow the rest of
  // the space, completing runs may not be revisited.
  EXPECT_GT(deadlocks, 0u);
  EXPECT_GT(report.histories_checked, 0u);
  EXPECT_EQ(report.executions, report.histories_checked + deadlocks);
  // The enumeration is deterministic: a second full run sees the identical
  // space (including the same violation traces, via Summary()).
  Explorer<RegSpec> again(RegSpec{}, factory, opts);
  EXPECT_EQ(again.Run().Summary(), report.Summary());
}

TEST(Explorer, PctModeSameSeedSameTrace) {
  // Seed determinism of the PCT driver (and its crash sampling): identical
  // options must replay the identical run sequence, violation for
  // violation, trace for trace.
  auto factory = [] { return MakeDiskRegisterInstance(true); };  // buggy: wipes on recovery
  ExplorerOptions opts;
  opts.mode = ExplorerOptions::Mode::kPct;
  opts.random_runs = 300;
  opts.seed = 123;
  opts.max_crashes = 1;
  opts.max_violations = 1 << 20;
  Explorer<RegSpec> first(RegSpec{}, factory, opts);
  Report a = first.Run();
  Explorer<RegSpec> second(RegSpec{}, factory, opts);
  Report b = second.Run();
  ASSERT_FALSE(a.ok());  // the wiping recovery is reachable by sampled crashes
  ASSERT_EQ(a.violations.size(), b.violations.size());
  for (size_t i = 0; i < a.violations.size(); ++i) {
    EXPECT_EQ(a.violations[i].trace, b.violations[i].trace);
  }
  EXPECT_EQ(a.Summary(), b.Summary());
}

TEST(Explorer, ProgressCallbackFiresEveryInterval) {
  std::vector<ExplorerProgress> seen;
  ExplorerOptions opts;
  opts.max_crashes = 0;
  opts.progress_interval = 8;
  opts.progress_callback = [&](const ExplorerProgress& p) { seen.push_back(p); };
  Explorer<RegSpec> ex(RegSpec{}, MakeLockedRegisterInstance, opts);
  Report report = ex.Run();
  EXPECT_TRUE(report.ok()) << report.Summary();
  ASSERT_EQ(seen.size(), report.executions / 8);
  ASSERT_FALSE(seen.empty());
  for (size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i].executions, 8 * (i + 1));
    EXPECT_EQ(seen[i].violations, 0u);
  }
  EXPECT_LE(seen.back().total_steps, report.total_steps);
}

TEST(Explorer, PctProgressIsCumulativeAcrossSlices) {
  // PCT runs in 64-run slices; the callback must count the whole run, not
  // restart with every slice.
  std::vector<uint64_t> seen;
  ExplorerOptions opts;
  opts.mode = ExplorerOptions::Mode::kPct;
  opts.max_crashes = 1;
  opts.random_runs = 256;
  opts.progress_interval = 16;
  opts.progress_callback = [&](const ExplorerProgress& p) { seen.push_back(p.executions); };
  Report report =
      Explorer<RegSpec>(RegSpec{}, [] { return MakeDiskRegisterInstance(false); }, opts).Run();
  ASSERT_TRUE(report.ok()) << report.Summary();
  ASSERT_EQ(report.executions, 256u);
  ASSERT_EQ(seen.size(), 16u);
  for (size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i], 16 * (i + 1));
  }

  // At the default interval (1024) a 4,096-run sample reports 4 times.
  seen.clear();
  opts.random_runs = 4096;
  opts.progress_interval = ExplorerOptions{}.progress_interval;
  report = Explorer<RegSpec>(RegSpec{}, [] { return MakeDiskRegisterInstance(false); }, opts).Run();
  ASSERT_TRUE(report.ok()) << report.Summary();
  EXPECT_GE(seen.size(), 4u);
  for (size_t i = 1; i < seen.size(); ++i) {
    EXPECT_GT(seen[i], seen[i - 1]);
  }
}

TEST(Explorer, DedupHistoriesKeepsVerdictAndCountsChecks) {
  // Dedup must not change the verdict, only skip redundant spec searches.
  ExplorerOptions opts;
  opts.max_crashes = 0;
  opts.dedup_histories = true;
  Explorer<RegSpec> ex(RegSpec{}, MakeLockedRegisterInstance, opts);
  Report report = ex.Run();
  EXPECT_TRUE(report.ok()) << report.Summary();
  // Three fixed ops produce few distinct histories over many schedules.
  EXPECT_GT(report.histories_deduped, 0u);
  EXPECT_LE(report.histories_deduped, report.histories_checked);

  ExplorerOptions off = opts;
  off.dedup_histories = false;
  Explorer<RegSpec> baseline(RegSpec{}, MakeLockedRegisterInstance, off);
  Report base = baseline.Run();
  EXPECT_EQ(report.executions, base.executions);
  EXPECT_EQ(report.histories_checked, base.histories_checked);
  EXPECT_LT(report.spec_states_explored, base.spec_states_explored);
}

TEST(Explorer, EnvEventFiresWithinBudget) {
  auto factory = [] {
    auto sys = std::make_shared<DiskRegister>();
    Instance<RegSpec> inst;
    inst.keep_alive = sys;
    inst.world = &sys->world;
    inst.client_ops = {{Write(4)}};
    inst.run_op = [sys](int, uint64_t, RegSpec::Op op) { return sys->Run(op); };
    inst.recover = [sys](History<RegSpec>*) { return sys->Recover(); };
    // Poking the same value is spec-invisible; the event must not break
    // refinement, and budget limits it to one firing.
    inst.env_events.push_back(
        EnvEvent{"poke-noop", 1, [sys] { sys->d.PokeBlock(0, sys->d.PeekBlock(0)); }});
    inst.observer_ops = {Read()};
    return inst;
  };
  ExplorerOptions opts;
  opts.max_crashes = 0;
  Explorer<RegSpec> ex(RegSpec{}, factory, opts);
  Report report = ex.Run();
  EXPECT_TRUE(report.ok()) << report.Summary();
}

}  // namespace
}  // namespace perennial::refine
