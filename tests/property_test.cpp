// Property-based tests (parameterized sweeps): random operation sequences
// checked against reference models, crash/recovery idempotence, and
// randomized exploration across seeds.
#include <map>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/rand.h"
#include "src/goose/heap.h"
#include "src/goose/world.h"
#include "src/goosefs/goosefs.h"
#include "src/refine/explorer.h"
#include "src/systems/gc/gc_spec.h"
#include "src/systems/gc/group_commit.h"
#include "src/systems/kvs/kv_harness.h"
#include "src/systems/repl/repl_harness.h"
#include "src/goose/channel.h"
#include "src/systems/txnlog/txn_harness.h"
#include "src/systems/wal/wal_pair.h"
#include "tests/sim_util.h"

namespace perennial {
namespace {

using perennial::testing::DrainLowestFirst;
using proc::Task;

// ---------- GooseFs vs a reference model ----------

// Reference: dir -> name -> contents, with link sharing ignored (the model
// copies contents on link, which is observationally equivalent here since
// linked files are never appended to afterwards in this workload).
class FsPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FsPropertyTest, RandomOpsMatchReferenceModel) {
  Rng rng(GetParam());
  goose::World world;
  goosefs::GooseFs fs(&world, {"d0", "d1"});
  std::map<std::string, std::map<std::string, std::string>> model{{"d0", {}}, {"d1", {}}};

  auto dir_of = [&](uint64_t i) { return i % 2 == 0 ? std::string("d0") : std::string("d1"); };

  proc::Scheduler sched;
  proc::SchedulerScope scope(&sched);
  for (int step = 0; step < 120; ++step) {
    uint64_t action = rng.Below(5);
    std::string dir = dir_of(rng.Next());
    std::string name = "f" + std::to_string(rng.Below(4));
    auto run = [&](auto&& task) {
      sched.Spawn(std::forward<decltype(task)>(task));
      DrainLowestFirst(sched);
    };
    switch (action) {
      case 0: {  // create + write + close
        std::string contents = "c" + std::to_string(rng.Below(100));
        bool expect_ok = model[dir].count(name) == 0;
        bool got_ok = false;
        run([&]() -> Task<void> {
          Result<goosefs::Fd> fd = co_await fs.Create(dir, name);
          got_ok = fd.ok();
          if (fd.ok()) {
            (void)co_await fs.Append(fd.value(), goosefs::BytesOfString(contents));
            (void)co_await fs.Close(fd.value());
          }
        }());
        ASSERT_EQ(got_ok, expect_ok) << "create " << dir << "/" << name;
        if (expect_ok) {
          model[dir][name] = contents;
        }
        break;
      }
      case 1: {  // read
        std::optional<std::string> got;
        run([&]() -> Task<void> {
          Result<goosefs::Fd> fd = co_await fs.Open(dir, name);
          if (fd.ok()) {
            Result<goosefs::Bytes> data = co_await fs.ReadAt(fd.value(), 0, 1000);
            got = goosefs::StringOfBytes(data.value());
            (void)co_await fs.Close(fd.value());
          }
        }());
        auto it = model[dir].find(name);
        if (it == model[dir].end()) {
          ASSERT_EQ(got, std::nullopt);
        } else {
          ASSERT_EQ(got, it->second);
        }
        break;
      }
      case 2: {  // delete
        bool expect_ok = model[dir].count(name) > 0;
        bool got_ok = false;
        run([&]() -> Task<void> {
          got_ok = (co_await fs.Delete(dir, name)).ok();
        }());
        ASSERT_EQ(got_ok, expect_ok);
        model[dir].erase(name);
        break;
      }
      case 3: {  // link to the other directory
        std::string dst_dir = dir == "d0" ? "d1" : "d0";
        std::string dst_name = "f" + std::to_string(rng.Below(4));
        bool expect_ok = model[dir].count(name) > 0 && model[dst_dir].count(dst_name) == 0;
        bool got_ok = false;
        run([&]() -> Task<void> {
          Result<bool> linked = co_await fs.Link(dir, name, dst_dir, dst_name);
          got_ok = linked.ok() && linked.value();
        }());
        ASSERT_EQ(got_ok, expect_ok);
        if (expect_ok) {
          model[dst_dir][dst_name] = model[dir][name];
        }
        break;
      }
      case 4: {  // list
        std::vector<std::string> got;
        run([&]() -> Task<void> {
          got = (co_await fs.List(dir)).value();
        }());
        std::vector<std::string> expect;
        for (const auto& [n, c] : model[dir]) {
          expect.push_back(n);
        }
        ASSERT_EQ(got, expect);
        break;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FsPropertyTest, ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ---------- Heap slices vs std::vector ----------

class SlicePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SlicePropertyTest, RandomSliceOpsMatchVector) {
  Rng rng(GetParam() * 77 + 5);
  goose::World world;
  goose::Heap heap(&world);
  std::vector<int> model{1, 2, 3, 4, 5};
  goose::Slice<int> slice = heap.SliceFromVector(model);

  proc::Scheduler sched;
  proc::SchedulerScope scope(&sched);
  for (int step = 0; step < 80; ++step) {
    uint64_t action = rng.Below(4);
    auto run = [&](auto&& task) {
      sched.Spawn(std::forward<decltype(task)>(task));
      DrainLowestFirst(sched);
    };
    switch (action) {
      case 0: {  // set
        uint64_t i = rng.Below(model.size());
        int v = static_cast<int>(rng.Below(1000));
        run([&]() -> Task<void> { co_await heap.SliceSet(slice, i, v); }());
        model[i] = v;
        break;
      }
      case 1: {  // get
        uint64_t i = rng.Below(model.size());
        int got = 0;
        run([&]() -> Task<void> { got = co_await heap.SliceGet(slice, i); }());
        ASSERT_EQ(got, model[i]);
        break;
      }
      case 2: {  // append (replaces handle)
        int v = static_cast<int>(rng.Below(1000));
        run([&]() -> Task<void> { slice = co_await heap.SliceAppend(slice, v); }());
        model.push_back(v);
        break;
      }
      case 3: {  // ranged copy
        uint64_t lo = rng.Below(model.size());
        uint64_t hi = lo + rng.Below(model.size() - lo + 1);
        std::vector<int> got;
        run([&]() -> Task<void> { got = co_await heap.SliceCopyOut(slice, lo, hi); }());
        std::vector<int> expect(model.begin() + static_cast<long>(lo),
                                model.begin() + static_cast<long>(hi));
        ASSERT_EQ(got, expect);
        break;
      }
    }
    ASSERT_EQ(heap.PeekSlice(slice), model);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SlicePropertyTest, ::testing::Values(1, 2, 3, 4, 5, 6));

// ---------- Group commit: sequential random workloads agree with the spec ----------

class GcPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GcPropertyTest, SequentialOpsMatchSpecSemantics) {
  Rng rng(GetParam() * 131 + 1);
  goose::World world;
  systems::GroupCommit gc(&world, 64);
  systems::GcSpec spec;
  systems::GcSpec::State spec_state = spec.Initial();

  proc::Scheduler sched;
  proc::SchedulerScope scope(&sched);
  for (int step = 0; step < 60; ++step) {
    uint64_t action = rng.Below(3);
    auto run = [&](auto&& task) {
      sched.Spawn(std::forward<decltype(task)>(task));
      DrainLowestFirst(sched);
    };
    systems::GcSpec::Op op;
    uint64_t impl_ret = 0;
    switch (action) {
      case 0: {
        uint64_t v = rng.Below(50) + 1;
        op = systems::GcSpec::MakeWrite(v);
        run([&]() -> Task<void> { co_await gc.Write(v); }());
        break;
      }
      case 1: {
        op = systems::GcSpec::MakeRead();
        run([&]() -> Task<void> { impl_ret = co_await gc.Read(); }());
        break;
      }
      case 2: {
        op = systems::GcSpec::MakeFlush();
        run([&]() -> Task<void> { co_await gc.Flush(); }());
        break;
      }
    }
    auto out = spec.Step(spec_state, op);
    ASSERT_EQ(out.branches.size(), 1u);
    ASSERT_EQ(impl_ret, out.branches[0].second);
    spec_state = out.branches[0].first;
    ASSERT_TRUE(gc.crash_invariants().AllHold());
  }
  // The durable value agrees with the spec after a final flush.
  {
    sched.Spawn([](systems::GroupCommit* g) -> Task<void> { co_await g->Flush(); }(&gc));
    DrainLowestFirst(sched);
    auto out = spec.Step(spec_state, systems::GcSpec::MakeFlush());
    spec_state = out.branches[0].first;
    ASSERT_EQ(gc.PeekDurable(), spec_state.durable);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GcPropertyTest, ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ---------- DurableKv: sequential random workloads agree with the spec ----------

class KvPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(KvPropertyTest, SequentialOpsMatchSpecSemantics) {
  constexpr uint64_t kKeys = 4;
  Rng rng(GetParam() * 997 + 3);
  goose::World world;
  systems::DurableKv kv(&world, kKeys);
  systems::KvSpec spec{kKeys};
  systems::KvSpec::State spec_state = spec.Initial();

  proc::Scheduler sched;
  proc::SchedulerScope scope(&sched);
  uint64_t op_id = 1;
  for (int step = 0; step < 50; ++step) {
    uint64_t action = rng.Below(3);
    auto run = [&](auto&& task) {
      sched.Spawn(std::forward<decltype(task)>(task));
      DrainLowestFirst(sched);
    };
    systems::KvSpec::Op op;
    uint64_t impl_ret = 0;
    switch (action) {
      case 0: {
        op = systems::KvSpec::MakeGet(rng.Below(kKeys));
        run([&]() -> Task<void> { impl_ret = co_await kv.Get(op.k1); }());
        break;
      }
      case 1: {
        op = systems::KvSpec::MakePut(rng.Below(kKeys), rng.Below(100));
        run([&]() -> Task<void> { co_await kv.Put(op.k1, op.v1, op_id++); }());
        break;
      }
      case 2: {
        uint64_t k1 = rng.Below(kKeys);
        uint64_t k2 = (k1 + 1 + rng.Below(kKeys - 1)) % kKeys;
        op = systems::KvSpec::MakePutPair(k1, rng.Below(100), k2, rng.Below(100));
        run([&]() -> Task<void> {
          co_await kv.PutPair(op.k1, op.v1, op.k2, op.v2, op_id++);
        }());
        break;
      }
    }
    auto out = spec.Step(spec_state, op);
    ASSERT_EQ(out.branches.size(), 1u);
    ASSERT_EQ(impl_ret, out.branches[0].second);
    spec_state = out.branches[0].first;
    ASSERT_TRUE(kv.crash_invariants().AllHold());
  }
  for (uint64_t k = 0; k < kKeys; ++k) {
    ASSERT_EQ(kv.PeekValue(k), spec_state.values[k]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KvPropertyTest, ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ---------- Recovery idempotence: crash anywhere, recover repeatedly ----------

class RecoveryIdempotenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RecoveryIdempotenceTest, WalRecoveryIsIdempotentUnderRepeatedCrashes) {
  Rng rng(GetParam() * 31 + 11);
  goose::World world;
  systems::WalPair wal(&world);
  // Run a write for a random number of steps, crash, then run recovery to
  // a random depth, crash again, and finally recover fully — the data must
  // end up in a consistent (un-torn) state and invariants must hold.
  {
    proc::Scheduler sched;
    proc::SchedulerScope scope(&sched);
    auto write = [&]() -> Task<void> { co_await wal.WritePair(11, 22, 1); };
    sched.Spawn(write());
    uint64_t steps = rng.Below(12);
    for (uint64_t i = 0; i < steps && !sched.AllDone(); ++i) {
      sched.Step(0);
    }
    sched.KillAllThreads();
  }
  world.Crash();
  ASSERT_TRUE(wal.crash_invariants().AllHold());
  for (int round = 0; round < 2; ++round) {
    proc::Scheduler sched;
    proc::SchedulerScope scope(&sched);
    auto recover = [&]() -> Task<void> { co_await wal.Recover([](uint64_t) {}); };
    sched.Spawn(recover());
    uint64_t steps = rng.Below(8);
    bool done = false;
    for (uint64_t i = 0; i < steps && !sched.AllDone(); ++i) {
      done = sched.Step(0);
    }
    if (done || sched.AllDone()) {
      break;
    }
    sched.KillAllThreads();
    world.Crash();
    ASSERT_TRUE(wal.crash_invariants().AllHold());
  }
  // Final full recovery.
  {
    proc::Scheduler sched;
    proc::SchedulerScope scope(&sched);
    // The partial recovery above may have consumed the helping token; a
    // fresh recovery must still terminate and restore consistency.
    world.Crash();
    auto recover = [&]() -> Task<void> { co_await wal.Recover([](uint64_t) {}); };
    sched.Spawn(recover());
    DrainLowestFirst(sched);
  }
  ASSERT_TRUE(wal.crash_invariants().AllHold());
  auto pair = wal.PeekData();
  // Un-torn: either the old pair or the new one.
  bool old_state = pair.first == 0 && pair.second == 0;
  bool new_state = pair.first == 11 && pair.second == 22;
  ASSERT_TRUE(old_state || new_state) << pair.first << "," << pair.second;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RecoveryIdempotenceTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12));

// ---------- TxnLog: sequential random workloads agree with the spec ----------

class TxnPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TxnPropertyTest, SequentialOpsMatchSpecSemantics) {
  constexpr uint64_t kAddrs = 3;
  Rng rng(GetParam() * 271 + 9);
  goose::World world;
  systems::TxnLog log(&world, kAddrs, 16);
  systems::TxnSpec spec{kAddrs};
  systems::TxnSpec::State spec_state = spec.Initial();

  proc::Scheduler sched;
  proc::SchedulerScope scope(&sched);
  uint64_t op_id = 1;
  for (int step = 0; step < 60; ++step) {
    uint64_t action = rng.Below(4);
    auto run = [&](auto&& task) {
      sched.Spawn(std::forward<decltype(task)>(task));
      DrainLowestFirst(sched);
    };
    systems::TxnSpec::Op op;
    uint64_t impl_ret = 0;
    switch (action) {
      case 0:
      case 1: {  // single or double-record batch
        std::vector<std::pair<uint64_t, uint64_t>> records;
        records.emplace_back(rng.Below(kAddrs), rng.Below(50));
        if (action == 1) {
          records.emplace_back(rng.Below(kAddrs), rng.Below(50));
        }
        op = systems::TxnSpec::MakeBatch(records);
        run([&]() -> Task<void> { co_await log.CommitBatch(records, op_id++); }());
        break;
      }
      case 2: {
        op = systems::TxnSpec::MakeRead(rng.Below(kAddrs));
        run([&]() -> Task<void> { impl_ret = co_await log.Read(op.addr); }());
        break;
      }
      case 3: {
        op = systems::TxnSpec::MakeCheckpoint();
        run([&]() -> Task<void> { co_await log.Checkpoint(); }());
        break;
      }
    }
    auto out = spec.Step(spec_state, op);
    ASSERT_EQ(out.branches.size(), 1u);
    ASSERT_EQ(impl_ret, out.branches[0].second);
    spec_state = out.branches[0].first;
    ASSERT_TRUE(log.crash_invariants().AllHold());
  }
  for (uint64_t a = 0; a < kAddrs; ++a) {
    ASSERT_EQ(log.PeekCommitted(a), spec_state.values[a]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TxnPropertyTest, ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ---------- Deferred durability: crash keeps exactly the synced prefix ----------

class DeferredDurabilityPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DeferredDurabilityPropertyTest, CrashPreservesTheSyncedPrefix) {
  Rng rng(GetParam() * 41 + 17);
  goose::World world;
  goosefs::GooseFs fs(&world, {"d"}, {.deferred_durability = true});
  proc::Scheduler sched;
  proc::SchedulerScope scope(&sched);

  std::string full;
  std::string synced;
  goosefs::Fd fd = 0;
  auto run = [&](auto&& task) {
    sched.Spawn(std::forward<decltype(task)>(task));
    DrainLowestFirst(sched);
  };
  run([&]() -> Task<void> { fd = (co_await fs.Create("d", "f")).value(); }());
  for (int step = 0; step < 30; ++step) {
    if (rng.Chance(0.7)) {
      std::string chunk(rng.Below(4) + 1, static_cast<char>('a' + rng.Below(26)));
      run([&]() -> Task<void> {
        (void)co_await fs.Append(fd, goosefs::BytesOfString(chunk));
      }());
      full += chunk;
    } else {
      run([&]() -> Task<void> { (void)co_await fs.Sync(fd); }());
      synced = full;
    }
  }
  ASSERT_EQ(goosefs::StringOfBytes(*fs.PeekFile("d", "f")), full);
  world.Crash();
  ASSERT_EQ(goosefs::StringOfBytes(*fs.PeekFile("d", "f")), synced);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeferredDurabilityPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

// ---------- Channels: FIFO integrity under random producer/consumer ----------

class ChannelPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ChannelPropertyTest, EverySentValueArrivesInOrder) {
  Rng rng(GetParam() * 61 + 23);
  goose::World world;
  goose::Chan<int> ch(&world, rng.Below(3) + 1);
  proc::Scheduler sched;
  proc::SchedulerScope scope(&sched);
  const int kCount = 25;
  std::vector<int> received;
  auto producer = [&]() -> Task<void> {
    for (int i = 0; i < kCount; ++i) {
      co_await ch.Send(i);
    }
    co_await ch.Close();
  };
  auto consumer = [&]() -> Task<void> {
    while (true) {
      std::optional<int> v = co_await ch.Recv();
      if (!v.has_value()) {
        co_return;
      }
      received.push_back(*v);
    }
  };
  sched.Spawn(producer());
  sched.Spawn(consumer());
  // Random schedule each seed.
  Rng sched_rng(GetParam());
  while (!sched.AllDone()) {
    auto runnable = sched.RunnableThreads();
    ASSERT_FALSE(runnable.empty());
    sched.Step(runnable[sched_rng.Below(runnable.size())]);
  }
  ASSERT_EQ(received.size(), static_cast<size_t>(kCount));
  for (int i = 0; i < kCount; ++i) {
    ASSERT_EQ(received[static_cast<size_t>(i)], i);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChannelPropertyTest, ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ---------- Randomized exploration across seeds ----------

class RandomExploreTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomExploreTest, ReplicatedDiskHoldsUnderRandomSchedules) {
  systems::ReplHarnessOptions options;
  options.num_blocks = 2;
  options.client_ops = {{systems::ReplSpec::MakeWrite(0, 1), systems::ReplSpec::MakeWrite(1, 2)},
                        {systems::ReplSpec::MakeWrite(0, 3), systems::ReplSpec::MakeRead(1)}};
  refine::ExplorerOptions opts;
  opts.mode = refine::ExplorerOptions::Mode::kPct;
  opts.random_runs = 120;
  opts.seed = GetParam();
  opts.max_crashes = 2;
  refine::Explorer<systems::ReplSpec> ex(systems::ReplSpec{2},
                                         [&] { return MakeReplInstance(options); }, opts);
  refine::Report report = ex.Run();
  EXPECT_TRUE(report.ok()) << report.Summary();
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomExploreTest, ::testing::Values(11, 22, 33, 44, 55));

}  // namespace
}  // namespace perennial
