// Microbenchmarks (google-benchmark): the cost of the framework's moving
// parts — scheduler steps, modeled heap and file-system operations, the
// linearization search, whole explorer runs, and native Mailboat
// operations on tmpfs. These quantify the overhead budget behind the
// checker-throughput numbers in bench_sec91_patterns.
#include <benchmark/benchmark.h>

#include <chrono>
#include <filesystem>
#include <memory>
#include <vector>

#include "bench/bench_json.h"

#include "src/disk/disk.h"
#include "src/goose/heap.h"
#include "src/goose/channel.h"
#include "src/goose/mutex.h"
#include "src/goose/sync_extra.h"
#include "src/goose/world.h"
#include "src/goosefs/goosefs.h"
#include "src/goosefs/posix_fs.h"
#include "src/mailboat/mail_harness.h"
#include "src/mailboat/mailboat.h"
#include "src/refine/explorer.h"
#include "src/refine/linearize.h"
#include "src/refine/parallel_explorer.h"
#include "src/systems/pattern_harness.h"
#include "src/systems/repl/repl_harness.h"
#include "src/systems/txnlog/txn_log.h"
#include "tests/sim_util.h"

namespace {

using namespace perennial;  // NOLINT

void BM_SchedulerSpawnStep(benchmark::State& state) {
  for (auto _ : state) {
    proc::Scheduler sched;
    proc::SchedulerScope scope(&sched);
    auto body = []() -> proc::Task<void> {
      for (int i = 0; i < 16; ++i) {
        co_await proc::Yield();
      }
    };
    sched.Spawn(body());
    while (!sched.AllDone()) {
      sched.Step(0);
    }
  }
  state.SetItemsProcessed(state.iterations() * 17);
}
BENCHMARK(BM_SchedulerSpawnStep);

void BM_HeapLoadStoreSim(benchmark::State& state) {
  goose::World world;
  goose::Heap heap(&world);
  goose::Ptr<uint64_t> p = heap.New<uint64_t>(0);
  for (auto _ : state) {
    proc::Scheduler sched;
    proc::SchedulerScope scope(&sched);
    auto body = [&]() -> proc::Task<void> {
      co_await heap.Store<uint64_t>(p, 1);
      benchmark::DoNotOptimize(co_await heap.Load(p));
    };
    sched.Spawn(body());
    while (!sched.AllDone()) {
      sched.Step(0);
    }
  }
}
BENCHMARK(BM_HeapLoadStoreSim);

void BM_HeapLoadStoreNative(benchmark::State& state) {
  goose::World world;
  goose::Heap heap(&world);
  goose::Ptr<uint64_t> p = heap.New<uint64_t>(0);
  for (auto _ : state) {
    auto body = [&]() -> proc::Task<void> {
      co_await heap.Store<uint64_t>(p, 1);
      benchmark::DoNotOptimize(co_await heap.Load(p));
    };
    proc::RunSyncVoid(body());
  }
}
BENCHMARK(BM_HeapLoadStoreNative);

void BM_MutexLockUnlockNative(benchmark::State& state) {
  goose::World world;
  goose::Mutex mu(&world);
  for (auto _ : state) {
    auto body = [&]() -> proc::Task<void> {
      co_await mu.Lock();
      co_await mu.Unlock();
    };
    proc::RunSyncVoid(body());
  }
}
BENCHMARK(BM_MutexLockUnlockNative);

void BM_GooseFsCreateAppendDelete(benchmark::State& state) {
  goose::World world;
  goosefs::GooseFs fs(&world, {"dir"});
  goosefs::Bytes data(128, 'x');
  for (auto _ : state) {
    auto body = [&]() -> proc::Task<void> {
      goosefs::Fd fd = (co_await fs.Create("dir", "f")).value();
      (void)co_await fs.Append(fd, data);
      (void)co_await fs.Close(fd);
      (void)co_await fs.Delete("dir", "f");
    };
    proc::RunSyncVoid(body());
  }
}
BENCHMARK(BM_GooseFsCreateAppendDelete);

void BM_PosixFsCreateAppendDelete(benchmark::State& state) {
  std::string root = "/dev/shm/pcc_micro";
  std::error_code ec;
  std::filesystem::remove_all(root, ec);
  if (!std::filesystem::create_directories(root, ec)) {
    root = std::filesystem::temp_directory_path().string() + "/pcc_micro";
    std::filesystem::remove_all(root, ec);
    std::filesystem::create_directories(root, ec);
  }
  goosefs::PosixFilesys fs(root, {.cache_dir_fds = true});
  (void)fs.EnsureDirs({"dir"});
  goosefs::Bytes data(128, 'x');
  for (auto _ : state) {
    auto body = [&]() -> proc::Task<void> {
      goosefs::Fd fd = (co_await fs.Create("dir", "f")).value();
      (void)co_await fs.Append(fd, data);
      (void)co_await fs.Close(fd);
      (void)co_await fs.Delete("dir", "f");
    };
    proc::RunSyncVoid(body());
  }
  std::filesystem::remove_all(root, ec);
}
BENCHMARK(BM_PosixFsCreateAppendDelete);

void BM_DiskWriteSim(benchmark::State& state) {
  goose::World world;
  disk::Disk d(&world, 8, disk::BlockOfU64(0));
  disk::Block b = disk::BlockOfU64(42);
  for (auto _ : state) {
    proc::Scheduler sched;
    proc::SchedulerScope scope(&sched);
    auto body = [&]() -> proc::Task<void> { (void)co_await d.Write(0, b); };
    sched.Spawn(body());
    while (!sched.AllDone()) {
      sched.Step(0);
    }
  }
}
BENCHMARK(BM_DiskWriteSim);

void BM_LinearizeConcurrentHistory(benchmark::State& state) {
  // A history with `n` overlapping register writes + one read: the search
  // must consider many linearization orders.
  using Spec = systems::ReplSpec;
  Spec spec{1};
  refine::History<Spec> history;
  int n = static_cast<int>(state.range(0));
  std::vector<uint64_t> ids;
  for (int i = 0; i < n; ++i) {
    ids.push_back(history.Invoke(i, Spec::MakeWrite(0, static_cast<uint64_t>(i + 1))));
  }
  uint64_t read_id = history.Invoke(n, Spec::MakeRead(0));
  history.Return(read_id, static_cast<uint64_t>(n));
  for (uint64_t id : ids) {
    history.Return(id, 0);
  }
  for (auto _ : state) {
    refine::LinearizabilityChecker<Spec> checker(&spec);
    auto result = checker.Check(history);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_LinearizeConcurrentHistory)->Arg(2)->Arg(4)->Arg(6);

void BM_ExplorerReplExhaustive(benchmark::State& state) {
  using namespace perennial::systems;  // NOLINT
  ReplHarnessOptions options;
  options.num_blocks = 1;
  options.client_ops = {{ReplSpec::MakeWrite(0, 5)}, {ReplSpec::MakeWrite(0, 7)}};
  for (auto _ : state) {
    refine::ExplorerOptions opts;
    opts.max_crashes = static_cast<int>(state.range(0));
    refine::Explorer<ReplSpec> ex(ReplSpec{1}, [&] { return MakeReplInstance(options); }, opts);
    refine::Report report = ex.Run();
    benchmark::DoNotOptimize(report);
    state.counters["executions"] = static_cast<double>(report.executions);
  }
}
BENCHMARK(BM_ExplorerReplExhaustive)->Arg(0)->Arg(1);

// The exhaustive-DFS workload used to measure parallel speedup: heavy
// enough (tens of thousands of executions) that worker fan-out dominates
// coordination overhead. Arg 0 = the serial reference Explorer; Arg N>0 =
// ParallelExplorer with N workers. Compare the wall-clock times across
// args for the speedup (the executions counter must not vary with N).
void BM_ExplorerExhaustiveWorkers(benchmark::State& state) {
  using namespace perennial::systems;  // NOLINT
  ReplHarnessOptions options;
  options.num_blocks = 1;
  options.client_ops = {{ReplSpec::MakeWrite(0, 5), ReplSpec::MakeRead(0)},
                        {ReplSpec::MakeWrite(0, 7)}};
  const int workers = static_cast<int>(state.range(0));
  for (auto _ : state) {
    refine::ExplorerOptions opts;
    opts.max_crashes = 1;
    refine::Report report;
    if (workers == 0) {
      refine::Explorer<ReplSpec> ex(ReplSpec{1}, [&] { return MakeReplInstance(options); }, opts);
      report = ex.Run();
    } else {
      opts.num_workers = workers;
      refine::ParallelExplorer<ReplSpec> ex(ReplSpec{1},
                                            [&] { return MakeReplInstance(options); }, opts);
      report = ex.Run();
    }
    benchmark::DoNotOptimize(report);
    state.counters["executions"] = static_cast<double>(report.executions);
  }
}
BENCHMARK(BM_ExplorerExhaustiveWorkers)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

// The two exhaustive verdicts of perfbench's check-verify workload (POR on)
// at N ParallelExplorer workers. Arg 0 picks the system: 0 = WAL, three
// writers, two crashes (54,277 executions); 1 = Mailboat, two deliveries
// and a pickup-delete, one crash (68,765). Arg 1 = workers.
void BM_ExplorerExhaustiveWorkersCheckVerify(benchmark::State& state) {
  using namespace perennial::systems;  // NOLINT
  using perennial::mailboat::MailAction;
  const bool mail = state.range(0) != 0;
  refine::ExplorerOptions opts;
  opts.max_crashes = mail ? 1 : 2;
  opts.use_por = true;
  opts.num_workers = static_cast<int>(state.range(1));
  for (auto _ : state) {
    refine::Report report;
    if (mail) {
      mailboat::MailHarnessOptions options;
      options.num_users = 1;
      options.client_scripts = {{{MailAction::Kind::kDeliver, 0, "a"}},
                                {{MailAction::Kind::kDeliver, 0, "b"}},
                                {{MailAction::Kind::kPickupDeleteAllUnlock, 0, ""}}};
      report = refine::ParallelExplorer<mailboat::MailSpec>(
                   mailboat::MailSpec{1}, [&] { return mailboat::MakeMailInstance(options); }, opts)
                   .Run();
    } else {
      WalHarnessOptions options;
      options.client_ops = {
          {PairSpec::MakeWrite(1, 2)}, {PairSpec::MakeWrite(3, 4)}, {PairSpec::MakeWrite(5, 6)}};
      report = refine::ParallelExplorer<PairSpec>(
                   PairSpec{}, [&] { return MakeWalInstance(options); }, opts)
                   .Run();
    }
    benchmark::DoNotOptimize(report);
    state.counters["executions"] = static_cast<double>(report.executions);
    state.counters["spec_states"] = static_cast<double>(report.spec_states_explored);
  }
}
BENCHMARK(BM_ExplorerExhaustiveWorkersCheckVerify)
    ->ArgsProduct({{0, 1}, {1, 2, 4}})
    ->Unit(benchmark::kMillisecond);

// Sleep-set POR on the same workload: fewer executions (see the counter)
// at identical verdicts. Arg 0 = POR off (unreduced baseline), Arg 1 = on.
void BM_ExplorerPartialOrderReduction(benchmark::State& state) {
  using namespace perennial::systems;  // NOLINT
  ReplHarnessOptions options;
  options.num_blocks = 1;
  options.client_ops = {{ReplSpec::MakeWrite(0, 5), ReplSpec::MakeRead(0)},
                        {ReplSpec::MakeWrite(0, 7)}};
  for (auto _ : state) {
    refine::ExplorerOptions opts;
    opts.max_crashes = 1;
    opts.use_por = state.range(0) != 0;
    refine::Explorer<ReplSpec> ex(ReplSpec{1}, [&] { return MakeReplInstance(options); }, opts);
    refine::Report report = ex.Run();
    benchmark::DoNotOptimize(report);
    state.counters["executions"] = static_cast<double>(report.executions);
  }
}
BENCHMARK(BM_ExplorerPartialOrderReduction)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// Fingerprint pruning on the same workload: identical executions, far
// fewer linearizability searches (see the deduped counter).
void BM_ExplorerFingerprintDedup(benchmark::State& state) {
  using namespace perennial::systems;  // NOLINT
  ReplHarnessOptions options;
  options.num_blocks = 1;
  options.client_ops = {{ReplSpec::MakeWrite(0, 5), ReplSpec::MakeRead(0)},
                        {ReplSpec::MakeWrite(0, 7)}};
  for (auto _ : state) {
    refine::ExplorerOptions opts;
    opts.max_crashes = 1;
    opts.dedup_histories = state.range(0) != 0;
    refine::Explorer<ReplSpec> ex(ReplSpec{1}, [&] { return MakeReplInstance(options); }, opts);
    refine::Report report = ex.Run();
    benchmark::DoNotOptimize(report);
    state.counters["deduped"] = static_cast<double>(report.histories_deduped);
  }
}
BENCHMARK(BM_ExplorerFingerprintDedup)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_RWMutexReadSideNative(benchmark::State& state) {
  goose::World world;
  goose::RWMutex mu(&world);
  for (auto _ : state) {
    auto body = [&]() -> proc::Task<void> {
      co_await mu.RLock();
      co_await mu.RUnlock();
    };
    proc::RunSyncVoid(body());
  }
}
BENCHMARK(BM_RWMutexReadSideNative);

void BM_ChannelSendRecvNative(benchmark::State& state) {
  goose::World world;
  goose::Chan<int> ch(&world, 16);
  for (auto _ : state) {
    auto body = [&]() -> proc::Task<void> {
      co_await ch.Send(1);
      benchmark::DoNotOptimize(co_await ch.Recv());
    };
    proc::RunSyncVoid(body());
  }
}
BENCHMARK(BM_ChannelSendRecvNative);

void BM_TxnLogCommitSim(benchmark::State& state) {
  goose::World world;
  systems::TxnLog log(&world, 4, 64);
  std::vector<std::pair<uint64_t, uint64_t>> batch{{0, 7}, {1, 9}};
  for (auto _ : state) {
    proc::Scheduler sched;
    proc::SchedulerScope scope(&sched);
    auto body = [&]() -> proc::Task<void> { co_await log.CommitBatch(batch, 1); };
    sched.Spawn(body());
    while (!sched.AllDone()) {
      sched.Step(0);
    }
  }
}
BENCHMARK(BM_TxnLogCommitSim);

void BM_MailboatDeliverGooseFs(benchmark::State& state) {
  goose::World world;
  goosefs::GooseFs fs(&world, mailboat::Mailboat::DirLayout(1));
  mailboat::Mailboat mail(&world, &fs, mailboat::Mailboat::Options{1, 4096, 512, 1});
  goosefs::Bytes body(1024, 'm');
  for (auto _ : state) {
    auto run = [&]() -> proc::Task<void> {
      std::string id = (co_await mail.Deliver(0, body)).value();
      // Bench-level cleanup via the fs (Mailboat's Delete requires the
      // pickup lease; this measures delivery cost only).
      (void)co_await fs.Delete("user0", id);
    };
    proc::RunSyncVoid(run());
  }
}
BENCHMARK(BM_MailboatDeliverGooseFs);

// The --json sweep: the two explorer workloads above, each run once with
// POR off and once with POR on (fingerprint dedup enabled so the deduped
// column is populated), timed directly rather than through the
// google-benchmark loop so each cell is a single comparable run.
std::vector<perennial::benchjson::PorJsonRow> RunPorJsonSweep(const char* filter) {
  using namespace perennial::systems;  // NOLINT
  std::vector<perennial::benchjson::PorJsonRow> rows;
  struct Workload {
    std::string slug;
    ReplHarnessOptions options;
  };
  std::vector<Workload> workloads;
  {
    Workload w;
    w.slug = "micro-repl-2writers";
    w.options.num_blocks = 1;
    w.options.client_ops = {{ReplSpec::MakeWrite(0, 5)}, {ReplSpec::MakeWrite(0, 7)}};
    workloads.push_back(std::move(w));
  }
  {
    Workload w;
    w.slug = "micro-repl-writer-reader";
    w.options.num_blocks = 1;
    w.options.client_ops = {{ReplSpec::MakeWrite(0, 5), ReplSpec::MakeRead(0)},
                            {ReplSpec::MakeWrite(0, 7)}};
    workloads.push_back(std::move(w));
  }
  for (const Workload& w : workloads) {
    if (!perennial::benchjson::FilterMatches(filter, w.slug, w.slug)) {
      continue;
    }
    for (bool por : {false, true}) {
      refine::ExplorerOptions opts;
      opts.max_crashes = 1;
      opts.dedup_histories = true;
      opts.use_por = por;
      opts.memoize_spec_prefixes = por;  // "after" = the full pruning engine
      auto start = std::chrono::steady_clock::now();
      refine::Explorer<ReplSpec> ex(ReplSpec{1}, [&] { return MakeReplInstance(w.options); },
                                    opts);
      refine::Report report = ex.Run();
      double ms = std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                            start)
                      .count();
      rows.push_back({w.slug, por, report.executions, report.histories_deduped,
                      report.por_pruned, report.histories_checked,
                      static_cast<uint64_t>(report.violations.size()), ms});
    }
  }
  return rows;
}

}  // namespace

int main(int argc, char** argv) {
  // Both flags strip themselves from argv (the remainder is handed to
  // google-benchmark, which rejects flags it does not know).
  std::vector<char*> after_filter;
  const char* filter = perennial::benchjson::ParseFilter(argc, argv, &after_filter);
  std::vector<char*> passthrough;
  const char* json_path = perennial::benchjson::ParseJsonPath(
      static_cast<int>(after_filter.size()), after_filter.data(), &passthrough);
  if (json_path != nullptr) {
    auto rows = RunPorJsonSweep(filter);
    if (!perennial::benchjson::WritePorJson(json_path, "bench_micro", rows)) {
      return 1;
    }
    std::printf("wrote %zu before/after rows to %s\n", rows.size(), json_path);
  }
  int pargc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&pargc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(pargc, passthrough.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
