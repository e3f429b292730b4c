// Wall-time regression gate (ctest label tier2-bench): re-runs the two
// smallest §9.1 bench rows — repl-2writers and wal-recovery-crash — under
// the same option sets bench_sec91_patterns uses for its POR sweep, and
// compares against the COMMITTED BENCH_refine.json (path = argv[1]).
//
// Failure conditions:
//  * a cell's execution count differs from the committed row (the state
//    space changed but the baseline was not regenerated), or
//  * a cell's wall time exceeds 3x the committed ms (plus a small absolute
//    floor so sub-millisecond rows do not trip on scheduler noise).
//
// The rows are chosen smallest-first so the gate stays cheap enough to run
// in every tier2 sweep; the full table is regenerated manually with
// `bench_sec91_patterns --json BENCH_refine.json`.
//
// A third cell re-runs the cheapest PCT deep-bug row (pct-kv-deadlock-deep
// at a quarter budget, seed 1). PCT runs are seed-deterministic, so any
// change to the draw order — priority assignment, change-point placement,
// crash/env draws — shows up as an executions mismatch against the
// committed row; the pct rows are regenerated with
// `bench_pct --json BENCH_refine.json`.
//
// A fourth cell (fig11s-check-c8) boots the real netserv server on /tmp
// and pushes 300 requests through 8 loopback clients: exact request count,
// zero client-visible errors, a generous wall bound, and — when the
// committed row carries a cpu_us_per_request baseline — a process-CPU
// ceiling per request. The CPU gate is the hot-path regression tripwire:
// wall time on a shared disk is noisy, but CPU per request is stable, so a
// parsing or syscall regression shows up here even when the wall bound
// absorbs it. The fig11s- rows are regenerated with
// `bench_fig11_mailboat --at-scale --json ...`.
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "bench/pct_suite.h"
#include "src/fault/syscall_fault.h"
#include "src/netserv/harness.h"
#include "src/netserv/loadgen.h"
#include "src/refine/explorer.h"
#include "src/systems/pattern_harness.h"
#include "src/systems/repl/repl_harness.h"

namespace {

using namespace perennial;           // NOLINT
using namespace perennial::systems;  // NOLINT
using refine::ExplorerOptions;
using refine::Report;

struct BaselineCell {
  bool found = false;
  uint64_t executions = 0;
  double ms = 0;
  double cpu_us_per_request = 0;  // 0 = row has no CPU baseline
};

// Minimal scan of the bench_json.h output format: one row object per line,
// fields in a fixed order. Robust to whitespace but not to reordering —
// which is fine, the writer in this repo is the only producer.
BaselineCell FindCell(const std::string& json, const std::string& slug, bool por) {
  BaselineCell cell;
  std::string needle = "\"system\": \"" + slug + "\", \"por\": " + (por ? "true" : "false");
  size_t at = json.find(needle);
  if (at == std::string::npos) {
    return cell;
  }
  auto field = [&](const char* name) -> double {
    std::string key = std::string("\"") + name + "\": ";
    size_t k = json.find(key, at);
    if (k == std::string::npos) {
      return -1;
    }
    return std::strtod(json.c_str() + k + key.size(), nullptr);
  };
  cell.found = true;
  cell.executions = static_cast<uint64_t>(field("executions"));
  cell.ms = field("ms");
  // Only perf rows carry the key; the unbounded find would otherwise read
  // it off a later row, so stop the scan at this row's closing brace.
  size_t row_end = json.find('}', at);
  size_t cpu_at = json.find("\"cpu_us_per_request\": ", at);
  if (cpu_at != std::string::npos && (row_end == std::string::npos || cpu_at < row_end)) {
    cell.cpu_us_per_request =
        std::strtod(json.c_str() + cpu_at + std::strlen("\"cpu_us_per_request\": "), nullptr);
  }
  return cell;
}

struct Measured {
  uint64_t executions = 0;
  double ms = 0;
};

template <typename Spec, typename Factory>
Measured RunCell(Spec spec, Factory factory, int max_crashes, bool por) {
  ExplorerOptions opts;
  opts.max_crashes = max_crashes;
  opts.use_por = por;
  opts.memoize_spec_prefixes = por;  // the sweep's "after" = full engine
  auto start = std::chrono::steady_clock::now();
  refine::Explorer<Spec> ex(std::move(spec), factory, opts);
  Report report = ex.Run();
  Measured m;
  m.executions = report.executions;
  m.ms = std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
             .count();
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: bench_check <path/to/BENCH_refine.json>\n");
    return 2;
  }
  std::ifstream in(argv[1]);
  if (!in) {
    std::fprintf(stderr, "bench_check: cannot read %s\n", argv[1]);
    return 2;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string json = buf.str();

  // Sub-millisecond baselines would make a 3x bound trip on scheduler
  // noise; the floor keeps the gate meaningful only for real regressions.
  constexpr double kFloorMs = 25.0;
  int failures = 0;

  auto check = [&](const std::string& slug, bool por, const Measured& m) {
    BaselineCell base = FindCell(json, slug, por);
    if (!base.found) {
      std::fprintf(stderr, "FAIL %s por=%d: no committed baseline row\n", slug.c_str(), por);
      ++failures;
      return;
    }
    if (m.executions != base.executions) {
      std::fprintf(stderr,
                   "FAIL %s por=%d: executions %llu != committed %llu "
                   "(state space changed; regenerate BENCH_refine.json)\n",
                   slug.c_str(), por, static_cast<unsigned long long>(m.executions),
                   static_cast<unsigned long long>(base.executions));
      ++failures;
      return;
    }
    double allowed = 3.0 * base.ms;
    if (allowed < kFloorMs) {
      allowed = kFloorMs;
    }
    if (m.ms > allowed) {
      std::fprintf(stderr, "FAIL %s por=%d: %.1f ms > allowed %.1f ms (baseline %.1f ms)\n",
                   slug.c_str(), por, m.ms, allowed, base.ms);
      ++failures;
      return;
    }
    std::printf("ok   %s por=%d: %llu execs, %.1f ms (baseline %.1f ms, allowed %.1f ms)\n",
                slug.c_str(), por, static_cast<unsigned long long>(m.executions), m.ms, base.ms,
                allowed);
  };

  {
    ReplHarnessOptions options;
    options.num_blocks = 1;
    options.client_ops = {{ReplSpec::MakeWrite(0, 5)}, {ReplSpec::MakeWrite(0, 7)}};
    for (bool por : {false, true}) {
      check("repl-2writers", por,
            RunCell(ReplSpec{1}, [&] { return MakeReplInstance(options); }, 1, por));
    }
  }
  {
    WalHarnessOptions options;
    options.client_ops = {{PairSpec::MakeWrite(1, 2)}};
    for (bool por : {false, true}) {
      check("wal-recovery-crash", por,
            RunCell(PairSpec{}, [&] { return MakeWalInstance(options); }, 2, por));
    }
  }
  ForEachDeepBug([&](const DeepBugInfo& info, auto spec, auto factory) {
    if (std::string(info.slug) != "pct-kv-deadlock-deep") {
      return;
    }
    using Spec = decltype(spec);
    ExplorerOptions opts = PctSuiteOptions(info, /*seed=*/1);
    opts.random_runs = info.budget / 4;
    auto start = std::chrono::steady_clock::now();
    refine::Explorer<Spec> ex(spec, factory, opts);
    Report report = ex.Run();
    Measured m;
    m.executions = report.executions;
    m.ms = std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
               .count();
    // The committed row was produced by a run that found the bug; a PCT
    // draw-order change that loses it would still match on executions if
    // every slice ran to its run budget, so pin the find as well.
    if (report.violations.empty()) {
      std::fprintf(stderr, "FAIL pct-kv-deadlock-deep-b%llu: quarter-budget PCT lost the bug\n",
                   static_cast<unsigned long long>(info.budget / 4));
      ++failures;
    }
    check("pct-kv-deadlock-deep-b" + std::to_string(info.budget / 4), false, m);
  });
  {
    // Real-server smoke cell: request count is deterministic (shared budget,
    // drained exactly), so executions must match; wall gets its own generous
    // floor because the cell pays ~100us per ext4 barrier even when healthy.
    namespace ns = perennial::netserv;
    ns::InprocMailServer::Config config;
    config.root = "/tmp/pcc_bench_check_fig11s-" + std::to_string(::getpid());
    // Mirror the fig11s-check-c8 cell in bench_fig11_mailboat --at-scale.
    config.users = 64;
    config.gc_window_us = 2000;
    config.gc_batch = 256;
    config.loops = 2;
    config.executors = 16;
    ns::InprocMailServer server(config);
    if (!server.Start()) {
      std::fprintf(stderr, "FAIL fig11s-check-c8: server failed to start\n");
      ++failures;
    } else {
      ns::LoadgenOptions load;
      load.smtp_port = server.smtp_port();
      load.pop3_port = server.pop3_port();
      load.clients = 8;
      load.requests = 300;
      load.num_users = config.users;
      load.pickup_fraction = 0.25;
      load.body_bytes = 256;
      benchjson::CpuUsage cpu0 = benchjson::ProcessCpuUsage();
      ns::LoadgenResult result = ns::RunLoadgen(load);
      benchjson::CpuUsage cpu1 = benchjson::ProcessCpuUsage();
      server.Stop();
      double cpu_us_per_request =
          result.ok_requests > 0
              ? static_cast<double>((cpu1.utime_us - cpu0.utime_us) +
                                    (cpu1.stime_us - cpu0.stime_us)) /
                    static_cast<double>(result.ok_requests)
              : 0;
      if (result.aborted || result.errors != 0) {
        std::fprintf(stderr, "FAIL fig11s-check-c8: errors=%llu aborted=%d\n",
                     static_cast<unsigned long long>(result.errors), result.aborted);
        ++failures;
      } else {
        BaselineCell base = FindCell(json, "fig11s-check-c8", false);
        if (!base.found) {
          std::fprintf(stderr, "FAIL fig11s-check-c8: no committed baseline row\n");
          ++failures;
        } else if (result.ok_requests != base.executions) {
          std::fprintf(stderr,
                       "FAIL fig11s-check-c8: requests %llu != committed %llu "
                       "(regenerate with bench_fig11_mailboat --at-scale --json)\n",
                       static_cast<unsigned long long>(result.ok_requests),
                       static_cast<unsigned long long>(base.executions));
          ++failures;
        } else {
          double allowed = 3.0 * base.ms;
          if (allowed < 2000.0) {
            // Absorbs the suites ctest -j runs beside this cell: they share
            // the host's CPUs (4 on the bench host) and its disk barriers.
            allowed = 2000.0;
          }
          // CPU ceiling: 4x the committed per-request CPU, floored at
          // 150 us. The figure is process CPU summed over every thread on
          // every CPU (server roles and the in-process loadgen alike), so
          // it does not shrink or grow with the core count, but neighbours
          // under ctest -j still cost it cache and lock contention. The
          // host's virtualized-disk phases swing measured CPU ~3x for the
          // same binary (see EXPERIMENTS.md), so a tighter multiplier
          // flakes; a real hot-path regression scales both phases and
          // still trips this.
          double cpu_allowed = 4.0 * base.cpu_us_per_request;
          if (cpu_allowed < 150.0) {
            cpu_allowed = 150.0;
          }
          if (result.wall_ms > allowed) {
            std::fprintf(stderr, "FAIL fig11s-check-c8: %.1f ms > allowed %.1f ms\n",
                         result.wall_ms, allowed);
            ++failures;
          } else if (base.cpu_us_per_request > 0 && cpu_us_per_request > cpu_allowed) {
            std::fprintf(stderr,
                         "FAIL fig11s-check-c8: %.1f cpu us/req > allowed %.1f "
                         "(baseline %.1f; hot-path CPU regression)\n",
                         cpu_us_per_request, cpu_allowed, base.cpu_us_per_request);
            ++failures;
          } else {
            std::printf("ok   fig11s-check-c8: %llu reqs, %.1f ms, %.1f cpu us/req "
                        "(baseline %.1f ms / %.1f us, allowed %.1f ms / %.1f us)\n",
                        static_cast<unsigned long long>(result.ok_requests), result.wall_ms,
                        cpu_us_per_request, base.ms, base.cpu_us_per_request, allowed,
                        cpu_allowed);
          }
        }
      }
    }
    std::string cleanup = "rm -rf " + config.root;
    [[maybe_unused]] int rc = std::system(cleanup.c_str());
  }
  {
    // Robustness gate (faultnet-check-c8): the same cell under a ~1% ENOSPC
    // fault plan. Fault timing depends on thread scheduling, so the gate
    // pins invariants, not exact counts: zero protocol errors (faults must
    // surface as RFC tempfails, never broken responses), every request
    // accounted for as ok or tempfail, forward progress despite the storm,
    // and a generous wall bound against the committed row.
    namespace ns = perennial::netserv;
    ns::InprocMailServer::Config config;
    config.root = "/tmp/pcc_bench_check_faultnet-" + std::to_string(::getpid());
    config.users = 64;
    config.gc_window_us = 2000;
    config.gc_batch = 256;
    config.loops = 2;
    config.executors = 16;
    // Keep this spec in sync with the faultnet- section in
    // bench_fig11_mailboat --at-scale.
    Result<fault::SyscallFaultPlan> plan =
        fault::SyscallFaultPlan::Parse("no-space=0.01,transient-write=0.005,seed=11");
    if (!plan.ok()) {
      std::fprintf(stderr, "FAIL faultnet-check-c8: plan parse: %s\n",
                   plan.status().ToString().c_str());
      ++failures;
    } else {
      config.fault_plan = plan.value();
      ns::InprocMailServer server(config);
      if (!server.Start()) {
        std::fprintf(stderr, "FAIL faultnet-check-c8: server failed to start\n");
        ++failures;
      } else {
        ns::LoadgenOptions load;
        load.smtp_port = server.smtp_port();
        load.pop3_port = server.pop3_port();
        load.clients = 8;
        load.requests = 300;
        load.num_users = config.users;
        load.pickup_fraction = 0.0;  // deliver-only, mirrors the committed cell
        load.body_bytes = 256;
        load.stall_timeout_ms = 60000;
        ns::LoadgenResult result = ns::RunLoadgen(load);
        uint64_t injected =
            server.faults() != nullptr ? server.faults()->total_injected() : 0;
        server.Stop();
        BaselineCell base = FindCell(json, "faultnet-check-c8", false);
        if (!base.found) {
          std::fprintf(stderr, "FAIL faultnet-check-c8: no committed baseline row "
                               "(regenerate with bench_fig11_mailboat --at-scale --json)\n");
          ++failures;
        } else if (result.aborted || result.errors != 0) {
          std::fprintf(stderr,
                       "FAIL faultnet-check-c8: errors=%llu aborted=%d "
                       "(faults must degrade to tempfails, not protocol errors)\n",
                       static_cast<unsigned long long>(result.errors), result.aborted);
          ++failures;
        } else if (result.ok_requests + result.tempfails != 300) {
          std::fprintf(stderr,
                       "FAIL faultnet-check-c8: ok %llu + tempfail %llu != 300 "
                       "(requests unaccounted for)\n",
                       static_cast<unsigned long long>(result.ok_requests),
                       static_cast<unsigned long long>(result.tempfails));
          ++failures;
        } else if (result.ok_requests == 0) {
          std::fprintf(stderr,
                       "FAIL faultnet-check-c8: a 1%% storm starved the server completely\n");
          ++failures;
        } else {
          double allowed = 3.0 * base.ms;
          if (allowed < 3000.0) {
            allowed = 3000.0;  // retries + backoff ride on a noisy shared disk
          }
          if (result.wall_ms > allowed) {
            std::fprintf(stderr, "FAIL faultnet-check-c8: %.1f ms > allowed %.1f ms\n",
                         result.wall_ms, allowed);
            ++failures;
          } else {
            std::printf("ok   faultnet-check-c8: %llu ok + %llu tempfail, %llu retries, "
                        "%llu injected, %.1f ms (allowed %.1f ms)\n",
                        static_cast<unsigned long long>(result.ok_requests),
                        static_cast<unsigned long long>(result.tempfails),
                        static_cast<unsigned long long>(result.retries),
                        static_cast<unsigned long long>(injected), result.wall_ms, allowed);
          }
        }
      }
    }
    std::string cleanup = "rm -rf " + config.root;
    [[maybe_unused]] int rc = std::system(cleanup.c_str());
  }
  return failures == 0 ? 0 : 1;
}
