// Load generator CLI for the production mail server.
//
// Default mode starts an in-process server (group commit on) and drives it;
// pass --smtp-port/--pop3-port to aim at an external mail_serverd instead.
//
//   bench_loadgen --clients=64 --requests=2000 --root=/tmp/pcc-loadgen
//   bench_loadgen --smtp-port=2525 --pop3-port=1110 --clients=256
//
// Prints one summary line: requests, errors, wall, req/s, p50/p99 latency,
// and (in-proc only) the group-commit batch, mean-barrier and dedup counters.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench/bench_json.h"
#include "src/fault/syscall_fault.h"
#include "src/netserv/harness.h"
#include "src/netserv/loadgen.h"

namespace {

uint64_t FlagU64(int argc, char** argv, const char* name, uint64_t def) {
  std::string want = std::string(name) + "=";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.compare(0, want.size(), want) == 0) {
      return std::strtoull(arg.c_str() + want.size(), nullptr, 10);
    }
  }
  return def;
}

double FlagDouble(int argc, char** argv, const char* name, double def) {
  std::string want = std::string(name) + "=";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.compare(0, want.size(), want) == 0) {
      return std::strtod(arg.c_str() + want.size(), nullptr);
    }
  }
  return def;
}

std::string FlagStr(int argc, char** argv, const char* name, const std::string& def) {
  std::string want = std::string(name) + "=";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.compare(0, want.size(), want) == 0) {
      return arg.substr(want.size());
    }
  }
  return def;
}

bool FlagSet(int argc, char** argv, const char* name) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == name) {
      return true;
    }
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perennial::netserv;

  if (FlagSet(argc, argv, "--help")) {
    std::printf(
        "usage: bench_loadgen [--clients=N] [--requests=N] [--users=N]\n"
        "                     [--pickup-fraction=F] [--body-bytes=N] [--rcpts=N] [--threads=N]\n"
        "                     [--root=DIR] [--loops=N] [--executors=N]\n"
        "                     [--no-group-commit] [--gc-window-us=N] [--gc-batch=N]\n"
        "                     [--fault-plan=key=rate,...]  (hostile disk, in-proc only)\n"
        "                     [--smtp-port=N --pop3-port=N]  (drive external server)\n");
    return 0;
  }

  LoadgenOptions load;
  load.clients = FlagU64(argc, argv, "--clients", 64);
  load.requests = FlagU64(argc, argv, "--requests", 2000);
  load.num_users = FlagU64(argc, argv, "--users", 8);
  load.pickup_fraction = FlagDouble(argc, argv, "--pickup-fraction", 0.25);
  load.body_bytes = FlagU64(argc, argv, "--body-bytes", 256);
  load.rcpts_per_msg = FlagU64(argc, argv, "--rcpts", 1);
  load.threads = FlagU64(argc, argv, "--threads", 1);
  load.rng_seed = FlagU64(argc, argv, "--seed", 1);

  uint16_t ext_smtp = static_cast<uint16_t>(FlagU64(argc, argv, "--smtp-port", 0));
  uint16_t ext_pop3 = static_cast<uint16_t>(FlagU64(argc, argv, "--pop3-port", 0));
  bool inproc = ext_smtp == 0 || ext_pop3 == 0;

  std::unique_ptr<InprocMailServer> server;
  if (inproc) {
    InprocMailServer::Config config;
    config.root = FlagStr(argc, argv, "--root", "/tmp/pcc-loadgen");
    config.users = load.num_users;
    config.group_commit = !FlagSet(argc, argv, "--no-group-commit");
    config.gc_window_us = FlagU64(argc, argv, "--gc-window-us", 500);
    config.gc_batch = FlagU64(argc, argv, "--gc-batch", 64);
    config.loops = FlagU64(argc, argv, "--loops", 2);
    config.executors = FlagU64(argc, argv, "--executors", load.clients + 8);
    std::string fault_spec = FlagStr(argc, argv, "--fault-plan", "");
    if (!fault_spec.empty()) {
      perennial::Result<perennial::fault::SyscallFaultPlan> plan =
          perennial::fault::SyscallFaultPlan::Parse(fault_spec);
      if (!plan.ok()) {
        std::fprintf(stderr, "bench_loadgen: --fault-plan: %s\n",
                     plan.status().ToString().c_str());
        return 1;
      }
      config.fault_plan = plan.value();
    }
    server = std::make_unique<InprocMailServer>(std::move(config));
    if (!server->Start()) {
      std::fprintf(stderr, "bench_loadgen: in-proc server failed to start\n");
      return 1;
    }
    load.smtp_port = server->smtp_port();
    load.pop3_port = server->pop3_port();
  } else {
    load.smtp_port = ext_smtp;
    load.pop3_port = ext_pop3;
  }

  perennial::benchjson::CpuUsage cpu0 = perennial::benchjson::ProcessCpuUsage();
  LoadgenResult result = RunLoadgen(load);
  perennial::benchjson::CpuUsage cpu1 = perennial::benchjson::ProcessCpuUsage();

  double reqs_per_s = result.wall_ms > 0 ? result.ok_requests / (result.wall_ms / 1000.0) : 0;
  std::printf(
      "loadgen: ok=%llu errors=%llu tempfails=%llu retries=%llu shed=%llu "
      "delivers=%llu pickups=%llu wall_ms=%.1f req/s=%.0f "
      "p50_us=%llu p99_us=%llu%s\n",
      static_cast<unsigned long long>(result.ok_requests),
      static_cast<unsigned long long>(result.errors),
      static_cast<unsigned long long>(result.tempfails),
      static_cast<unsigned long long>(result.retries),
      static_cast<unsigned long long>(result.shed_connects),
      static_cast<unsigned long long>(result.delivers),
      static_cast<unsigned long long>(result.pickups), result.wall_ms, reqs_per_s,
      static_cast<unsigned long long>(PercentileUs(result.latencies_us, 50)),
      static_cast<unsigned long long>(PercentileUs(result.latencies_us, 99)),
      result.aborted ? " ABORTED" : "");
  if (result.ok_requests > 0) {
    // Process CPU (loadgen clients included for the in-proc server): the
    // stable per-request cost on a host whose wall clock is disk-noisy.
    uint64_t du = cpu1.utime_us - cpu0.utime_us;
    uint64_t ds = cpu1.stime_us - cpu0.stime_us;
    std::printf("cpu: %.1f us/req (utime %.1f + stime %.1f)\n",
                static_cast<double>(du + ds) / static_cast<double>(result.ok_requests),
                static_cast<double>(du) / static_cast<double>(result.ok_requests),
                static_cast<double>(ds) / static_cast<double>(result.ok_requests));
  }
  if (server != nullptr) {
    const auto& stats = server->committer()->stats();
    uint64_t batches = stats.batches.load();
    std::printf("group_commit: requests=%llu batches=%llu barrier_us_mean=%.1f fsyncs=%llu "
                "deduped=%llu\n",
                static_cast<unsigned long long>(stats.requests.load()),
                static_cast<unsigned long long>(batches),
                batches == 0 ? 0.0
                             : static_cast<double>(stats.barrier_ns.load()) / 1000.0 /
                                   static_cast<double>(batches),
                static_cast<unsigned long long>(stats.fsyncs_issued.load()),
                static_cast<unsigned long long>(stats.deduped.load()));
    server->Stop();
  }
  return result.aborted ? 1 : 0;
}
