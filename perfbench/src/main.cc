// perfbench: the repository benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Runs one workload, audits its outputs, prints a human-readable report and,
// as the last line of standard output, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// workload also repeats its work traced and the metrics are the per-layer
// ones. Exits 1 when an audit fails, 2 on bad usage or a refused host.
//
// Run from the repository root. Trace files and the mail store go under
// $CARGO_TARGET_DIR (default .bench_build)/perfbench/work, beside the build.
#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"
#include "host.h"
#include "workloads.h"

namespace perfbench {

namespace {

struct MetricName {
  const char* name;
  const char* unit;
};

// Every run reports these, in this order (BENCHMARK.json lists the same).
constexpr MetricName kEndToEnd[] = {
    {"throughput", "1/s"}, {"wait_ms", "ms"},      {"wait_tail_ms", "ms"},
    {"setup_s", "s"},      {"peak_rss_mb", "MiB"},
};
constexpr MetricName kPerLayer[] = {
    {"loadgen.cpu_us_per_req", "us"},
    {"netserv.server_cpu_us_per_req", "us"},
    {"netserv.read_us_per_req", "us"},
    {"netserv.write_us_per_req", "us"},
    {"netserv.lines_per_req", "count"},
    {"smtp.parse_us_per_req", "us"},
    {"smtp.execute_us_per_req", "us"},
    {"mailboat.deliver_us_p50", "us"},
    {"mailboat.deliver_us_p99", "us"},
    {"mailboat.pickup_us_p50", "us"},
    {"mailboat.calls_per_req", "count"},
    {"goosefs.ops_per_req", "count"},
    {"goosefs.self_us_per_req", "us"},
    {"goosefs.write_bytes_per_body_byte", "ratio"},
    {"netserv.commit_wait_us_p50", "us"},
    {"netserv.commit_wait_us_p99", "us"},
    {"netserv.barriers_per_delivery", "count"},
    {"netserv.batch_size_mean", "count"},
    {"netserv.dedup_frac", "ratio"},
    {"mail.deliver_p50_us", "us"},
    {"mail.deliver_p99_us", "us"},
    {"mail.pickup_p50_us", "us"},
    {"mail.pickup_p99_us", "us"},
    {"refine.executions", "count"},
    {"refine.histories", "count"},
    {"refine.spec_states", "count"},
    {"refine.factory_us_per_exec", "us"},
    {"refine.spec_us_per_exec", "us"},
    {"refine.cpu_util", "ratio"},
    {"refine.pct_runs_per_find", "count"},
    {"refine.find_ms_p50", "ms"},
    {"refine.minimize_replays_per_cex", "count"},
    {"refine.minimize_ms_p50", "ms"},
    {"proc.steps_per_exec", "count"},
    {"trace.overhead_frac", "ratio"},
};

// Orders `list` as `names`; with `fill`, a missing metric is added as 0
// (a layer the workload does not exercise).
template <size_t N>
void Order(std::vector<Metric>* list, const MetricName (&names)[N], bool fill) {
  std::vector<Metric> out;
  for (const MetricName& n : names) {
    auto it = std::find_if(list->begin(), list->end(),
                           [&](const Metric& m) { return m.name == n.name; });
    if (it != list->end()) {
      out.push_back(*it);
    } else if (fill) {
      out.push_back({n.name, 0, n.unit});
    }
  }
  *list = std::move(out);
}

}  // namespace

void AddTraceOverhead(const RunResult& untraced, const RunResult& traced, RunResult* out) {
  std::printf("  tracing overhead (traced vs untraced):");
  for (const Metric& m : untraced.end_to_end) {
    double t = traced.Get(m.name);
    if (m.value != 0 && m.name != "setup_s" && m.name != "peak_rss_mb") {
      std::printf(" %s %+.1f%%", m.name.c_str(), (t / m.value - 1) * 100);
    }
  }
  std::printf("\n");
  double base = untraced.Get("wait_ms");
  out->per_layer.push_back(
      {"trace.overhead_frac", base == 0 ? 0 : traced.Get("wait_ms") / base - 1, "ratio"});
}

}  // namespace perfbench

namespace {

using perfbench::RunArgs;
using perfbench::RunResult;

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload <mail-mixed|check-verify|check-bugfind> --seed <n> "
               "--seconds <s> --trace <0|1>\n",
               why);
  return 2;
}

void PrintJson(const RunResult& r, bool trace) {
  const std::vector<perfbench::Metric>& metrics = trace ? r.per_layer : r.end_to_end;
  std::string out = std::string("{\"correct\": ") + (r.correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(r.attempted) +
                    ", \"failed\": " + std::to_string(r.failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    std::snprintf(value, sizeof(value), "%.17g", v);
    out += (i == 0 ? "" : ", ") + std::string("\"") + metrics[i].name + "\": {\"value\": " +
           value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  RunArgs args;
  const char* target = std::getenv("CARGO_TARGET_DIR");
  args.work_dir = std::string(target != nullptr && *target != '\0' ? target : ".bench_build") +
                  "/perfbench/work";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) {
      return Usage(("missing value for " + flag).c_str());
    }
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) {
    return Usage("--workload is required");
  }
  if (!(args.seconds > 0) || args.seconds > 120) {
    return Usage("--seconds must be in (0, 120]");
  }
  bool mail = args.workload == "mail-mixed";
  for (size_t slash = args.work_dir.find('/', 1); slash != std::string::npos;
       slash = args.work_dir.find('/', slash + 1)) {
    ::mkdir(args.work_dir.substr(0, slash).c_str(), 0755);
  }
  ::mkdir(args.work_dir.c_str(), 0755);
  args.store_dir = args.work_dir + "/store";
  ::mkdir(args.store_dir.c_str(), 0755);
  if (mail) {
    std::string err = perfbench::EnsureTmpfs(args.store_dir);
    if (!err.empty()) {
      std::fprintf(stderr, "perfbench: no tmpfs store: %s\n", err.c_str());
    }
  }
  perfbench::HostInfo host = perfbench::ProbeHost(args.store_dir);
  std::printf("%s\n", perfbench::HostLine(host).c_str());
  std::string refusal = perfbench::RefusalReason(host, mail);
  if (!refusal.empty()) {
    std::fprintf(stderr, "perfbench: %s\n", refusal.c_str());
    return 2;
  }
  std::printf("workload=%s seed=%llu seconds=%g trace=%d\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0);
  std::fflush(stdout);

  RunResult result;
  if (args.workload == "mail-mixed") {
    result = perfbench::RunMailMixed(args);
  } else if (args.workload == "check-verify") {
    result = perfbench::RunCheckVerify(args);
  } else if (args.workload == "check-bugfind") {
    result = perfbench::RunCheckBugfind(args);
  } else {
    return Usage(("unknown workload " + args.workload).c_str());
  }
  perfbench::Order(&result.end_to_end, perfbench::kEndToEnd, false);
  perfbench::Order(&result.per_layer, perfbench::kPerLayer, true);
  for (const std::string& f : result.audit_failures) {
    std::printf("AUDIT FAILED: %s\n", f.c_str());
  }
  const auto& shown = args.trace ? result.per_layer : result.end_to_end;
  for (const perfbench::Metric& m : shown) {
    std::printf("  %-36s %16.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  PrintJson(result, args.trace);
  return result.correct ? 0 : 1;
}
