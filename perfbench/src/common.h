// Shared plumbing for the benchmark: clocks, CPU and memory probes,
// sample statistics, and the metric record every workload fills in.
#ifndef PERFBENCH_SRC_COMMON_H_
#define PERFBENCH_SRC_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
          .count());
}

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// CPU seconds consumed by the whole process / the calling thread.
double ProcessCpuSeconds();
double ThreadCpuSeconds();
// Peak resident set size of the process so far, in MiB.
double PeakRssMb();

// Percentile of an unsorted sample set (p in [0, 100], nearest rank).
double Percentile(std::vector<double> samples, double p);
// The middle value, or the mean of the middle two.
double Median(std::vector<double> samples);

// A timing summary: the median and one high percentile, with the sample
// count the report prints beside them.
struct Summary {
  size_t n = 0;
  double p50 = 0;
  double tail = 0;
};
Summary Summarize(const std::vector<double>& samples, double tail_pct);

// One named measurement with its unit.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// What one workload run reports back to main: the end-to-end metrics, the
// per-layer metrics (filled only by a traced pass), the attempted / failed
// operation counts, and whether every output audit passed.
struct RunResult {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;
  std::vector<std::string> audit_failures;

  void Fail(std::string why) {
    correct = false;
    audit_failures.push_back(std::move(why));
  }
  double Get(const std::string& name) const {
    for (const Metric& m : end_to_end) {
      if (m.name == name) {
        return m.value;
      }
    }
    return 0;
  }
};

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Scratch directory inside the checkout, for trace files.
  std::string work_dir;
  // The mail store: a tmpfs inside work_dir.
  std::string store_dir;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_COMMON_H_
