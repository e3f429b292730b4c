#include "common.h"

#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace perfbench {

namespace {

double ClockSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

double ProcessCpuSeconds() { return ClockSeconds(CLOCK_PROCESS_CPUTIME_ID); }
double ThreadCpuSeconds() { return ClockSeconds(CLOCK_THREAD_CPUTIME_ID); }

// VmHWM, not getrusage: ru_maxrss survives execve, so a small benchmark
// would report the peak of the process that launched it.
double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return 0;
  }
  char line[256];
  double kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) {
    return 0;
  }
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(samples.size())));
  size_t idx = rank == 0 ? 0 : rank - 1;
  idx = std::min(idx, samples.size() - 1);
  std::nth_element(samples.begin(), samples.begin() + static_cast<long>(idx), samples.end());
  return samples[idx];
}

double Median(std::vector<double> samples) {
  if (samples.empty()) {
    return 0;
  }
  std::sort(samples.begin(), samples.end());
  size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2] : (samples[n / 2 - 1] + samples[n / 2]) / 2;
}

Summary Summarize(const std::vector<double>& samples, double tail_pct) {
  Summary s;
  s.n = samples.size();
  if (samples.empty()) {
    return s;
  }
  s.p50 = Percentile(samples, 50);
  s.tail = Percentile(samples, tail_pct);
  return s;
}

}  // namespace perfbench
