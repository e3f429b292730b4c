// The benchmark workloads. Each returns its end-to-end metrics from an
// untraced pass; with RunArgs::trace it then repeats the same work traced
// and adds the per-layer metrics and the tracing overhead.
#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include "common.h"

namespace perfbench {

RunResult RunMailMixed(const RunArgs& args);
RunResult RunCheckVerify(const RunArgs& args);
RunResult RunCheckBugfind(const RunArgs& args);

// Prints how each end-to-end metric of the traced pass differs from the
// untraced one, and adds "trace.overhead_frac" = traced/untraced wait_ms - 1.
void AddTraceOverhead(const RunResult& untraced, const RunResult& traced, RunResult* out);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
