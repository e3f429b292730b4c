// Host record and guards: what the benchmark ran on, printed with every
// run, and the conditions under which it refuses to measure.
#ifndef PERFBENCH_SRC_HOST_H_
#define PERFBENCH_SRC_HOST_H_

#include <string>

namespace perfbench {

struct HostInfo {
  int cpus = 0;                // from sched_getaffinity
  std::string store_fs;        // statfs f_type name of the mail store
  bool store_is_tmpfs = false;
  std::string build_type;      // CMAKE_BUILD_TYPE the benchmark was built with
  std::string compiler;
};

// Makes `dir` (which must exist) a tmpfs, unless it already is one: the
// process moves to a private mount namespace and mounts a size-capped tmpfs
// there, so the mount is invisible outside the process and disappears with
// it. Call before any thread starts. Returns an error message or "".
std::string EnsureTmpfs(const std::string& dir);

// `store_dir` must exist.
HostInfo ProbeHost(const std::string& store_dir);
std::string HostLine(const HostInfo& host);
// Empty when measuring is allowed; otherwise why not. Mail workloads also
// need a tmpfs store.
std::string RefusalReason(const HostInfo& host, bool needs_tmpfs_store);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_HOST_H_
