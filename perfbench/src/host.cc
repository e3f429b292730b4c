#include "host.h"

#include <sched.h>
#include <sys/mount.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <cstdio>

#include "common.h"

namespace perfbench {

namespace {

std::string FsTypeName(long type) {
  switch (static_cast<unsigned long>(type)) {
    case 0x01021994UL:
      return "tmpfs";
    case 0xEF53UL:
      return "ext4";
    case 0x794C7630UL:
      return "overlayfs";
    case 0x58465342UL:
      return "xfs";
    case 0x9123683EUL:
      return "btrfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx", static_cast<unsigned long>(type));
      return buf;
    }
  }
}

}  // namespace

HostInfo ProbeHost(const std::string& store_dir) {
  HostInfo h;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    h.cpus = CPU_COUNT(&set);
  }
  struct statfs st {};
  if (statfs(store_dir.c_str(), &st) == 0) {
    h.store_fs = FsTypeName(st.f_type);
    h.store_is_tmpfs = h.store_fs == "tmpfs";
  } else {
    h.store_fs = "unknown";
  }
  h.build_type = PERFBENCH_BUILD_TYPE;
  h.compiler = PERFBENCH_COMPILER;
  return h;
}

std::string HostLine(const HostInfo& h) {
  return "host: cpus=" + std::to_string(h.cpus) + " store_fs=" + h.store_fs +
         " build=" + h.build_type + " compiler=" + h.compiler;
}

std::string EnsureTmpfs(const std::string& dir) {
  if (ProbeHost(dir).store_is_tmpfs) {
    return "";
  }
  if (unshare(CLONE_NEWNS) != 0) {
    return std::string("unshare(CLONE_NEWNS): ") + std::strerror(errno);
  }
  // Keep the new mount out of the parent namespace.
  if (mount(nullptr, "/", nullptr, MS_REC | MS_PRIVATE, nullptr) != 0) {
    return std::string("making mounts private: ") + std::strerror(errno);
  }
  if (mount("perfbench", dir.c_str(), "tmpfs", MS_NOSUID | MS_NODEV, "size=2g,mode=0755") != 0) {
    return std::string("mounting tmpfs: ") + std::strerror(errno);
  }
  return "";
}

std::string RefusalReason(const HostInfo& h, bool needs_tmpfs_store) {
  if (h.build_type.empty() || h.build_type == "Debug") {
    return "refusing to measure a Debug build (configure with RelWithDebInfo or Release)";
  }
#ifndef NDEBUG
  return "refusing to measure a build with assertions enabled (NDEBUG unset)";
#endif
  if (needs_tmpfs_store && !h.store_is_tmpfs) {
    return "refusing to run a mail workload on a " + h.store_fs +
           " store: disk-backed stores stall at random (use tmpfs)";
  }
  if (h.cpus < 1) {
    return "sched_getaffinity reported no usable CPU";
  }
  return "";
}

}  // namespace perfbench
