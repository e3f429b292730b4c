// Server bundle: PosixFilesys + GroupCommitter + Mailboat + MailNetServer
// wired together in the production configuration. mail_serverd runs it
// over a persistent store (clear_store = false); benchmarks and tests run
// it in-process on ephemeral loopback ports without forking a daemon.
//
// Member order is the teardown order in reverse: the server stops first
// (executors finish their in-flight barriers), then the committer, then
// the filesystem and its root fd.
#ifndef PERENNIAL_SRC_NETSERV_HARNESS_H_
#define PERENNIAL_SRC_NETSERV_HARNESS_H_

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "src/base/panic.h"
#include "src/fault/syscall_fault.h"
#include "src/goose/world.h"
#include "src/goosefs/posix_fs.h"
#include "src/mailboat/mailboat.h"
#include "src/netserv/group_commit.h"
#include "src/netserv/server.h"
#include "src/proc/task.h"

namespace perennial::netserv {

class InprocMailServer {
 public:
  struct Config {
    std::string root;
    uint16_t smtp_port = 0;  // 0 = ephemeral
    uint16_t pop3_port = 0;
    uint64_t users = 8;
    bool group_commit = true;
    uint64_t gc_window_us = 500;
    uint64_t gc_batch = 64;
    GroupCommitter::Barrier barrier = GroupCommitter::Barrier::kSyncfs;
    uint64_t loops = 2;
    uint64_t executors = 64;
    bool clear_store = true;
    // Skip spool-entry dirsyncs; Mailboat's Recover reconciles the spool,
    // so this halves Deliver's durability barriers (2 per delivery, not
    // 4) without weakening the acked => durable guarantee (see
    // PosixFilesys::Options).
    bool relaxed_spool = true;
    // Hostile-disk mode: when the plan has any nonzero rate, a seeded
    // FaultInjectingSyscalls is interposed on every data-path syscall of
    // both the filesystem and the group committer's barriers. Recovery and
    // setup paths (EnsureDirs, Recover's List) stay raw — see
    // PosixFilesys::Options::sys.
    fault::SyscallFaultPlan fault_plan;
    // Passed through to MailNetServer (0 = off/unlimited).
    uint64_t idle_timeout_ms = 0;
    uint64_t max_conns = 0;
    TraceLog* trace = nullptr;
  };

  explicit InprocMailServer(Config config) : config_(std::move(config)) {}

  ~InprocMailServer() { Stop(); }

  // False, with the reason on stderr, if the store or the ports cannot be
  // set up.
  bool Start() {
    ::mkdir(config_.root.c_str(), 0755);  // best effort; EnsureDirs does the rest
    // A directory fd on the store's filesystem anchors the syncfs barrier.
    root_fd_ = ::open(config_.root.c_str(), O_DIRECTORY | O_RDONLY);
    if (root_fd_ < 0) {
      std::fprintf(stderr, "InprocMailServer: cannot open root %s: %s\n", config_.root.c_str(),
                   std::strerror(errno));
      return false;
    }
    if (config_.fault_plan.Any()) {
      faults_ = std::make_unique<fault::FaultInjectingSyscalls>(config_.fault_plan);
    }
    committer_ = std::make_unique<GroupCommitter>(GroupCommitter::Options{
        .max_wait_us = config_.gc_window_us,
        .max_batch = config_.gc_batch,
        .barrier = config_.barrier,
        .syncfs_fd = root_fd_,
        .sys = faults_.get(),
    });
    if (config_.group_commit) {
      committer_->Start();
    }
    goosefs::PosixFilesys::Options fs_options;
    fs_options.cache_dir_fds = true;
    fs_options.fsync_dirs = true;
    fs_options.fsyncer = config_.group_commit ? committer_.get() : nullptr;
    if (config_.relaxed_spool) {
      fs_options.recovery_reconciled_dirs = {"spool"};
    }
    fs_options.sys = faults_.get();
    fs_ = std::make_unique<goosefs::PosixFilesys>(config_.root, fs_options);
    Status dirs =
        fs_->EnsureDirs(mailboat::Mailboat::DirLayout(config_.users), config_.clear_store);
    if (!dirs.ok()) {
      std::fprintf(stderr, "InprocMailServer: EnsureDirs: %s\n", dirs.ToString().c_str());
      return false;
    }
    world_ = std::make_unique<goose::World>();
    mail_ = std::make_unique<mailboat::Mailboat>(
        world_.get(), fs_.get(), mailboat::Mailboat::Options{config_.users, 4096, 512, 42});
    proc::RunSyncVoid(mail_->Recover());
    MailNetServer::Options server_options;
    server_options.smtp_port = config_.smtp_port;
    server_options.pop3_port = config_.pop3_port;
    server_options.num_loops = config_.loops;
    server_options.num_executors = config_.executors;
    server_options.idle_timeout_ms = config_.idle_timeout_ms;
    server_options.max_conns = config_.max_conns;
    server_options.trace = config_.trace;
    server_ = std::make_unique<MailNetServer>(mail_.get(), server_options);
    return server_->Start();
  }

  void Stop() {
    if (server_ != nullptr) {
      server_->Stop();
    }
    if (committer_ != nullptr) {
      committer_->Stop();
    }
    if (root_fd_ >= 0) {
      ::close(root_fd_);
      root_fd_ = -1;
    }
  }

  uint16_t smtp_port() const { return server_->smtp_port(); }
  uint16_t pop3_port() const { return server_->pop3_port(); }
  MailNetServer* server() { return server_.get(); }
  GroupCommitter* committer() { return committer_.get(); }
  mailboat::Mailboat* mail() { return mail_.get(); }
  goosefs::PosixFilesys* fs() { return fs_.get(); }
  // Null unless the config's fault plan has a nonzero rate.
  fault::FaultInjectingSyscalls* faults() { return faults_.get(); }

 private:
  Config config_;
  int root_fd_ = -1;
  std::unique_ptr<fault::FaultInjectingSyscalls> faults_;
  std::unique_ptr<GroupCommitter> committer_;
  std::unique_ptr<goosefs::PosixFilesys> fs_;
  std::unique_ptr<goose::World> world_;
  std::unique_ptr<mailboat::Mailboat> mail_;
  std::unique_ptr<MailNetServer> server_;
};

}  // namespace perennial::netserv

#endif  // PERENNIAL_SRC_NETSERV_HARNESS_H_
