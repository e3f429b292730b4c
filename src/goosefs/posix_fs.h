// Real-OS implementation of the Goose file-system interface.
//
// Used by benchmarks and the example mail server (run it on tmpfs, e.g.
// /dev/shm, to reproduce the paper's Figure 11 setup). Never used by the
// checker — it has no modeled crash semantics.
//
// Two lookup modes reproduce the paper's performance comparison (§9.3):
//  * Cached dir fds (Mailboat): each directory's fd is opened once and all
//    lookups are openat() relative to it — the optimization the paper
//    credits for part of Mailboat's single-core win.
//  * Full paths (GoMail/CMAIL style): every operation builds an absolute
//    path and walks it from the root.
#ifndef PERENNIAL_SRC_GOOSEFS_POSIX_FS_H_
#define PERENNIAL_SRC_GOOSEFS_POSIX_FS_H_

#include <atomic>
#include <functional>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/fault/syscall_fault.h"
#include "src/goosefs/filesys.h"

namespace perennial::goosefs {

// Pluggable fsync implementation. PosixFilesys routes every durability
// point — Sync(fd) on file fds and the internal directory fsyncs — through
// this seam when one is installed, so a group-commit layer (e.g.
// netserv::GroupCommitter) can coalesce the fsyncs of many concurrent
// sessions into one batch barrier. Fsync must be callable from any thread
// and must not return until the fd's dirty state is durable.
class Fsyncer {
 public:
  virtual ~Fsyncer() = default;
  virtual Status Fsync(int fd) = 0;
  // Lifecycle hints for sticky-failure tracking (Linux drops dirty pages
  // when an fsync fails, so a failed barrier must poison every fd that was
  // dirty at the time — see netserv::GroupCommitter). OnDirty fires after a
  // successful write made `fd` dirty; OnClose fires when `fd` is being
  // closed (a fresh open of the same file starts clean). Default no-ops.
  virtual void OnDirty(int /*fd*/) {}
  virtual void OnClose(int /*fd*/) {}
};

class PosixFilesys : public Filesys {
 public:
  struct Options {
    // Cache one fd per directory and do relative lookups (Mailboat mode).
    bool cache_dir_fds = true;
    // fsync the parent directory after Create/Link/Delete so the entry
    // itself is durable — POSIX only durably records a directory entry
    // once the directory is synced; fsync of the file data alone is not
    // enough. Without this, a crash after Deliver's Link+Sync can lose
    // the message despite its bytes being on disk (the metadata-
    // durability gap the crash harness exists to catch). Default on;
    // turn off only to reproduce the bug.
    bool fsync_dirs = true;
    // Crash-harness kill points, fired at syscall boundaries inside
    // Create/Link/Delete ("create.entry", "create.dirsync", "link.entry",
    // "link.dirsync", "delete.entry", "delete.dirsync"). The string
    // argument is the directory involved.
    std::function<void(const char* point, const std::string& dir)> hook{};
    // When set, all durability fsyncs (file Sync and the directory fsyncs
    // inside Create/Link/Delete) go through this instead of ::fsync —
    // the group-commit hook. EnsureDirs's one-off root fsync stays direct
    // (setup path, not a hot-path durability point). Not owned.
    Fsyncer* fsyncer = nullptr;
    // Directories whose *entry* existence is reconciled by the caller's
    // recovery procedure rather than by a barrier before acknowledgment:
    // Create and Delete in these dirs skip the parent-directory fsync (and
    // its .dirsync crossing — same observable semantics as fsync_dirs=false
    // for exactly these dirs). Link's destination dirsync — the
    // acked ⇒ durable point — is never skipped. Mailboat's netserv harness
    // passes {"spool"}: a spool entry lost in a crash was never acked
    // (pre-link crash drops the whole delivery), and a spool entry
    // resurrected by a crash (post-ack unlink undone) is removed by
    // Recover's spool sweep. Cuts a Deliver from 4 durability barriers to
    // 2 without weakening any acked guarantee.
    std::vector<std::string> recovery_reconciled_dirs{};
    // Syscall table for the data path (openat/write/pread/fsync/linkat/
    // unlinkat). Defaults to the raw syscalls; tests and fault soaks pass a
    // fault::FaultInjectingSyscalls to make the disk hostile. Setup-path
    // calls (EnsureDirs, directory-fd opens) stay raw: the fault envelope
    // is "a serving system on a degrading disk", not "mkdir fails at
    // boot". Not owned.
    fault::FsSyscalls* sys = nullptr;
  };

  // `root` must exist; directories are created beneath it on EnsureDirs.
  PosixFilesys(std::string root, Options options);
  ~PosixFilesys() override;

  PosixFilesys(const PosixFilesys&) = delete;
  PosixFilesys& operator=(const PosixFilesys&) = delete;

  // Setup (not part of the modeled API): create the fixed directory layout,
  // durably (mkdir + parent fsync when fsync_dirs). With `clear_contents`
  // any leftovers are removed (benchmark reset); a recovered run passes
  // false so surviving state — including a killed child's temp files — is
  // kept. Idempotent either way: existing directories are not an error.
  Status EnsureDirs(const std::vector<std::string>& dirs, bool clear_contents = true);
  // Removes every file in `dir`. Unlink failures propagate (ENOENT from a
  // concurrent or prior removal is tolerated).
  Status ClearDir(const std::string& dir);

  proc::Task<Result<Fd>> Create(const std::string& dir, const std::string& name) override;
  proc::Task<Result<Fd>> Open(const std::string& dir, const std::string& name) override;
  proc::Task<Status> Append(Fd fd, const Bytes& data) override;
  proc::Task<Result<Bytes>> ReadAt(Fd fd, uint64_t off, uint64_t count) override;
  proc::Task<Status> Sync(Fd fd) override;
  proc::Task<Status> Close(Fd fd) override;
  proc::Task<Result<std::vector<std::string>>> List(const std::string& dir) override;
  proc::Task<Result<bool>> Link(const std::string& src_dir, const std::string& src_name,
                                const std::string& dst_dir, const std::string& dst_name) override;
  proc::Task<Status> Delete(const std::string& dir, const std::string& name) override;

 private:
  // Returns a directory fd for `dir`: the cached one, or freshly opened
  // (caller must close when `opened` is set). -1 on failure. Once
  // EnsureDirs has sealed the cache, hits are a lock-free lookup in an
  // immutable map; misses fall back to a fresh open (correct, just slow).
  int DirFd(const std::string& dir, bool* opened);
  std::string FullPath(const std::string& dir, const std::string& name) const;
  // As FullPath, but into a reused thread-local buffer (uncached-mode ops
  // build a full path per call; the arena removes the per-op allocation).
  const char* ScratchPath(const std::string& dir, const std::string& name) const;
  // One durability fsync: routed through Options::fsyncer when installed,
  // else a direct EINTR-retrying ::fsync.
  Status DoFsync(int fd, const char* what);
  // fsync the directory itself (entry durability); no-op unless fsync_dirs.
  Status SyncDir(const std::string& dir);
  // True when `dir` is in Options::recovery_reconciled_dirs (entry
  // dirsyncs for Create/Delete are skipped there).
  bool EntryReconciled(const std::string& dir) const;
  fault::FsSyscalls& Sys() const {
    return options_.sys != nullptr ? *options_.sys : *fault::RealFsSyscalls();
  }
  void Cross(const char* point, const std::string& dir) {
    if (options_.hook) {
      options_.hook(point, dir);
    }
  }

  std::string root_;
  Options options_;
  std::mutex mu_;  // guards dir_fds_ until sealed_
  std::unordered_map<std::string, int> dir_fds_;
  // Set (with release) after EnsureDirs pre-opened every layout dir; from
  // then on dir_fds_ is immutable and read without the lock.
  std::atomic<bool> sealed_{false};
};

}  // namespace perennial::goosefs

#endif  // PERENNIAL_SRC_GOOSEFS_POSIX_FS_H_
