// Group commit: coalesce the fsyncs of many concurrent sessions into one
// batch barrier.
//
// Mailboat's Deliver costs ~4 durability points (spool-file data, spool-dir
// entry, mailbox-dir entry, spool-dir removal). Served naively, each session
// pays each one at full device latency. GroupCommitter implements the
// goosefs::Fsyncer seam: callers enqueue their fd and block; a committer
// thread closes the batch and issues ONE barrier for everyone — then wakes
// the whole batch. Per-message fsync cost drops to O(1/batch) while every
// acknowledgment still happens strictly after its durability point, so the
// acked ⇒ durable contract the crash harness checks is unchanged.
//
// The batch window follows the device, as jbd2's does: a batch closes once
// it has been open for the measured mean barrier time (a running average,
// avg = (took + 3·avg) / 4, of what IssueBarrier took), capped by
// max_wait_us, or earlier at max_batch or Stop. Where a barrier is
// expensive, waiting about one barrier's time gathers the sessions that
// would otherwise pay their own; where it is nearly free (tmpfs), the window
// shrinks to nothing and batching comes only from requests that queue while
// the previous barrier is in flight.
//
// The window is held only when there is company to wait for: the batch
// opened while a barrier was in flight, or the previous batch had more than
// one rider. Otherwise it closes at once, so a lone sequential syncer never
// waits on itself (jbd2 skips the wait for its last sync writer likewise).
//
// Two barrier flavors:
//  * kSyncfs (default): one syncfs() on the store's filesystem persists all
//    dirty state — files and directory entries — in a single device barrier.
//    Strictly stronger than the per-fd fsyncs it replaces.
//  * kFsyncPerFd: fsync each *unique* fd in the batch (duplicates deduped,
//    counted in stats().deduped). Deterministic per-fd accounting for tests,
//    and the honest comparison point on filesystems without syncfs.
//
// The committer never reorders acks before barriers: Fsync() returns only
// after the barrier covering the call has completed (or failed, in which
// case the error is reported to every waiter in the batch).
//
// Failed barriers are STICKY. On Linux, a failed fsync drops the dirty
// pages it could not write — a later fsync of the same fd can return
// success without the data ever reaching media. So when a barrier fails:
//  * every waiter in the closed batch gets the error (as before);
//  * every waiter in the still-open batch gets the error too — under
//    kSyncfs their dirty pages were part of the same failed writeback, so
//    a fresh barrier "succeeding" for them would prove nothing;
//  * every file fd that was dirty at the time (tracked via OnDirty from
//    PosixFilesys::Append) is poisoned: subsequent Fsync() calls on it
//    fail immediately until the fd is closed (OnClose). The only honest
//    path back to durable is reopen-and-rewrite — which Mailboat's
//    tempfail + client retry does naturally with a fresh spool file.
// Directory fds are not poisoned: a tempfailing session compensates with
// unlinks, which re-dirty the directory, so its next fsync is genuine.
#ifndef PERENNIAL_SRC_NETSERV_GROUP_COMMIT_H_
#define PERENNIAL_SRC_NETSERV_GROUP_COMMIT_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_set>
#include <vector>

#include "src/base/status.h"
#include "src/fault/syscall_fault.h"
#include "src/goosefs/posix_fs.h"

namespace perennial::netserv {

class GroupCommitter : public goosefs::Fsyncer {
 public:
  enum class Barrier {
    kSyncfs,
    kFsyncPerFd,
  };

  struct Options {
    // Cap on the batch window (jbd2's j_max_batch_time): a batch is held
    // open for the mean barrier time, but never longer than this.
    uint64_t max_wait_us = 500;
    // Close the batch early once this many requests have queued.
    uint64_t max_batch = 64;
    Barrier barrier = Barrier::kSyncfs;
    // Any fd on the store's filesystem (e.g. a directory fd of the mail
    // root); required for kSyncfs, ignored for kFsyncPerFd. Not owned.
    int syncfs_fd = -1;
    // Syscall table for the barrier syscalls (fsync/syncfs); defaults to
    // the raw syscalls. Tests pass a fault::FaultInjectingSyscalls to make
    // barriers fail. Not owned.
    fault::FsSyscalls* sys = nullptr;
  };

  struct Stats {
    std::atomic<uint64_t> requests{0};       // Fsync() calls that joined a batch
    std::atomic<uint64_t> batches{0};        // barriers issued
    std::atomic<uint64_t> barrier_ns{0};     // time spent in barriers, summed
    std::atomic<uint64_t> fsyncs_issued{0};  // actual syncfs/fsync syscalls
    std::atomic<uint64_t> deduped{0};        // requests absorbed by fd dedup
    std::atomic<uint64_t> failed_batches{0};  // barriers that returned an error
    std::atomic<uint64_t> poisoned_fails{0};  // Fsync() rejections on poisoned fds
  };

  explicit GroupCommitter(Options options);
  ~GroupCommitter() override;

  GroupCommitter(const GroupCommitter&) = delete;
  GroupCommitter& operator=(const GroupCommitter&) = delete;

  void Start();
  // Drains the open batch, then joins the committer. After Stop, Fsync()
  // falls back to a direct fsync (teardown paths still get durability).
  void Stop();

  // Blocks until a barrier covering this request has completed. Thread-safe.
  // Fails immediately (no barrier) if `fd` was poisoned by an earlier
  // failed barrier; the caller must close and reopen to try again.
  Status Fsync(int fd) override;
  // PosixFilesys lifecycle hints: OnDirty marks `fd` as carrying unsynced
  // file data (poisoning candidate); OnClose clears both the dirty mark
  // and any poison (a fresh open of the same file starts clean).
  void OnDirty(int fd) override;
  void OnClose(int fd) override;

  const Stats& stats() const { return stats_; }

 private:
  struct Batch {
    std::chrono::steady_clock::time_point opened_at;
    bool hold = false;  // wait out the window: there is company to gather
    std::vector<int> fds;
    bool committed = false;
    Status status;
    std::condition_variable done_cv;
  };

  void CommitterMain();
  Status IssueBarrier(std::vector<int> fds);
  Status FsyncDirect(int fd);
  fault::FsSyscalls& Sys() const {
    return options_.sys != nullptr ? *options_.sys : *fault::RealFsSyscalls();
  }

  Options options_;
  Stats stats_;

  std::mutex mu_;
  std::condition_variable work_cv_;  // committer: "a batch opened / stop"
  std::shared_ptr<Batch> open_;      // batch accepting requests, or null
  bool running_ = false;
  bool stop_ = false;
  // Running average of the barrier's duration: the batch window.
  uint64_t avg_barrier_ns_ = 0;
  bool barrier_in_flight_ = false;
  uint64_t last_riders_ = 0;  // requests in the most recently closed batch
  // Sticky-failure tracking (see the header comment): file fds with
  // unsynced appends, and fds whose dirty pages a failed barrier dropped.
  std::unordered_set<int> dirty_;
  std::unordered_set<int> poisoned_;
  std::thread committer_;
};

}  // namespace perennial::netserv

#endif  // PERENNIAL_SRC_NETSERV_GROUP_COMMIT_H_
