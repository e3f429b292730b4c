#include "src/netserv/group_commit.h"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "src/base/panic.h"

namespace perennial::netserv {

namespace {

template <typename Fn>
int RetryEintr(Fn&& fn) {
  int rc;
  do {
    rc = fn();
  } while (rc < 0 && errno == EINTR);
  return rc;
}

}  // namespace

Status GroupCommitter::FsyncDirect(int fd) {
  if (RetryEintr([&] { return Sys().Fsync(fd); }) != 0) {
    return Status::Failed(std::string("fsync: ") + std::strerror(errno));
  }
  return Status::Ok();
}

GroupCommitter::GroupCommitter(Options options) : options_(options) {
  if (options_.barrier == Barrier::kSyncfs) {
    PCC_ENSURE(options_.syncfs_fd >= 0, "GroupCommitter: kSyncfs needs syncfs_fd");
  }
}

GroupCommitter::~GroupCommitter() { Stop(); }

void GroupCommitter::Start() {
  std::scoped_lock lock(mu_);
  PCC_ENSURE(!running_, "GroupCommitter: started twice");
  running_ = true;
  stop_ = false;
  committer_ = std::thread([this] { CommitterMain(); });
}

void GroupCommitter::Stop() {
  {
    std::scoped_lock lock(mu_);
    if (!running_) {
      return;
    }
    stop_ = true;
  }
  work_cv_.notify_all();
  committer_.join();
  std::scoped_lock lock(mu_);
  running_ = false;
}

void GroupCommitter::OnDirty(int fd) {
  std::scoped_lock lock(mu_);
  dirty_.insert(fd);
}

void GroupCommitter::OnClose(int fd) {
  std::scoped_lock lock(mu_);
  dirty_.erase(fd);
  poisoned_.erase(fd);
}

Status GroupCommitter::Fsync(int fd) {
  std::unique_lock<std::mutex> lock(mu_);
  if (poisoned_.count(fd) != 0) {
    // A failed barrier dropped this fd's dirty pages; a new barrier
    // "succeeding" now would ack data that never reached media. Fail until
    // the fd is closed and the file rewritten through a fresh one.
    stats_.poisoned_fails.fetch_add(1, std::memory_order_relaxed);
    return Status::Failed("fsync: fd poisoned by an earlier failed barrier");
  }
  if (!running_ || stop_) {
    lock.unlock();
    return FsyncDirect(fd);
  }
  if (open_ == nullptr) {
    open_ = std::make_shared<Batch>();
    open_->opened_at = std::chrono::steady_clock::now();
    open_->hold = barrier_in_flight_ || last_riders_ > 1;
    work_cv_.notify_one();
  }
  std::shared_ptr<Batch> batch = open_;
  batch->fds.push_back(fd);
  stats_.requests.fetch_add(1, std::memory_order_relaxed);
  if (batch->fds.size() >= options_.max_batch) {
    work_cv_.notify_one();
  }
  batch->done_cv.wait(lock, [&] { return batch->committed; });
  return batch->status;
}

void GroupCommitter::CommitterMain() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [&] { return stop_ || open_ != nullptr; });
    if (open_ == nullptr) {
      // stop with no pending work
      return;
    }
    // Hold the batch open for one mean barrier time since it opened (at
    // most max_wait_us): a session that would arrive within that time
    // costs less waiting here than paying for a barrier of its own. A batch
    // that opened while the previous barrier was in flight is usually past
    // its window already and closes at once; one with no company in sight
    // closes at once too.
    if (open_->hold) {
      auto window = std::min(std::chrono::nanoseconds(avg_barrier_ns_),
                             std::chrono::nanoseconds(std::chrono::microseconds(options_.max_wait_us)));
      work_cv_.wait_until(lock, open_->opened_at + window, [&] {
        return stop_ || open_->fds.size() >= options_.max_batch;
      });
    }
    std::shared_ptr<Batch> batch = std::move(open_);
    open_ = nullptr;
    last_riders_ = batch->fds.size();
    barrier_in_flight_ = true;
    std::vector<int> fds = batch->fds;  // fds stay open: every owner is blocked in Fsync()
    lock.unlock();

    auto start = std::chrono::steady_clock::now();
    Status s = IssueBarrier(std::move(fds));
    auto took = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() - start)
            .count());

    lock.lock();
    barrier_in_flight_ = false;
    avg_barrier_ns_ = (took + 3 * avg_barrier_ns_) / 4;
    stats_.barrier_ns.fetch_add(took, std::memory_order_relaxed);
    stats_.batches.fetch_add(1, std::memory_order_relaxed);
    if (s.ok()) {
      // The barrier covered everything dirty at close time. Under kSyncfs
      // it covered every dirty fd on the filesystem; under kFsyncPerFd,
      // exactly the batch's fds.
      if (options_.barrier == Barrier::kSyncfs) {
        dirty_.clear();
      } else {
        for (int fd : batch->fds) {
          dirty_.erase(fd);
        }
      }
    } else {
      stats_.failed_batches.fetch_add(1, std::memory_order_relaxed);
      // Sticky failure: the kernel dropped the dirty pages it could not
      // write. Poison every fd that had unsynced file data — including
      // fds whose owners are still buffering in the open batch — and fail
      // the open batch's waiters outright rather than issuing them a
      // trivially-"successful" barrier over already-dropped pages.
      for (int fd : dirty_) {
        poisoned_.insert(fd);
      }
      dirty_.clear();
      if (open_ != nullptr) {
        std::shared_ptr<Batch> doomed = std::move(open_);
        open_ = nullptr;
        doomed->status = Status::Failed("group commit: preceding barrier failed (" +
                                        s.ToString() + ")");
        doomed->committed = true;
        doomed->done_cv.notify_all();
      }
    }
    batch->status = s;
    batch->committed = true;
    batch->done_cv.notify_all();
    if (stop_ && open_ == nullptr) {
      return;
    }
  }
}

Status GroupCommitter::IssueBarrier(std::vector<int> fds) {
  uint64_t total = fds.size();
  std::sort(fds.begin(), fds.end());
  fds.erase(std::unique(fds.begin(), fds.end()), fds.end());
  stats_.deduped.fetch_add(total - fds.size(), std::memory_order_relaxed);

  if (options_.barrier == Barrier::kSyncfs) {
    stats_.fsyncs_issued.fetch_add(1, std::memory_order_relaxed);
    if (RetryEintr([&] { return Sys().Syncfs(options_.syncfs_fd); }) == 0) {
      return Status::Ok();
    }
    // syncfs failed (exotic, but possible): fall back to per-fd fsync so
    // waiters still get a truthful answer. A failure here is still sticky
    // for everything that was dirty — CommitterMain poisons on error.
  }
  Status result = Status::Ok();
  for (int fd : fds) {
    stats_.fsyncs_issued.fetch_add(1, std::memory_order_relaxed);
    Status s = FsyncDirect(fd);
    if (!s.ok() && result.ok()) {
      result = s;
    }
  }
  return result;
}

}  // namespace perennial::netserv
