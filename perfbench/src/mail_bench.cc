// The mail-server workload, mail-mixed: the production MailNetServer over
// Mailboat, PosixFilesys and a GroupCommitter, driven over loopback TCP by a
// single-threaded load generator in the same process. Closed loop, 4
// clients, 75% SMTP deliver / 25% POP3 pickup+delete, 1 recipient, 256-byte
// bodies.
//
// The store is a tmpfs (main mounts a private one in the work directory when
// that is not tmpfs already): on a disk-backed file system the journal and
// writeback stall deliveries by hundreds of milliseconds at random, so no
// figure would repeat. On tmpfs a durability barrier costs the group-commit
// hand-off between threads, not media time.
//
// The whole workload runs on one CPU that never idles (OneBusyCpu below).
#include <dirent.h>
#include <fcntl.h>
#include <pthread.h>
#include <sched.h>
#include <sys/epoll.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "spans.h"
#include "src/base/rand.h"
#include "src/base/stage_timer.h"
#include "src/goose/world.h"
#include "src/goosefs/posix_fs.h"
#include "src/mailboat/mailboat.h"
#include "src/netserv/group_commit.h"
#include "src/netserv/net.h"
#include "src/netserv/server.h"
#include "src/proc/task.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace fs = perennial::goosefs;
namespace mb = perennial::mailboat;
namespace ns = perennial::netserv;
namespace proc = perennial::proc;
using perennial::Result;
using perennial::Status;

// Production defaults (mail_serverd): 2 event loops, 64 executors, group
// commit on with its default window, relaxed spool, Mailboat's 4 KiB
// append and 512-byte read granularity.
constexpr uint64_t kUsers = 100;
constexpr uint64_t kLoops = 2;
constexpr uint64_t kExecutors = 64;
constexpr int kClients = 4;
// Set-ups per untraced run, one per measured segment (setup_s is their
// median), each warmed up with this many requests of the workload's mix.
constexpr int kSetups = 9;
constexpr uint64_t kWarmupRequests = 200;

// End-to-end figures are medians over windows of about this length
// (seconds): each measured segment is cut into equal windows.
constexpr double kWindowS = 2.0;

// The request mix: one recipient per message, 256-byte bodies, a quarter
// of the requests POP3 pickups.
constexpr const char* kWorkload = "mail-mixed";
constexpr uint64_t kBodyBytes = 256;
constexpr double kPickupFraction = 0.25;

// ------------------------------------------------------------- decorators
//
// Installed only in the traced pass. Each forwards to the layer below and
// records a span; the request id travels down the executor thread in
// tls_req, set by the MailApi decorator.

thread_local uint64_t tls_req = 0;

// Pickup spans use ids in their own range: bit 62, the user, and the
// ordinal of that user's pickup sessions. The user's pickup lock orders the
// sessions identically on both sides of the socket.
uint64_t PickupReq(uint64_t user, uint64_t ordinal) {
  return (1ULL << 62) | (user << 32) | ordinal;
}

uint64_t ParseTag(const std::string& body) {
  static constexpr char kPrefix[] = "X-Tag: ";
  if (body.compare(0, sizeof(kPrefix) - 1, kPrefix) != 0) {
    return 0;
  }
  return std::strtoull(body.c_str() + sizeof(kPrefix) - 1, nullptr, 10);
}

class ReqScope {
 public:
  explicit ReqScope(uint64_t req) : saved_(tls_req) { tls_req = req; }
  ~ReqScope() { tls_req = saved_; }
  ReqScope(const ReqScope&) = delete;
  ReqScope& operator=(const ReqScope&) = delete;

 private:
  uint64_t saved_;
};

class TimedMailApi : public mb::MailApi {
 public:
  explicit TimedMailApi(mb::MailApi* inner)
      : inner_(inner), sessions_(inner->num_users()), session_req_(inner->num_users()) {}

  proc::Task<Result<std::vector<mb::Message>>> Pickup(uint64_t user) override {
    ReqScope rs(0);
    spans::Scope scope("mailboat.pickup", 0);
    Result<std::vector<mb::Message>> r = co_await inner_->Pickup(user);
    if (r.ok()) {
      // The user's lock is held from here to Unlock.
      uint64_t req = PickupReq(user, ++sessions_[user]);
      session_req_[user].store(req, std::memory_order_relaxed);
      scope.set_req(req);
    }
    co_return r;
  }

  proc::Task<Result<std::string>> Deliver(uint64_t user, const fs::Bytes& msg) override {
    uint64_t req = ParseTag(fs::StringOfBytes(msg));
    ReqScope rs(req);
    spans::Scope scope("mailboat.deliver", req);
    Result<std::string> r = co_await inner_->Deliver(user, msg);
    co_return r;
  }

  proc::Task<Result<std::string>> DeliverChunked(uint64_t user, uint64_t len,
                                                 mb::ChunkReader read_chunk) override {
    ReqScope rs(0);
    spans::Scope scope("mailboat.deliver", 0);
    spans::Scope* sp = &scope;
    // The body's first line carries the request id; catch it as the first
    // chunk streams through.
    mb::ChunkReader tagged = [read_chunk, sp](uint64_t off,
                                              uint64_t n) -> proc::Task<fs::Bytes> {
      fs::Bytes chunk = co_await read_chunk(off, n);
      if (off == 0) {
        size_t head = std::min<size_t>(chunk.size(), 32);
        uint64_t req = ParseTag(std::string(chunk.begin(), chunk.begin() + static_cast<long>(head)));
        sp->set_req(req);
        tls_req = req;
      }
      co_return chunk;
    };
    Result<std::string> r = co_await inner_->DeliverChunked(user, len, std::move(tagged));
    co_return r;
  }

  proc::Task<Status> Delete(uint64_t user, const std::string& id) override {
    uint64_t req = session_req_[user].load(std::memory_order_relaxed);
    ReqScope rs(req);
    spans::Scope scope("mailboat.delete", req);
    Status s = co_await inner_->Delete(user, id);
    co_return s;
  }

  proc::Task<void> Unlock(uint64_t user) override {
    uint64_t req = session_req_[user].load(std::memory_order_relaxed);
    ReqScope rs(req);
    spans::Scope scope("mailboat.unlock", req);
    co_await inner_->Unlock(user);
  }

  proc::Task<void> Recover() override { co_await inner_->Recover(); }

  uint64_t num_users() const override { return inner_->num_users(); }

 private:
  mb::MailApi* inner_;
  std::vector<uint64_t> sessions_;  // per user; written under the user's lock
  std::vector<std::atomic<uint64_t>> session_req_;
};

class TimedFilesys : public fs::Filesys {
 public:
  explicit TimedFilesys(fs::Filesys* inner) : inner_(inner) {}

  proc::Task<Result<fs::Fd>> Create(const std::string& dir, const std::string& name) override {
    spans::Scope scope("goosefs.create", tls_req);
    Result<fs::Fd> r = co_await inner_->Create(dir, name);
    co_return r;
  }
  proc::Task<Result<fs::Fd>> Open(const std::string& dir, const std::string& name) override {
    spans::Scope scope("goosefs.open", tls_req);
    Result<fs::Fd> r = co_await inner_->Open(dir, name);
    co_return r;
  }
  proc::Task<Status> Append(fs::Fd fd, const fs::Bytes& data) override {
    spans::Scope scope("goosefs.append", tls_req);
    appended_.fetch_add(data.size(), std::memory_order_relaxed);
    Status s = co_await inner_->Append(fd, data);
    co_return s;
  }
  proc::Task<Result<fs::Bytes>> ReadAt(fs::Fd fd, uint64_t off, uint64_t count) override {
    spans::Scope scope("goosefs.read", tls_req);
    Result<fs::Bytes> r = co_await inner_->ReadAt(fd, off, count);
    co_return r;
  }
  proc::Task<Status> Sync(fs::Fd fd) override {
    spans::Scope scope("goosefs.sync", tls_req);
    Status s = co_await inner_->Sync(fd);
    co_return s;
  }
  proc::Task<Status> Close(fs::Fd fd) override {
    spans::Scope scope("goosefs.close", tls_req);
    Status s = co_await inner_->Close(fd);
    co_return s;
  }
  proc::Task<Result<std::vector<std::string>>> List(const std::string& dir) override {
    spans::Scope scope("goosefs.list", tls_req);
    Result<std::vector<std::string>> r = co_await inner_->List(dir);
    co_return r;
  }
  proc::Task<Result<bool>> Link(const std::string& src_dir, const std::string& src_name,
                                const std::string& dst_dir, const std::string& dst_name) override {
    spans::Scope scope("goosefs.link", tls_req);
    Result<bool> r = co_await inner_->Link(src_dir, src_name, dst_dir, dst_name);
    co_return r;
  }
  proc::Task<Status> Delete(const std::string& dir, const std::string& name) override {
    spans::Scope scope("goosefs.delete", tls_req);
    Status s = co_await inner_->Delete(dir, name);
    co_return s;
  }

  uint64_t appended() const { return appended_.load(std::memory_order_relaxed); }

 private:
  fs::Filesys* inner_;
  std::atomic<uint64_t> appended_{0};
};

class TimedFsyncer : public fs::Fsyncer {
 public:
  explicit TimedFsyncer(fs::Fsyncer* inner) : inner_(inner) {}
  Status Fsync(int fd) override {
    spans::Scope scope("netserv.commit_wait", tls_req);
    return inner_->Fsync(fd);
  }
  void OnDirty(int fd) override { inner_->OnDirty(fd); }
  void OnClose(int fd) override { inner_->OnClose(fd); }

 private:
  fs::Fsyncer* inner_;
};

// ------------------------------------------------------------ server stack

// PosixFilesys + GroupCommitter + Mailboat + MailNetServer in the
// production wiring, with the timing decorators between the layers when
// traced. Members are declared bottom-up, so destruction runs top-down.
class MailStack {
 public:
  MailStack(std::string root, bool traced) : root_(std::move(root)), traced_(traced) {}
  ~MailStack() { Stop(); }
  MailStack(const MailStack&) = delete;
  MailStack& operator=(const MailStack&) = delete;

  bool Start() {
    root_fd_ = ::open(root_.c_str(), O_DIRECTORY | O_RDONLY);
    if (root_fd_ < 0) {
      return false;
    }
    committer_ = std::make_unique<ns::GroupCommitter>(ns::GroupCommitter::Options{
        .barrier = ns::GroupCommitter::Barrier::kSyncfs,
        .syncfs_fd = root_fd_,
    });
    committer_->Start();
    fs::Fsyncer* fsyncer = committer_.get();
    if (traced_) {
      timed_fsyncer_ = std::make_unique<TimedFsyncer>(committer_.get());
      fsyncer = timed_fsyncer_.get();
    }
    fs::PosixFilesys::Options fs_options;
    fs_options.cache_dir_fds = true;
    fs_options.fsync_dirs = true;
    fs_options.fsyncer = fsyncer;
    fs_options.recovery_reconciled_dirs = {"spool"};
    fs_ = std::make_unique<fs::PosixFilesys>(root_, fs_options);
    if (!fs_->EnsureDirs(mb::Mailboat::DirLayout(kUsers), /*clear_contents=*/true).ok()) {
      return false;
    }
    fs::Filesys* filesys = fs_.get();
    if (traced_) {
      timed_fs_ = std::make_unique<TimedFilesys>(fs_.get());
      filesys = timed_fs_.get();
    }
    mail_ = std::make_unique<mb::Mailboat>(&world_, filesys,
                                           mb::Mailboat::Options{kUsers, 4096, 512, 42});
    proc::RunSyncVoid(mail_->Recover());
    mb::MailApi* api = mail_.get();
    if (traced_) {
      timed_mail_ = std::make_unique<TimedMailApi>(mail_.get());
      api = timed_mail_.get();
    }
    ns::MailNetServer::Options server_options;
    server_options.num_loops = kLoops;
    server_options.num_executors = kExecutors;
    server_ = std::make_unique<ns::MailNetServer>(api, server_options);
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
  const ns::MailNetServer& server() const { return *server_; }
  const ns::GroupCommitter& committer() const { return *committer_; }
  uint64_t appended_bytes() const { return timed_fs_ != nullptr ? timed_fs_->appended() : 0; }

 private:
  std::string root_;
  bool traced_;
  int root_fd_ = -1;
  std::unique_ptr<ns::GroupCommitter> committer_;
  std::unique_ptr<TimedFsyncer> timed_fsyncer_;
  std::unique_ptr<fs::PosixFilesys> fs_;
  std::unique_ptr<TimedFilesys> timed_fs_;
  perennial::goose::World world_;
  std::unique_ptr<mb::Mailboat> mail_;
  std::unique_ptr<TimedMailApi> timed_mail_;
  std::unique_ptr<ns::MailNetServer> server_;
};

// ------------------------------------------------------------------ ledger

// The body of message `tag`: its id line, then deterministic filler lines
// (no line starts with '.', so no dot-stuffing), kBodyBytes long in total.
std::string Body(uint64_t tag) {
  std::string body = "X-Tag: " + std::to_string(tag) + "\r\n";
  uint64_t x = tag * 0x9E3779B97F4A7C15ULL + 0x2545F4914F6CDD1DULL;
  while (body.size() < kBodyBytes) {
    size_t left = kBodyBytes - body.size();
    size_t line = left <= 66 ? left : 64;
    for (size_t i = 0; i + 2 < line; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      body.push_back(static_cast<char>('a' + x % 26));
    }
    body += "\r\n";
  }
  return body;
}

// Every message the generator sent, whether it was acknowledged, and
// whether a committed POP3 delete removed it; a message's recipient is a
// function of its tag and the seed. The audits compare it with what pickups
// returned and what the store holds. One generator thread hands out a
// ledger's tags in order, so entries sit in a vector indexed from the first
// tag, one byte per message, with room reserved up front: the benchmark's
// own bookkeeping barely grows the process's peak memory as the server gets
// faster.
class Ledger {
 public:
  explicit Ledger(uint64_t seed) : seed_(seed * 0x9E3779B97F4A7C15ULL) {
    entries_.reserve(kReserved);
  }

  uint64_t Recipient(uint64_t tag) const {
    uint64_t x = tag ^ seed_;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return (x ^ (x >> 31)) % kUsers;
  }

  // Records message `tag` as sent; returns its recipient.
  uint64_t Sent(uint64_t tag) {
    if (entries_.empty()) {
      base_ = tag;
    }
    entries_.resize(tag - base_ + 1);
    return Recipient(tag);
  }
  void Acked(uint64_t tag) {
    *Find(tag) |= kAcked;
    ++acked_total_;
  }

  // A body returned by RETR from `user`'s mailbox: it must be a message
  // sent to that user, byte for byte, and not one already deleted.
  uint64_t Retrieved(uint64_t user, const std::string& contents, std::string* problem) {
    uint64_t tag = ParseTag(contents);
    const uint8_t* e = Find(tag);
    if (e == nullptr || Recipient(tag) != user) {
      *problem = "pickup of user" + std::to_string(user) + " returned a phantom body (tag " +
                 std::to_string(tag) + ")";
      return 0;
    }
    if (*e & kDeleted) {
      *problem = "pickup returned deleted message " + std::to_string(tag);
      return 0;
    }
    if (contents != Body(tag)) {
      *problem = "pickup returned corrupted body for tag " + std::to_string(tag);
      return 0;
    }
    return tag;
  }
  void Deleted(uint64_t tag) { *Find(tag) |= kDeleted; }

  uint64_t acked() const { return acked_total_; }

  // Reads every mailbox and the spool while nothing is in flight. Every
  // acked, undeleted message must be present exactly once with its exact
  // body; nothing else may be.
  std::vector<std::string> AuditStore(const std::string& root) const {
    std::vector<std::string> problems;
    auto fail = [&](std::string p) {
      if (problems.size() < 10) {
        problems.push_back(std::move(p));
      }
    };
    std::vector<uint8_t> copies(entries_.size());
    for (uint64_t user = 0; user < kUsers; ++user) {
      std::string dir = root + "/user" + std::to_string(user);
      for (const std::string& contents : ReadDir(dir, &problems)) {
        uint64_t tag = ParseTag(contents);
        const uint8_t* e = Find(tag);
        if (e == nullptr || Recipient(tag) != user || !(*e & kAcked)) {
          fail("store: unacked or phantom message (tag " + std::to_string(tag) + ") in user" +
               std::to_string(user));
          continue;
        }
        if (*e & kDeleted) {
          fail("store: deleted message " + std::to_string(tag) + " survived in user" +
               std::to_string(user));
          continue;
        }
        if (contents != Body(tag)) {
          fail("store: corrupted body for tag " + std::to_string(tag));
        }
        copies[tag - base_] += 1;
      }
    }
    for (size_t k = 0; k < entries_.size(); ++k) {
      int want = (entries_[k] & kDeleted) ? 0 : 1;
      if ((entries_[k] & kAcked) && copies[k] != want) {
        fail("store: acked message " + std::to_string(base_ + k) + " has " +
             std::to_string(copies[k]) + " copies in user" +
             std::to_string(Recipient(base_ + k)) + ", expected " + std::to_string(want));
      }
    }
    std::vector<std::string> spool = ReadDir(root + "/spool", &problems);
    if (!spool.empty()) {
      fail("store: " + std::to_string(spool.size()) + " files left in the spool");
    }
    return problems;
  }

 private:
  // Entry bits. kDeleted: a committed delete removed the message.
  static constexpr uint8_t kAcked = 1;
  static constexpr uint8_t kDeleted = 2;
  static constexpr size_t kReserved = size_t{1} << 22;

  uint8_t* Find(uint64_t tag) {
    return tag >= base_ && tag - base_ < entries_.size() ? &entries_[tag - base_] : nullptr;
  }
  const uint8_t* Find(uint64_t tag) const {
    return tag >= base_ && tag - base_ < entries_.size() ? &entries_[tag - base_] : nullptr;
  }

  static std::vector<std::string> ReadDir(const std::string& dir,
                                          std::vector<std::string>* problems) {
    std::vector<std::string> out;
    DIR* d = ::opendir(dir.c_str());
    if (d == nullptr) {
      problems->push_back("store: cannot open " + dir);
      return out;
    }
    while (dirent* entry = ::readdir(d)) {
      if (entry->d_name[0] == '.') {
        continue;
      }
      std::string path = dir + "/" + entry->d_name;
      int fd = ::open(path.c_str(), O_RDONLY);
      if (fd < 0) {
        problems->push_back("store: cannot open " + path);
        continue;
      }
      std::string contents;
      char buf[8192];
      ssize_t n = 0;
      while ((n = ::read(fd, buf, sizeof(buf))) > 0) {
        contents.append(buf, static_cast<size_t>(n));
      }
      ::close(fd);
      out.push_back(std::move(contents));
    }
    ::closedir(d);
    return out;
  }

  uint64_t seed_;
  uint64_t acked_total_ = 0;
  uint64_t base_ = 0;
  std::vector<uint8_t> entries_;
};

// ------------------------------------------------------------ one busy CPU
//
// On a virtual machine an idle vCPU halts, and the next wake-up on it (a
// reply, a group-commit timer) waits for the host to run the vCPU again. A
// closed-loop request hands off between threads several times, so on a busy
// shared host those waits, not the server, set the figures: identical runs
// measured 2,300 and 5,500 requests/s. So the workload, server and
// generator, is confined to one CPU, and a SCHED_IDLE thread spins there
// whenever nothing else is runnable. The vCPU never halts, a hand-off is a
// context switch inside the guest, and the host slows a run only by the
// time it takes the vCPU away, as it does any CPU-bound run. Any runnable
// thread of the workload preempts the spinner at once; its CPU time is left
// out of the process CPU figures.
class OneBusyCpu {
 public:
  // Confines the calling thread, and so every thread it starts later, to
  // the last CPU it may run on.
  OneBusyCpu() {
    CPU_ZERO(&saved_);
    if (::sched_getaffinity(0, sizeof(saved_), &saved_) != 0) {
      error_ = std::string("sched_getaffinity: ") + std::strerror(errno);
      return;
    }
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &saved_)) {
        cpu_ = c;
      }
    }
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu_, &one);
    if (::sched_setaffinity(0, sizeof(one), &one) != 0) {
      error_ = std::string("sched_setaffinity: ") + std::strerror(errno);
      return;
    }
    pinned_ = true;
    std::atomic<int> started{0};
    spinner_ = std::thread([this, &started] {
      sched_param none{};
      if (::pthread_setschedparam(::pthread_self(), SCHED_IDLE, &none) != 0) {
        started.store(-1);
        return;
      }
      started.store(1);
      while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#endif
      }
    });
    while (started.load() == 0) {
      std::this_thread::yield();
    }
    if (started.load() < 0 || ::pthread_getcpuclockid(spinner_.native_handle(), &clock_) != 0) {
      error_ = "cannot start a SCHED_IDLE spinner";
    }
  }
  ~OneBusyCpu() {
    stop_.store(true);
    if (spinner_.joinable()) {
      spinner_.join();
    }
    if (pinned_) {
      ::sched_setaffinity(0, sizeof(saved_), &saved_);
    }
  }
  OneBusyCpu(const OneBusyCpu&) = delete;
  OneBusyCpu& operator=(const OneBusyCpu&) = delete;

  const std::string& error() const { return error_; }
  int cpu() const { return cpu_; }
  // CPU time the spinner has used so far.
  double SpinnerCpuSeconds() const {
    timespec ts{};
    if (!error_.empty() || ::clock_gettime(clock_, &ts) != 0) {
      return 0;
    }
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
  }

 private:
  cpu_set_t saved_;
  int cpu_ = 0;
  bool pinned_ = false;
  std::string error_;
  std::atomic<bool> stop_{false};
  std::thread spinner_;
  clockid_t clock_{};
};

// ----------------------------------------------------------- load generator

std::atomic<uint64_t> g_next_tag{1};

struct Phase {
  double seconds = 0;         // measuring window
  uint64_t max_requests = 0;  // stop issuing after this many (0 = no cap)
  bool windows = false;       // cut the measuring window into kWindowS parts
};

// One part of a measured phase. Its latencies are reduced to these figures
// as soon as it closes, so the benchmark's own memory does not grow with
// the number of requests served (that would show in peak_rss_mb).
struct Window {
  size_t n = 0;  // requests completed in it
  double rate = 0;
  double p50_us = 0;
  double p90_us = 0;
  double p99_us = 0;
  double deliver_p50_us = 0;
  double deliver_p99_us = 0;
  double pickup_p50_us = 0;
  double pickup_p99_us = 0;
};

struct PhaseStats {
  std::vector<Window> windows;
  double window_width_s = 0;
  uint64_t completed = 0;  // completed inside the window
  uint64_t delivers = 0;   // acked transactions (whole phase)
  uint64_t pickups = 0;
  uint64_t errors = 0;
  std::string first_error;
  double window_s = 0;
  double gen_cpu_s = 0;
  double proc_cpu_s = 0;  // whole process less the spinner, over the window

  // Appends a later phase of the same kind.
  void Add(const PhaseStats& o) {
    windows.insert(windows.end(), o.windows.begin(), o.windows.end());
    window_width_s = o.window_width_s;
    completed += o.completed;
    delivers += o.delivers;
    pickups += o.pickups;
    if (errors == 0) {
      first_error = o.first_error;
    }
    errors += o.errors;
    window_s += o.window_s;
    gen_cpu_s += o.gen_cpu_s;
    proc_cpu_s += o.proc_cpu_s;
  }
};

// One thread, epoll, four clients. A client holds a persistent SMTP
// connection and opens a POP3 connection per pickup session; it has at
// most one request in flight.
class LoadGen {
 public:
  LoadGen(uint64_t seed, Ledger* ledger, const OneBusyCpu* cpu)
      : ledger_(ledger), cpu_(cpu), pickup_sessions_(kUsers, 0) {
    for (int i = 0; i < kClients; ++i) {
      auto c = std::make_unique<Client>();
      c->id = i;
      c->rng = std::make_unique<perennial::Rng>(seed * 1000003ULL + static_cast<uint64_t>(i));
      clients_.push_back(std::move(c));
    }
  }
  ~LoadGen() { Close(); }
  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  // Opens the SMTP connections and completes each greeting + EHLO.
  bool Connect(uint16_t smtp_port, uint16_t pop3_port) {
    pop3_port_ = pop3_port;
    epfd_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (epfd_ < 0) {
      return false;
    }
    for (auto& c : clients_) {
      int fd = ns::ConnectTcp(smtp_port);
      if (fd < 0) {
        return false;
      }
      c->smtp.fd = fd;
      static constexpr char kEhlo[] = "EHLO perfbench\r\n";
      std::string line;
      if (!ReadLineBlocking(fd, &line) || line.rfind("220", 0) != 0 ||
          ns::SendSome(fd, kEhlo, sizeof(kEhlo) - 1) != sizeof(kEhlo) - 1 ||
          !ReadLineBlocking(fd, &line) || line.rfind("250", 0) != 0) {
        return false;
      }
      ns::SetNonblocking(fd);
      Watch(c.get(), false);
    }
    return true;
  }

  void Close() {
    for (auto& c : clients_) {
      CloseConn(&c->smtp);
      CloseConn(&c->pop);
    }
    if (epfd_ >= 0) {
      ::close(epfd_);
      epfd_ = -1;
    }
  }

  PhaseStats Run(const Phase& phase) {
    PhaseStats st;
    double gen_cpu0 = ThreadCpuSeconds();
    double proc_cpu0 = WorkloadCpuSeconds();
    uint64_t start = NowNs();
    phase_start_ns_ = start;
    uint64_t deadline = start + static_cast<uint64_t>(phase.seconds * 1e9);
    num_windows_ = 0;
    if (phase.windows) {
      num_windows_ = std::max<size_t>(1, static_cast<size_t>(phase.seconds / kWindowS + 0.5));
      st.window_width_s = phase.seconds / static_cast<double>(num_windows_);
    }
    uint64_t issued = 0;
    bool window_closed = false;
    stats_ = &st;
    while (st.errors == 0) {
      uint64_t now = NowNs();
      if (!window_closed && now >= deadline) {
        window_closed = true;
        st.window_s = static_cast<double>(now - start) / 1e9;
        st.proc_cpu_s = WorkloadCpuSeconds() - proc_cpu0;
        st.gen_cpu_s = ThreadCpuSeconds() - gen_cpu0;
      }
      bool may_issue = !window_closed && (phase.max_requests == 0 || issued < phase.max_requests);
      bool all_idle = true;
      for (auto& c : clients_) {
        if (c->state == kIdle && may_issue) {
          ++issued;
          StartRequest(c.get());
        }
        all_idle = all_idle && c->state == kIdle;
      }
      if (all_idle && (window_closed || (phase.max_requests != 0 && issued >= phase.max_requests))) {
        break;
      }
      int timeout_ms = 100;
      if (!window_closed) {
        timeout_ms = static_cast<int>((deadline - std::min(deadline, now)) / 1'000'000) + 1;
      }
      epoll_event events[16];
      int n = ::epoll_wait(epfd_, events, 16, timeout_ms);
      for (int i = 0; i < n; ++i) {
        uint64_t key = events[i].data.u64;
        Client* c = clients_[key >> 1].get();
        bool pop = (key & 1) != 0;
        if (events[i].events & EPOLLOUT) {
          Flush(c, pop);
        }
        if (events[i].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) {
          Readable(c, pop, deadline);
        }
      }
    }
    if (!window_closed) {
      st.window_s = static_cast<double>(NowNs() - start) / 1e9;
      st.proc_cpu_s = WorkloadCpuSeconds() - proc_cpu0;
      st.gen_cpu_s = ThreadCpuSeconds() - gen_cpu0;
    }
    while (st.windows.size() < num_windows_) {
      CloseWindow();
    }
    stats_ = nullptr;
    return st;
  }

 private:
  enum State {
    kIdle,
    kSmtpAcks,    // MAIL/RCPT.../DATA sent; expecting 250s then 354
    kSmtpFinal,   // body sent; expecting 250
    kPopGreet,
    kPopAuth,     // USER/PASS/LIST sent; expecting two +OK
    kPopList,     // collecting the LIST listing
    kPopRetr,     // collecting RETR responses
    kPopDele,     // DELE.../QUIT sent; expecting +OKs
    kPopQuit,
  };

  struct Conn {
    int fd = -1;
    std::string in;
    std::string out;
    size_t out_off = 0;
    bool want_out = false;
  };

  struct Client {
    int id = 0;
    std::unique_ptr<perennial::Rng> rng;
    Conn smtp;
    Conn pop;
    State state = kIdle;
    uint64_t start_ns = 0;  // latency origin: first byte sent, or the connect
    uint64_t tag = 0;
    size_t acks_left = 0;
    uint64_t user = 0;
    uint64_t session_req = 0;
    size_t retr_left = 0;
    size_t nmsgs = 0;
    std::vector<std::string> lines;  // multi-line response being collected
    std::vector<uint64_t> retrieved;
  };

  // Set-up only: one byte at a time, before the socket turns non-blocking.
  static bool ReadLineBlocking(int fd, std::string* line) {
    line->clear();
    char ch = 0;
    while (ns::RecvSome(fd, &ch, 1) == 1) {
      if (ch == '\n') {
        if (!line->empty() && line->back() == '\r') {
          line->pop_back();
        }
        return true;
      }
      line->push_back(ch);
    }
    return false;
  }

  void Watch(Client* c, bool pop) {
    Conn& conn = pop ? c->pop : c->smtp;
    epoll_event ev{};
    ev.events = EPOLLIN | (conn.want_out ? static_cast<uint32_t>(EPOLLOUT) : 0U);
    ev.data.u64 = (static_cast<uint64_t>(c->id) << 1) | (pop ? 1 : 0);
    if (::epoll_ctl(epfd_, EPOLL_CTL_MOD, conn.fd, &ev) != 0) {
      ::epoll_ctl(epfd_, EPOLL_CTL_ADD, conn.fd, &ev);
    }
  }

  void CloseConn(Conn* conn) {
    if (conn->fd >= 0) {
      if (epfd_ >= 0) {
        ::epoll_ctl(epfd_, EPOLL_CTL_DEL, conn->fd, nullptr);
      }
      ::close(conn->fd);
    }
    *conn = Conn{};
  }

  void Send(Client* c, bool pop, const std::string& data) {
    Conn& conn = pop ? c->pop : c->smtp;
    conn.out += data;
    Flush(c, pop);
  }

  void Flush(Client* c, bool pop) {
    Conn& conn = pop ? c->pop : c->smtp;
    while (conn.out_off < conn.out.size()) {
      ssize_t n = ns::SendSome(conn.fd, conn.out.data() + conn.out_off,
                               conn.out.size() - conn.out_off);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
          break;
        }
        Error(c, "send failed: " + std::string(std::strerror(errno)));
        return;
      }
      conn.out_off += static_cast<size_t>(n);
    }
    if (conn.out_off == conn.out.size()) {
      conn.out.clear();
      conn.out_off = 0;
    }
    bool want = !conn.out.empty();
    if (want != conn.want_out) {
      conn.want_out = want;
      Watch(c, pop);
    }
  }

  void StartRequest(Client* c) {
    if (c->rng->Chance(kPickupFraction)) {
      StartPickup(c, c->rng->Below(kUsers));
    } else {
      StartDeliver(c);
    }
  }

  // MAIL, RCPT and DATA pipelined; the body follows the 354.
  void StartDeliver(Client* c) {
    c->tag = g_next_tag.fetch_add(1);
    c->start_ns = NowNs();
    uint64_t user = ledger_->Sent(c->tag);
    c->acks_left = 2;
    c->state = kSmtpAcks;
    Send(c, false, "MAIL FROM:<perfbench@bench>\r\nRCPT TO:<user" + std::to_string(user) +
                       "@bench>\r\nDATA\r\n");
  }

  void StartPickup(Client* c, uint64_t user) {
    c->user = user;
    c->start_ns = NowNs();
    c->retrieved.clear();
    c->lines.clear();
    int fd = ns::ConnectTcp(pop3_port_);
    if (fd < 0) {
      Error(c, "POP3 connect failed");
      return;
    }
    ns::SetNonblocking(fd);
    c->pop.fd = fd;
    c->state = kPopGreet;
    Watch(c, true);
  }

  void Readable(Client* c, bool pop, uint64_t deadline) {
    Conn& conn = pop ? c->pop : c->smtp;
    char buf[16384];
    bool eof = false;
    while (true) {
      ssize_t n = ns::RecvSome(conn.fd, buf, sizeof(buf));
      if (n > 0) {
        conn.in.append(buf, static_cast<size_t>(n));
        continue;
      }
      eof = !(n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK));
      break;
    }
    size_t pos = 0;
    while (conn.fd >= 0) {
      size_t eol = conn.in.find("\r\n", pos);
      if (eol == std::string::npos) {
        break;
      }
      std::string line = conn.in.substr(pos, eol - pos);
      pos = eol + 2;
      OnLine(c, pop, line, deadline);
      if (stats_ == nullptr || stats_->errors != 0) {
        return;
      }
    }
    if (conn.fd < 0) {
      return;  // a completed POP3 session closed its connection
    }
    conn.in.erase(0, pos);
    if (eof) {
      Error(c, pop ? "POP3 connection closed early" : "SMTP connection closed");
      CloseConn(&conn);
    }
  }

  void Complete(Client* c, bool pickup, uint64_t deadline) {
    uint64_t now = NowNs();
    double us = static_cast<double>(now - c->start_ns) / 1e3;
    if (pickup) {
      stats_->pickups += 1;
      spans::Record("client.pickup", c->session_req, c->start_ns, now);
    } else {
      stats_->delivers += 1;
      spans::Record("client.deliver", c->tag, c->start_ns, now);
    }
    // Only requests finished inside the window count.
    if (now > deadline) {
      c->state = kIdle;
      return;
    }
    stats_->completed += 1;
    if (num_windows_ != 0) {
      auto w = static_cast<size_t>(static_cast<double>(now - phase_start_ns_) / 1e9 /
                                   stats_->window_width_s);
      while (stats_->windows.size() < std::min(w, num_windows_ - 1)) {
        CloseWindow();
      }
      win_all_.push_back(us);
      (pickup ? win_pickup_ : win_deliver_).push_back(us);
    }
    c->state = kIdle;
  }

  double WorkloadCpuSeconds() const { return ProcessCpuSeconds() - cpu_->SpinnerCpuSeconds(); }

  void CloseWindow() {
    Window w;
    w.n = win_all_.size();
    w.rate = static_cast<double>(w.n) / stats_->window_width_s;
    w.p50_us = Percentile(win_all_, 50);
    w.p90_us = Percentile(win_all_, 90);
    w.p99_us = Percentile(win_all_, 99);
    w.deliver_p50_us = Percentile(win_deliver_, 50);
    w.deliver_p99_us = Percentile(win_deliver_, 99);
    w.pickup_p50_us = Percentile(win_pickup_, 50);
    w.pickup_p99_us = Percentile(win_pickup_, 99);
    stats_->windows.push_back(w);
    win_all_.clear();
    win_deliver_.clear();
    win_pickup_.clear();
  }

  void OnLine(Client* c, bool pop, const std::string& line, uint64_t deadline) {
    auto ok = [&](const char* prefix) { return line.rfind(prefix, 0) == 0; };
    switch (c->state) {
      case kSmtpAcks:
        if (c->acks_left > 0) {
          if (!ok("250")) {
            return Error(c, "SMTP: " + line);
          }
          --c->acks_left;
          return;
        }
        if (!ok("354")) {
          return Error(c, "SMTP DATA: " + line);
        }
        c->state = kSmtpFinal;
        Send(c, false, Body(c->tag) + ".\r\n");
        return;
      case kSmtpFinal:
        if (!ok("250")) {
          return Error(c, "SMTP end of data: " + line);
        }
        ledger_->Acked(c->tag);
        return Complete(c, false, deadline);
      case kPopGreet:
        if (!ok("+OK")) {
          return Error(c, "POP3 greeting: " + line);
        }
        c->state = kPopAuth;
        c->acks_left = 2;
        Send(c, true, "USER user" + std::to_string(c->user) + "\r\nPASS x\r\nLIST\r\n");
        return;
      case kPopAuth:
        if (!ok("+OK")) {
          return Error(c, "POP3 auth: " + line);
        }
        if (--c->acks_left == 0) {
          c->session_req = PickupReq(c->user, ++pickup_sessions_[c->user]);
          c->state = kPopList;
          c->lines.clear();
        }
        return;
      case kPopList:
        if (line != ".") {
          c->lines.push_back(line);
          return;
        }
        if (c->lines.empty() || c->lines[0].rfind("+OK", 0) != 0) {
          return Error(c, "POP3 LIST failed");
        }
        c->nmsgs = c->lines.size() - 1;
        c->lines.clear();
        if (c->nmsgs == 0) {
          c->state = kPopQuit;
          Send(c, true, "QUIT\r\n");
          return;
        }
        {
          std::string batch;
          for (size_t i = 1; i <= c->nmsgs; ++i) {
            batch += "RETR " + std::to_string(i) + "\r\n";
          }
          c->retr_left = c->nmsgs;
          c->state = kPopRetr;
          Send(c, true, batch);
        }
        return;
      case kPopRetr: {
        if (line != ".") {
          c->lines.push_back(line);
          return;
        }
        if (c->lines.empty() || c->lines[0].rfind("+OK", 0) != 0) {
          return Error(c, "POP3 RETR failed");
        }
        // The server sends the stored contents (which end in CRLF) and
        // then CRLF "." — the last collected line is that empty one.
        std::string contents;
        for (size_t i = 1; i + 1 < c->lines.size(); ++i) {
          contents += c->lines[i];
          contents += "\r\n";
        }
        c->lines.clear();
        std::string problem;
        uint64_t tag = ledger_->Retrieved(c->user, contents, &problem);
        if (!problem.empty()) {
          return Error(c, problem);
        }
        c->retrieved.push_back(tag);
        if (--c->retr_left == 0) {
          std::string batch;
          for (size_t i = 1; i <= c->nmsgs; ++i) {
            batch += "DELE " + std::to_string(i) + "\r\n";
          }
          batch += "QUIT\r\n";
          c->acks_left = c->nmsgs;
          c->state = kPopDele;
          Send(c, true, batch);
        }
        return;
      }
      case kPopDele:
        if (!ok("+OK")) {
          return Error(c, "POP3 DELE: " + line);
        }
        if (--c->acks_left == 0) {
          c->state = kPopQuit;
        }
        return;
      case kPopQuit:
        if (!ok("+OK")) {
          return Error(c, "POP3 QUIT: " + line);
        }
        for (uint64_t tag : c->retrieved) {
          ledger_->Deleted(tag);
        }
        Complete(c, true, deadline);
        CloseConn(&c->pop);
        return;
      case kIdle:
        return Error(c, std::string("unsolicited ") + (pop ? "POP3" : "SMTP") + " line: " + line);
    }
  }

  void Error(Client* c, const std::string& what) {
    if (stats_ != nullptr) {
      if (stats_->errors == 0) {
        stats_->first_error = "client " + std::to_string(c->id) + ": " + what;
      }
      stats_->errors += 1;
    }
    c->state = kIdle;
  }

  Ledger* ledger_;
  const OneBusyCpu* cpu_;
  std::vector<std::unique_ptr<Client>> clients_;
  std::vector<uint64_t> pickup_sessions_;
  uint16_t pop3_port_ = 0;
  int epfd_ = -1;
  PhaseStats* stats_ = nullptr;
  size_t num_windows_ = 0;
  // Latencies of the open window: every request, deliveries, pickups.
  std::vector<double> win_all_;
  std::vector<double> win_deliver_;
  std::vector<double> win_pickup_;
  uint64_t phase_start_ns_ = 0;
};

// -------------------------------------------------------------- the runs

struct MailPass {
  std::vector<double> setup_s;
  PhaseStats measured;
  std::vector<std::string> audit;
  uint64_t errors = 0;
  std::string first_error;
  uint64_t attempted = 0;
  // Server-side deltas over the measured phase.
  uint64_t lines = 0;
  uint64_t gc_requests = 0;
  uint64_t gc_batches = 0;
  uint64_t gc_deduped = 0;
  uint64_t appended = 0;
  perennial::stage::StageTotals stages;
};

// The measured time is cut into segments, one per set-up. Each segment
// starts a fresh server stack (timed with its warm-up; setup_s is the
// median), measures its share of the run, and is audited before the next
// set-up clears the store, so the set-ups sample the host across the whole
// run, as the measured windows do. Untraced: kSetups segments. Traced: one,
// with the decorators installed and spans on for the measured part only.
void RunMailPass(const RunArgs& args, const OneBusyCpu& cpu, bool traced, MailPass* pass) {
  std::string root = args.store_dir + "/" + kWorkload;
  ::mkdir(root.c_str(), 0755);
  // Create the layout once, outside any timed set-up.
  for (const std::string& dir : mb::Mailboat::DirLayout(kUsers)) {
    ::mkdir((root + "/" + dir).c_str(), 0755);
  }
  int segments = traced ? 1 : kSetups;
  uint64_t acked = 0;
  for (int i = 0; i < segments && pass->errors == 0; ++i) {
    Ledger ledger(args.seed);
    {
      Clock::time_point t0 = Clock::now();
      MailStack stack(root, traced);
      LoadGen gen(args.seed + static_cast<uint64_t>(i) * 7919, &ledger, &cpu);
      if (!stack.Start() || !gen.Connect(stack.smtp_port(), stack.pop3_port())) {
        pass->errors += 1;
        pass->first_error = "mail server failed to start";
        return;
      }
      PhaseStats warm = gen.Run(Phase{.seconds = 60, .max_requests = kWarmupRequests});
      pass->errors += warm.errors;
      if (warm.errors != 0 && pass->first_error.empty()) {
        pass->first_error = "warm-up: " + warm.first_error;
      }
      pass->setup_s.push_back(SecondsSince(t0));

      uint64_t lines0 = stack.server().lines_served();
      const auto& gcs = stack.committer().stats();
      uint64_t req0 = gcs.requests.load();
      uint64_t bat0 = gcs.batches.load();
      uint64_t ded0 = gcs.deduped.load();
      uint64_t app0 = stack.appended_bytes();
      if (traced) {
        spans::Reset();
        perennial::stage::Install(&pass->stages);
        spans::Enable(true);
      }
      PhaseStats part = gen.Run(Phase{.seconds = args.seconds / segments, .windows = true});
      if (traced) {
        spans::Enable(false);
        perennial::stage::Install(nullptr);
      }
      pass->measured.Add(part);
      pass->errors += part.errors;
      if (part.errors != 0 && pass->first_error.empty()) {
        pass->first_error = part.first_error;
      }
      pass->lines += stack.server().lines_served() - lines0;
      pass->gc_requests += gcs.requests.load() - req0;
      pass->gc_batches += gcs.batches.load() - bat0;
      pass->gc_deduped += gcs.deduped.load() - ded0;
      pass->appended += stack.appended_bytes() - app0;
    }
    // The clients and the server have stopped; nothing is in flight.
    for (std::string& a : ledger.AuditStore(root)) {
      pass->audit.push_back(std::move(a));
    }
    acked += ledger.acked();
  }
  pass->attempted = pass->measured.delivers + pass->measured.pickups;
  std::printf("  %s store audits (%d): %llu acked transactions, %s\n",
              traced ? "traced" : "untraced", segments, static_cast<unsigned long long>(acked),
              pass->audit.empty() ? "every acked body present exactly once" : "FAILED");
}

// The median across windows of each figure; `n` is the smallest window's
// request count. A burst of interference from outside the benchmark spoils
// one window, not the run's figure.
Window WindowMedians(const PhaseStats& m) {
  auto median = [&](double Window::*field) {
    std::vector<double> values;
    for (const Window& w : m.windows) {
      values.push_back(w.*field);
    }
    return Median(values);
  };
  Window out;
  out.n = SIZE_MAX;
  for (const Window& w : m.windows) {
    out.n = std::min(out.n, w.n);
  }
  out.rate = median(&Window::rate);
  out.p50_us = median(&Window::p50_us);
  out.p90_us = median(&Window::p90_us);
  out.p99_us = median(&Window::p99_us);
  out.deliver_p50_us = median(&Window::deliver_p50_us);
  out.deliver_p99_us = median(&Window::deliver_p99_us);
  out.pickup_p50_us = median(&Window::pickup_p50_us);
  out.pickup_p99_us = median(&Window::pickup_p99_us);
  return out;
}

void AddMailEndToEnd(const MailPass& p, RunResult* out) {
  Window win = WindowMedians(p.measured);
  out->end_to_end = {
      {"throughput", win.rate, "1/s"},
      {"wait_ms", win.p50_us / 1e3, "ms"},
      {"wait_tail_ms", win.p90_us / 1e3, "ms"},
      {"setup_s", Median(p.setup_s), "s"},
      {"peak_rss_mb", PeakRssMb(), "MiB"},
  };
}

void PrintMailPass(const MailPass& p, const char* label) {
  const PhaseStats& m = p.measured;
  double server_cpu_us =
      m.completed == 0 ? 0 : (m.proc_cpu_s - m.gen_cpu_s) * 1e6 / static_cast<double>(m.completed);
  Window win = WindowMedians(m);
  std::printf("  %s window medians over %zu x %.1f s windows (>= %zu samples each): rate=%.1f/s "
              "p50_us=%.0f p90_us=%.0f p99_us=%.0f\n",
              label, m.windows.size(), m.window_width_s, win.n, win.rate, win.p50_us, win.p90_us,
              win.p99_us);
  std::printf("  %s req_per_s=%.1f delivers=%llu pickups=%llu; window medians: deliver_p50_us=%.0f "
              "deliver_p99_us=%.0f pickup_p50_us=%.0f pickup_p99_us=%.0f\n",
              label, static_cast<double>(m.completed) / m.window_s,
              static_cast<unsigned long long>(m.delivers), static_cast<unsigned long long>(m.pickups),
              win.deliver_p50_us, win.deliver_p99_us, win.pickup_p50_us, win.pickup_p99_us);
  std::printf("  %s server_cpu_us_per_req=%.1f loadgen_cpu_us_per_req=%.1f barriers=%llu "
              "errors=%llu\n",
              label, server_cpu_us,
              m.completed == 0 ? 0 : m.gen_cpu_s * 1e6 / static_cast<double>(m.completed),
              static_cast<unsigned long long>(p.gc_batches),
              static_cast<unsigned long long>(p.errors));
}

}  // namespace

RunResult RunMailMixed(const RunArgs& args) {
  RunResult out;
  std::printf("%s: %d clients, closed loop, 1 recipient, %llu-byte bodies, %llu users\n",
              kWorkload, kClients, static_cast<unsigned long long>(kBodyBytes),
              static_cast<unsigned long long>(kUsers));
  OneBusyCpu cpu;
  if (!cpu.error().empty()) {
    out.attempted = 1;
    out.failed = 1;
    out.Fail("cannot confine the workload to one busy CPU: " + cpu.error());
    return out;
  }
  std::printf("  confined to CPU %d, kept busy by a SCHED_IDLE spinner\n", cpu.cpu());
  MailPass pass;
  RunMailPass(args, cpu, false, &pass);
  PrintMailPass(pass, "untraced");
  AddMailEndToEnd(pass, &out);
  out.attempted = std::max<uint64_t>(pass.attempted, 1);
  out.failed = pass.errors;
  if (pass.errors != 0) {
    out.Fail("client errors: " + pass.first_error);
  }
  for (const std::string& a : pass.audit) {
    out.Fail(a);
  }
  if (!args.trace || !out.correct) {
    return out;
  }

  MailPass traced;
  RunMailPass(args, cpu, true, &traced);
  PrintMailPass(traced, "traced");
  if (traced.errors != 0) {
    out.Fail("traced client errors: " + traced.first_error);
  }
  for (const std::string& a : traced.audit) {
    out.Fail("traced " + a);
  }
  std::vector<spans::Span> all = spans::Collect();
  auto by_name = spans::ByName(all);
  const PhaseStats& m = traced.measured;
  double reqs = static_cast<double>(by_name["client.deliver"].count + by_name["client.pickup"].count);
  reqs = std::max(reqs, 1.0);
  auto per_req_us = [&](uint64_t ns) { return static_cast<double>(ns) / 1e3 / reqs; };
  uint64_t mail_calls = 0;
  uint64_t fs_ops = 0;
  uint64_t fs_self_ns = 0;
  for (const auto& [name, st] : by_name) {
    if (name.rfind("mailboat.", 0) == 0) {
      mail_calls += st.count;
    }
    if (name.rfind("goosefs.", 0) == 0) {
      fs_ops += st.count;
      fs_self_ns += st.self_ns;
    }
  }
  const auto& stages = traced.stages;
  auto stage_ns = [&](int s) { return stages.ns[s].load(); };
  const PhaseStats& u = pass.measured;
  double u_reqs = std::max<double>(static_cast<double>(u.completed), 1.0);
  Window u_win = WindowMedians(u);
  out.per_layer = {
      {"loadgen.cpu_us_per_req", u.gen_cpu_s * 1e6 / u_reqs, "us"},
      {"netserv.server_cpu_us_per_req", (u.proc_cpu_s - u.gen_cpu_s) * 1e6 / u_reqs, "us"},
      {"netserv.read_us_per_req", per_req_us(stage_ns(perennial::stage::kRead)), "us"},
      {"netserv.write_us_per_req", per_req_us(stage_ns(perennial::stage::kWrite)), "us"},
      {"netserv.lines_per_req", static_cast<double>(traced.lines) / reqs, "count"},
      {"smtp.parse_us_per_req", per_req_us(stage_ns(perennial::stage::kParse)), "us"},
      {"smtp.execute_us_per_req", per_req_us(stage_ns(perennial::stage::kExecute)), "us"},
      {"mailboat.deliver_us_p50", Percentile(by_name["mailboat.deliver"].dur_us, 50), "us"},
      {"mailboat.deliver_us_p99", Percentile(by_name["mailboat.deliver"].dur_us, 99), "us"},
      {"mailboat.pickup_us_p50", Percentile(by_name["mailboat.pickup"].dur_us, 50), "us"},
      {"mailboat.calls_per_req", static_cast<double>(mail_calls) / reqs, "count"},
      {"goosefs.ops_per_req", static_cast<double>(fs_ops) / reqs, "count"},
      {"goosefs.self_us_per_req", per_req_us(fs_self_ns), "us"},
      {"goosefs.write_bytes_per_body_byte",
       m.delivers == 0
           ? 0
           : static_cast<double>(traced.appended) / static_cast<double>(m.delivers * kBodyBytes),
       "ratio"},
      {"netserv.commit_wait_us_p50", Percentile(by_name["netserv.commit_wait"].dur_us, 50), "us"},
      {"netserv.commit_wait_us_p99", Percentile(by_name["netserv.commit_wait"].dur_us, 99), "us"},
      {"netserv.barriers_per_delivery",
       m.delivers == 0 ? 0 : static_cast<double>(traced.gc_batches) / static_cast<double>(m.delivers),
       "count"},
      {"netserv.batch_size_mean",
       traced.gc_batches == 0
           ? 0
           : static_cast<double>(traced.gc_requests) / static_cast<double>(traced.gc_batches),
       "count"},
      {"netserv.dedup_frac",
       traced.gc_requests == 0
           ? 0
           : static_cast<double>(traced.gc_deduped) / static_cast<double>(traced.gc_requests),
       "ratio"},
      {"mail.deliver_p50_us", u_win.deliver_p50_us, "us"},
      {"mail.deliver_p99_us", u_win.deliver_p99_us, "us"},
      {"mail.pickup_p50_us", u_win.pickup_p50_us, "us"},
      {"mail.pickup_p99_us", u_win.pickup_p99_us, "us"},
  };
  RunResult traced_e2e;
  AddMailEndToEnd(traced, &traced_e2e);
  AddTraceOverhead(out, traced_e2e, &out);
  std::string trace_path = args.work_dir + "/trace-" + kWorkload + ".json";
  spans::WriteChromeTrace(trace_path, all, spans::kTraceFileSpans);
  std::printf("  trace: %zu spans (first %zu written to %s)\n", all.size(), std::min(all.size(), spans::kTraceFileSpans), trace_path.c_str());
  return out;
}

}  // namespace perfbench
