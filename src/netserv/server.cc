#include "src/netserv/server.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <unordered_map>

#include "src/base/panic.h"
#include "src/base/stage_timer.h"
#include "src/netserv/net.h"
#include "src/proc/task.h"

namespace perennial::netserv {

namespace {

uint64_t NowMs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::milliseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

}  // namespace

// One event-loop thread: owns an epoll set, the byte buffers of its
// connections, and the only right to close their fds. It accepts its own
// connections from the shared listening sockets. Cross-thread inputs
// (retire and resume requests from executors) are queued under
// pending_mu_ and the loop is nudged via an eventfd.
class EventLoop {
 public:
  using Conn = MailNetServer::Conn;

  explicit EventLoop(MailNetServer* server) : server_(server) {}

  ~EventLoop() {
    if (epfd_ >= 0) {
      ::close(epfd_);
    }
    if (evfd_ >= 0) {
      ::close(evfd_);
    }
  }

  // Every loop watches both listening sockets, level-triggered so the
  // connections a bounded accept batch leaves behind are reported again,
  // and EPOLLEXCLUSIVE so a new connection wakes one blocked loop rather
  // than all of them.
  bool Init() {
    epfd_ = ::epoll_create1(EPOLL_CLOEXEC);
    evfd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    return epfd_ >= 0 && evfd_ >= 0 && Watch(evfd_, EPOLLIN) &&
           Watch(server_->smtp_listen_fd_, EPOLLIN | EPOLLEXCLUSIVE) &&
           Watch(server_->pop3_listen_fd_, EPOLLIN | EPOLLEXCLUSIVE);
  }

  void StartThread() {
    thread_ = std::thread([this] { Run(); });
  }

  void Join() {
    if (thread_.joinable()) {
      thread_.join();
    }
  }

  // Executors call this when a connection should be closed (quit handled,
  // peer gone, output drained after `closing`). Idempotent.
  void RequestRetire(std::shared_ptr<Conn> conn) {
    {
      std::scoped_lock lock(pending_mu_);
      pending_retire_.push_back(std::move(conn));
    }
    Nudge();
  }

  // Executors call this after draining a connection whose reads were
  // paused on a full input buffer: the loop compacts and resumes reading.
  void RequestResume(std::shared_ptr<Conn> conn) {
    {
      std::scoped_lock lock(pending_mu_);
      pending_resume_.push_back(std::move(conn));
    }
    Nudge();
  }

  void RequestStop() {
    stop_.store(true, std::memory_order_relaxed);
    Nudge();
  }

  // Drain mode: every connection with no queued work is reaped on the next
  // sweep, regardless of the idle deadline.
  void RequestDrain() {
    draining_.store(true, std::memory_order_relaxed);
    Nudge();
  }

 private:
  // Deduplicated wakeup: only the first nudge since the loop last started
  // a ProcessPending pass pays the eventfd write. Safe against lost
  // wakeups because Run() clears the flag *before* swapping the pending
  // queues — any producer whose exchange() read true is ordered after a
  // producer whose eventfd write is still due to wake the loop, and the
  // pass that wakeup triggers re-reads the queues after its own clear.
  void Nudge() {
    if (nudge_pending_.exchange(true)) {
      return;  // a wakeup is already in flight
    }
    uint64_t one = 1;
    ssize_t n;
    do {
      n = ::write(evfd_, &one, sizeof(one));
    } while (n < 0 && errno == EINTR);
  }

  void Run() {
    constexpr int kMaxEvents = 64;
    struct epoll_event events[kMaxEvents];
    while (!stop_.load(std::memory_order_relaxed)) {
      int n;
      do {
        n = ::epoll_wait(epfd_, events, kMaxEvents, /*timeout_ms=*/200);
      } while (n < 0 && errno == EINTR);
      nudge_pending_.store(false);  // before the queue swap — see Nudge()
      ProcessPending();
      for (int i = 0; i < n; ++i) {
        int fd = events[i].data.fd;
        if (fd == evfd_) {
          uint64_t drain;
          while (::read(evfd_, &drain, sizeof(drain)) > 0) {
          }
          continue;
        }
        if (fd == server_->smtp_listen_fd_) {
          AcceptBatch(fd, smtp::Protocol::kSmtp);
          continue;
        }
        if (fd == server_->pop3_listen_fd_) {
          AcceptBatch(fd, smtp::Protocol::kPop3);
          continue;
        }
        auto it = conns_.find(fd);
        if (it == conns_.end()) {
          continue;  // retired earlier in this batch
        }
        std::shared_ptr<Conn> conn = it->second;
        if (events[i].events & EPOLLOUT) {
          std::scoped_lock lock(conn->mu);
          if (!conn->retired) {
            server_->QueueResponseLocked(conn, "");  // flush-only
          }
        }
        if (events[i].events & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR)) {
          HandleReadable(conn);
        }
      }
      nudge_pending_.store(false);
      ProcessPending();
      uint64_t now = NowMs();
      if (now - last_sweep_ms_ >= 100) {
        last_sweep_ms_ = now;
        SweepIdle(now);
      }
    }
    // Shutdown: close every remaining connection. Sessions die with their
    // fds (stranded POP3 locks are torn down with the Mailboat instance).
    for (auto& [fd, conn] : conns_) {
      std::scoped_lock lock(conn->mu);
      if (!conn->retired) {
        conn->retired = true;
        ::close(conn->fd);
        conn->fd = -1;
        server_->live_conns_.fetch_sub(1, std::memory_order_relaxed);
      }
    }
    conns_.clear();
  }

  // Rides the ~200ms epoll tick: reap connections whose peers have gone
  // quiet past the idle deadline (or, in drain mode, every connection with
  // nothing in flight). Reaped connections get a farewell, then take the
  // executor EOF path so POP3 pickup locks are released via Abort — the
  // loop thread itself never touches the mail store.
  void SweepIdle(uint64_t now) {
    bool drain = draining_.load(std::memory_order_relaxed);
    uint64_t timeout = server_->options_.idle_timeout_ms;
    if (!drain && timeout == 0) {
      return;
    }
    for (auto& [fd, conn] : conns_) {
      std::scoped_lock lock(conn->mu);
      if (conn->retired || conn->closing || conn->executing || conn->peer_eof ||
          conn->input.has_line()) {
        continue;  // work in flight — it finishes and its acks flush first
      }
      if (!drain && now - conn->last_active_ms < timeout) {
        continue;
      }
      if (!drain) {
        server_->idle_reaped_.fetch_add(1, std::memory_order_relaxed);
      }
      const smtp::Dialect& dialect = conn->session->dialect();
      server_->QueueResponseLocked(conn, drain ? dialect.shutting_down : dialect.idle_timeout);
      // Hand the connection to an executor as if the peer hung up: the
      // executor aborts the session (releasing any held lock) and retires.
      conn->peer_eof = true;
      conn->executing = true;
      server_->EnqueueWork(conn);
    }
  }

  void ProcessPending() {
    std::vector<std::shared_ptr<Conn>> retires;
    std::vector<std::shared_ptr<Conn>> resumes;
    {
      std::scoped_lock lock(pending_mu_);
      retires.swap(pending_retire_);
      resumes.swap(pending_resume_);
    }
    for (auto& conn : retires) {
      RetireConn(conn);
    }
    for (auto& conn : resumes) {
      // The buffer is drained now, so PrepareWrite can compact and the
      // paused read picks up where it left off.
      HandleReadable(conn);
    }
  }

  bool Watch(int fd, uint32_t events) {
    struct epoll_event ev;
    std::memset(&ev, 0, sizeof(ev));
    ev.events = events;
    ev.data.fd = fd;
    return ::epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev) == 0;
  }

  // Accepts at most a bounded batch per wake, so one loop cannot starve
  // its own connections under a connect storm; the level-triggered
  // listener reports the rest on the next epoll_wait, here or on another
  // loop. Overload shedding and drain refuse at the door with the
  // protocol's retriable farewell (not a silent RST) instead of queueing
  // work the executors can't keep up with.
  void AcceptBatch(int listen_fd, smtp::Protocol protocol) {
    constexpr int kAcceptBatch = 16;
    int taken = 0;
    for (; taken < kAcceptBatch; ++taken) {
      int cfd = Accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (cfd < 0) {
        break;  // EAGAIN (drained, or another loop won the race) or a transient error
      }
      std::unique_ptr<smtp::Session> session = smtp::NewSession(protocol, server_->mail_);
      bool drain = server_->draining_.load(std::memory_order_relaxed);
      if (drain || (server_->options_.max_conns > 0 &&
                    server_->live_conns_.load(std::memory_order_relaxed) >=
                        static_cast<int64_t>(server_->options_.max_conns))) {
        const smtp::Dialect& dialect = session->dialect();
        std::string msg = std::string(drain ? dialect.shutting_down : dialect.busy) + "\r\n";
        // Counted before the farewell, so a peer that saw it also sees the
        // count.
        server_->shed_connects_.fetch_add(1, std::memory_order_relaxed);
        (void)SendSome(cfd, msg.data(), msg.size());
        ::close(cfd);
        continue;
      }
      server_->live_conns_.fetch_add(1, std::memory_order_relaxed);
      server_->accepted_.fetch_add(1, std::memory_order_relaxed);
      SetTcpNoDelay(cfd);
      auto conn = std::make_shared<Conn>();
      conn->fd = cfd;
      conn->loop = this;
      conn->session = std::move(session);
      if (!input_pool_.empty()) {
        conn->input.AdoptStorage(std::move(input_pool_.back()));
        input_pool_.pop_back();
      }
      RegisterConn(conn);
    }
    if (taken > 0) {
      // An exclusive wake-up goes to the first blocked loop in the
      // listener's wait queue. Re-adding moves this loop to the back, so
      // idle loops take new connections in turn, spreading them as
      // round-robin would, instead of the first loop taking them all.
      ::epoll_ctl(epfd_, EPOLL_CTL_DEL, listen_fd, nullptr);
      Watch(listen_fd, EPOLLIN | EPOLLEXCLUSIVE);
    }
  }

  void RegisterConn(const std::shared_ptr<Conn>& conn) {
    if (!Watch(conn->fd, EPOLLIN | EPOLLOUT | EPOLLRDHUP | EPOLLET)) {
      server_->live_conns_.fetch_sub(1, std::memory_order_relaxed);
      return;  // ~Conn closes the fd
    }
    conns_[conn->fd] = conn;
    {
      std::scoped_lock lock(conn->mu);
      conn->last_active_ms = NowMs();
      server_->QueueResponseLocked(conn, conn->session->dialect().greeting);
    }
    // Edge-triggered: bytes that arrived before the ADD only produce an
    // edge on some kernels; read eagerly to be safe.
    HandleReadable(conn);
  }

  void RetireConn(const std::shared_ptr<Conn>& conn) {
    std::scoped_lock lock(conn->mu);
    RetireLockedFromLoop(conn);
  }

  // Zero-copy read path: recv lands directly in the connection's
  // LineBuffer tail and complete lines are carved as offset ranges — no
  // per-read stack-buffer copy, no per-line std::string.
  void HandleReadable(const std::shared_ptr<Conn>& conn) {
    stage::StageScope read_stage(stage::kRead);
    bool oversized = false;
    for (;;) {
      char* ptr = nullptr;
      size_t room = 0;
      {
        std::scoped_lock lock(conn->mu);
        if (conn->retired || conn->closing) {
          return;
        }
        room = conn->input.PrepareWrite(4096, server_->options_.input_buffer_bytes);
        if (room == 0) {
          // Full and immovable (lines outstanding): pause reading; the
          // executor nudges a resume once it drains the queue.
          conn->read_paused = true;
          break;
        }
        ptr = conn->input.write_ptr();
      }
      // recv outside mu: only this loop thread writes bytes or moves the
      // buffer's memory, so `ptr` stays valid (see line_buffer.h).
      ssize_t n = RecvSome(conn->fd, ptr, room);
      if (n > 0) {
        std::scoped_lock lock(conn->mu);
        conn->last_active_ms = NowMs();
        conn->input.CommitWrite(static_cast<size_t>(n));
        {
          stage::StageScope parse_stage(stage::kParse);
          conn->input.CarveLines(server_->options_.max_line_bytes, &oversized);
        }
        if (oversized || static_cast<size_t>(n) < room) {
          break;  // abuse, or the socket is drained for this edge
        }
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        break;
      }
      // 0 = orderly EOF; other errors (ECONNRESET...) are the same thing
      // from the session's point of view: the peer is gone.
      std::scoped_lock lock(conn->mu);
      conn->peer_eof = true;
      break;
    }
    DispatchLines(conn, oversized);
  }

  // Hands the connection to an executor if it has work and isn't already
  // being served; oversized lines are answered and hung up on here.
  void DispatchLines(const std::shared_ptr<Conn>& conn, bool oversized) {
    std::scoped_lock lock(conn->mu);
    if (conn->retired) {
      return;
    }
    if (oversized) {
      // Protocol abuse: answer once and hang up without feeding the line
      // to the session (it never materializes as a line at all). Clear()
      // drops offsets only — a view an executor still holds stays backed
      // (closing stops all further reads into the buffer).
      conn->input.Clear();
      server_->QueueResponseLocked(conn, conn->session->dialect().line_too_long);
      conn->closing = true;
      if (conn->outbuf.size() == conn->outoff) {
        RetireLockedFromLoop(conn);
      }
      return;
    }
    if (!conn->executing && (conn->input.has_line() || conn->peer_eof)) {
      conn->executing = true;
      server_->EnqueueWork(conn);
    }
  }

  // Loop-thread retire with conn->mu already held.
  void RetireLockedFromLoop(const std::shared_ptr<Conn>& conn) {
    if (conn->retired) {
      return;
    }
    conn->retired = true;
    conns_.erase(conn->fd);
    ::epoll_ctl(epfd_, EPOLL_CTL_DEL, conn->fd, nullptr);
    ::close(conn->fd);
    conn->fd = -1;
    server_->live_conns_.fetch_sub(1, std::memory_order_relaxed);
    if (!conn->executing) {
      // No executor can still hold a view into the buffer: recycle it.
      // (With `executing` set the storage just dies with the Conn.)
      std::vector<char> storage = conn->input.ReleaseStorage();
      if (!storage.empty() && input_pool_.size() < kInputPoolCap) {
        input_pool_.push_back(std::move(storage));
      }
    }
  }

  MailNetServer* server_;
  int epfd_ = -1;
  int evfd_ = -1;
  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> draining_{false};
  uint64_t last_sweep_ms_ = 0;  // loop-thread-only

  std::mutex pending_mu_;
  std::vector<std::shared_ptr<Conn>> pending_retire_;
  std::vector<std::shared_ptr<Conn>> pending_resume_;
  std::atomic<bool> nudge_pending_{false};

  // Loop-thread-only. A connection is accepted and retired on the same
  // loop, so retired connections donate their receive-buffer storage here
  // and new ones adopt it: steady-state accepts allocate no buffer.
  std::unordered_map<int, std::shared_ptr<Conn>> conns_;
  static constexpr size_t kInputPoolCap = 64;
  std::vector<std::vector<char>> input_pool_;
};

MailNetServer::Conn::~Conn() {
  if (fd >= 0) {
    ::close(fd);
  }
}

MailNetServer::MailNetServer(mailboat::MailApi* mail, Options options)
    : mail_(mail), options_(options) {
  PCC_ENSURE(options_.num_loops >= 1, "MailNetServer: need at least one event loop");
  PCC_ENSURE(options_.num_executors >= 1, "MailNetServer: need at least one executor");
  PCC_ENSURE(options_.input_buffer_bytes > options_.max_line_bytes,
             "MailNetServer: input buffer must exceed max_line_bytes");
}

MailNetServer::~MailNetServer() { Stop(); }

bool MailNetServer::Start() {
  PCC_ENSURE(!started_, "MailNetServer: started twice");
  // A restart begins from a clean slate: Stop leaves stop_ (and any drain)
  // set, and may leave connections of the old loops queued. Stop has
  // joined every thread, so idle_ is empty and woken_ zero.
  stop_.store(false, std::memory_order_relaxed);
  draining_.store(false, std::memory_order_relaxed);
  work_.clear();
  smtp_listen_fd_ = ListenTcp(options_.smtp_port, &smtp_port_);
  pop3_listen_fd_ = ListenTcp(options_.pop3_port, &pop3_port_);
  if (smtp_listen_fd_ < 0 || pop3_listen_fd_ < 0) {
    std::fprintf(stderr, "MailNetServer: bind/listen failed: %s\n", std::strerror(errno));
    if (smtp_listen_fd_ >= 0) {
      ::close(smtp_listen_fd_);
    }
    if (pop3_listen_fd_ >= 0) {
      ::close(pop3_listen_fd_);
    }
    smtp_listen_fd_ = pop3_listen_fd_ = -1;
    return false;
  }
  SetNonblocking(smtp_listen_fd_);
  SetNonblocking(pop3_listen_fd_);
  for (uint64_t i = 0; i < options_.num_loops; ++i) {
    auto loop = std::make_unique<EventLoop>(this);
    if (!loop->Init()) {
      std::fprintf(stderr, "MailNetServer: epoll init failed: %s\n", std::strerror(errno));
      return false;
    }
    loops_.push_back(std::move(loop));
  }
  for (auto& loop : loops_) {
    loop->StartThread();
  }
  executor_slots_ = std::make_unique<Executor[]>(options_.num_executors);
  executors_used_.store(0, std::memory_order_relaxed);
  for (uint64_t i = 0; i < options_.num_executors; ++i) {
    executors_.emplace_back([this, i] { ExecutorMain(&executor_slots_[i], i); });
  }
  started_ = true;
  return true;
}

void MailNetServer::Stop() {
  if (!started_) {
    return;
  }
  stop_.store(true, std::memory_order_relaxed);
  {
    // Under work_mu_, so an executor between its stop check and its wait
    // cannot miss the wake-up: it is either on the stack already or will
    // see stop_ when it next takes the lock.
    std::scoped_lock lock(work_mu_);
    for (Executor* idle : idle_) {
      idle->woken = true;
      ++woken_;
      idle->cv.notify_one();
    }
    idle_.clear();
  }
  for (auto& t : executors_) {
    t.join();
  }
  executors_.clear();
  for (auto& loop : loops_) {
    loop->RequestStop();
  }
  for (auto& loop : loops_) {
    loop->Join();
  }
  loops_.clear();
  ::close(smtp_listen_fd_);
  ::close(pop3_listen_fd_);
  smtp_listen_fd_ = pop3_listen_fd_ = -1;
  started_ = false;
}

bool MailNetServer::Drain(uint64_t timeout_ms) {
  if (!started_) {
    return true;
  }
  draining_.store(true, std::memory_order_relaxed);
  for (auto& loop : loops_) {
    loop->RequestDrain();
  }
  uint64_t deadline = NowMs() + timeout_ms;
  while (live_conns_.load(std::memory_order_relaxed) > 0 && NowMs() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return live_conns_.load(std::memory_order_relaxed) <= 0;
}

void MailNetServer::EnqueueWork(std::shared_ptr<Conn> conn) {
  Executor* wake = nullptr;
  {
    std::scoped_lock lock(work_mu_);
    work_.push_back(std::move(conn));
    // A running executor finishing its line may take the item before a
    // woken one is scheduled; waking one per item regardless left the
    // rest to wake for nothing and dug ever deeper into the idle stack.
    if (!idle_.empty() && woken_ < work_.size()) {
      wake = idle_.back();
      idle_.pop_back();
      wake->woken = true;
      ++woken_;
    }
  }
  if (wake != nullptr) {
    wake->cv.notify_one();
  }
}

void MailNetServer::ExecutorMain(Executor* self, uint64_t executor_id) {
  for (;;) {
    std::shared_ptr<Conn> conn;
    {
      std::unique_lock<std::mutex> lock(work_mu_);
      // Another executor may take the work this one was woken for; then it
      // goes back on top of the idle stack.
      while (!stop_.load(std::memory_order_relaxed) && work_.empty()) {
        self->woken = false;
        idle_.push_back(self);
        self->cv.wait(lock, [&] { return self->woken; });
        --woken_;
      }
      if (stop_.load(std::memory_order_relaxed)) {
        return;  // queued connections die with the server
      }
      conn = std::move(work_.front());
      work_.pop_front();
    }
    if (!self->used) {
      self->used = true;
      executors_used_.fetch_add(1, std::memory_order_relaxed);
    }
    ServeConn(conn, executor_id);
  }
}

void MailNetServer::ServeConn(const std::shared_ptr<Conn>& conn, uint64_t executor_id) {
  for (;;) {
    std::string_view line;
    bool have_line = false;
    bool eof = false;
    bool resume = false;
    {
      std::scoped_lock lock(conn->mu);
      if (conn->retired || conn->closing) {
        return;  // executing stays set; the conn is on its way out
      }
      // NextLine consumes the previous checked-out line and hands back a
      // view into the receive buffer — stable outside mu because the loop
      // only appends at the tail while a line is outstanding.
      have_line = conn->input.NextLine(&line);
      if (!have_line) {
        if (conn->peer_eof) {
          eof = true;
        } else {
          // Done for now. Corked replies (batched while more input was
          // pending) go out before we yield the connection. The executing
          // flag is cleared in the same critical section as the emptiness
          // check, so a line arriving concurrently either lands before (we
          // saw it) or after (the loop re-dispatches).
          {
            stage::StageScope write_stage(stage::kWrite);
            FlushLocked(conn);
          }
          conn->executing = false;
          if (conn->read_paused) {
            conn->read_paused = false;
            resume = true;
          }
        }
      }
    }
    if (!have_line && !eof) {
      if (resume) {
        conn->loop->RequestResume(conn);
      }
      return;
    }
    if (eof) {
      // Mid-session disconnect: a POP3 session may hold its user's pickup
      // lock — release it (deleting nothing), per the Abort contract.
      proc::RunSyncVoid(conn->session->Abort());
      {
        std::scoped_lock lock(conn->mu);
        conn->closing = true;
        conn->executing = false;  // we will never touch this conn again
      }
      conn->loop->RequestRetire(conn);
      return;
    }
    std::string resp;
    {
      TraceScope trace(options_.trace, conn->session->dialect().line_event, "serve", executor_id);
      stage::StageScope exec_stage(stage::kExecute);
      resp = proc::RunSync(conn->session->HandleLine(line));
    }
    lines_served_.fetch_add(1, std::memory_order_relaxed);
    bool quit = conn->session->quit();
    bool retire_now = false;
    {
      std::scoped_lock lock(conn->mu);
      conn->input.FinishLine();  // the view is dead; the loop may compact
      if (conn->retired) {
        return;
      }
      if (!resp.empty()) {
        conn->outbuf += resp;
        conn->outbuf += "\r\n";
      }
      // Cork: while more pipelined commands are already buffered, keep
      // accumulating replies and write them as one segment at the drain
      // point (or once the cork grows past a page) — one send() per
      // batch instead of one per line.
      if (quit || !conn->input.has_line() || conn->outbuf.size() - conn->outoff >= 4096) {
        stage::StageScope write_stage(stage::kWrite);
        FlushLocked(conn);
      }
      if (quit) {
        conn->closing = true;
        conn->executing = false;  // we will never touch this conn again
        retire_now = conn->outbuf.size() == conn->outoff;
      }
    }
    if (quit) {
      if (retire_now) {
        conn->loop->RequestRetire(conn);
      }
      // else: the loop retires it once EPOLLOUT drains the farewell.
      return;
    }
  }
}

void MailNetServer::QueueResponseLocked(const std::shared_ptr<Conn>& conn,
                                        const std::string& resp) {
  if (!resp.empty()) {
    conn->outbuf += resp;
    conn->outbuf += "\r\n";
  }
  FlushLocked(conn);
}

void MailNetServer::FlushLocked(const std::shared_ptr<Conn>& conn) {
  if (conn->retired || conn->fd < 0) {
    return;
  }
  while (conn->outoff < conn->outbuf.size()) {
    ssize_t n =
        SendSome(conn->fd, conn->outbuf.data() + conn->outoff, conn->outbuf.size() - conn->outoff);
    if (n > 0) {
      conn->outoff += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return;  // the EPOLLOUT edge resumes the flush
    }
    // Peer gone mid-write (EPIPE/ECONNRESET): nothing left to say.
    conn->peer_eof = true;
    conn->closing = true;
    break;
  }
  if (conn->outoff == conn->outbuf.size()) {
    conn->outbuf.clear();
    conn->outoff = 0;
    if (conn->closing) {
      conn->loop->RequestRetire(conn);
    }
  }
}

}  // namespace perennial::netserv
