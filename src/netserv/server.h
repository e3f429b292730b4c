// The production mail server: a multi-threaded epoll event loop serving
// the SMTP/POP3 line protocols over real TCP sockets, backed by any
// mailboat::MailApi (in practice Mailboat over PosixFilesys, with a
// GroupCommitter installed on the filesystem's fsync seam).
//
// Thread architecture (DESIGN.md §14):
//   * N event-loop threads: each owns an epoll set and the read/write
//     buffers of its connections. Both listening sockets sit in every set
//     (level-triggered, EPOLLEXCLUSIVE, so a new connection wakes one idle
//     loop); the loop that accepts a connection registers (edge-triggered)
//     and greets it, and serves its bytes until it closes. Loops never
//     block on the mail store — they only move bytes and carve out
//     complete lines.
//   * M executor threads: run the per-connection sessions (smtp::Session
//     over MailApi) one line at a time via proc::RunSync. Executors are the only threads that touch the store,
//     so they are the only threads that block (on locks and on the group
//     commit barrier). Idle executors wait on a LIFO stack: new work goes
//     to the most recently idle one, so only as many executors run (and
//     keep warm caches and malloc arenas) as the load needs; M is a cap.
//
// Sizing rule: a POP3 session holds its user's pickup lock from PASS to
// QUIT, and a blocked Lock() pins an executor. Configure at least as many
// executors as concurrently-locked POP3 sessions you expect (the harnesses
// use executors = clients + headroom) or lock convoys can starve the pool.
//
// The protocol layer is unverified, exactly as in the paper (§8.2): every
// crash-safety guarantee lives in Mailboat and the filesystem below it.
#ifndef PERENNIAL_SRC_NETSERV_SERVER_H_
#define PERENNIAL_SRC_NETSERV_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/mailboat/mail_api.h"
#include "src/netserv/line_buffer.h"
#include "src/netserv/trace_event.h"
#include "src/smtp/session.h"

namespace perennial::netserv {

class EventLoop;

class MailNetServer {
 public:
  struct Options {
    uint16_t smtp_port = 0;  // 0 = ephemeral; see smtp_port() after Start
    uint16_t pop3_port = 0;
    uint64_t num_loops = 2;
    uint64_t num_executors = 16;
    // A line longer than this (no terminator in sight) is a protocol abuse:
    // the connection is told off and closed.
    uint64_t max_line_bytes = 64 * 1024;
    // Hard cap on the per-connection receive buffer (must exceed
    // max_line_bytes so an oversized line is detectable). A peer that
    // pipelines beyond the cap is flow-controlled (reads pause until the
    // executor drains), not disconnected — and memory stays bounded where
    // the old std::string inbuf grew without limit.
    uint64_t input_buffer_bytes = 64 * 1024 + 8 * 1024;
    // Reap connections with no peer activity for this long (0 = never).
    // Checked on the event loop's ~200ms epoll tick: a reaped connection
    // gets a "421"/"-ERR idle timeout" farewell and is closed through the
    // executor EOF path, so a POP3 session holding its user's pickup lock
    // releases it (Abort) instead of pinning the mailbox forever.
    uint64_t idle_timeout_ms = 0;
    // Accept at most this many live connections (0 = unlimited). Beyond
    // the cap the accepting loop answers "421 too busy" / "-ERR busy" and closes
    // immediately — bounded memory and executor queue under connection
    // floods, and an honest signal clients can back off on.
    uint64_t max_conns = 0;
    TraceLog* trace = nullptr;  // optional profiling; not owned
  };

  MailNetServer(mailboat::MailApi* mail, Options options);
  ~MailNetServer();

  MailNetServer(const MailNetServer&) = delete;
  MailNetServer& operator=(const MailNetServer&) = delete;

  // Binds, listens, and spawns the thread fleet. False (with a message on
  // stderr) if the ports can't be bound. May be called again after Stop:
  // the restarted server serves (and drains) afresh, on newly bound ports
  // when Options asks for ephemeral ones. accepted(), lines_served() and
  // the shed/reap counts keep accumulating across restarts.
  bool Start();
  // Stops accepting, drains executors, closes every connection, joins all
  // threads. Safe to call twice.
  void Stop();

  // Graceful shutdown, phase one (SIGTERM semantics): stop admitting new
  // connections (they are shed with "421 server shutting down"), let
  // in-flight commands finish and their acks flush, reap idle connections,
  // and wait up to `timeout_ms` for the connection count to reach zero.
  // Returns true if fully drained. Call Stop() afterwards either way.
  bool Drain(uint64_t timeout_ms);

  uint16_t smtp_port() const { return smtp_port_; }
  uint16_t pop3_port() const { return pop3_port_; }

  uint64_t accepted() const { return accepted_.load(std::memory_order_relaxed); }
  uint64_t lines_served() const { return lines_served_.load(std::memory_order_relaxed); }
  // Connections refused at the door (max_conns cap or drain).
  uint64_t shed_connects() const { return shed_connects_.load(std::memory_order_relaxed); }
  // Connections reaped by the idle deadline.
  uint64_t idle_reaped() const { return idle_reaped_.load(std::memory_order_relaxed); }
  // Executors that have served at least one connection since Start.
  uint64_t executors_used() const { return executors_used_.load(std::memory_order_relaxed); }
  uint64_t live_conns() const {
    int64_t n = live_conns_.load(std::memory_order_relaxed);
    return n > 0 ? static_cast<uint64_t>(n) : 0;
  }

 private:
  friend class EventLoop;

  struct Conn {
    ~Conn();  // closes fd if no retire path got to it (shutdown stragglers)

    int fd = -1;
    EventLoop* loop = nullptr;

    std::mutex mu;  // guards everything below
    // Zero-copy receive path: recv lands in `input` and complete lines are
    // carved as offset ranges; the executor reads each line as a view.
    // Memory-moving calls are loop-thread-only (see line_buffer.h).
    LineBuffer input;
    // The loop stopped reading because `input` was full; the executor
    // nudges the loop to resume once it has drained the queued lines.
    bool read_paused = false;
    std::string outbuf;
    size_t outoff = 0;
    bool executing = false;  // an executor owns this conn's lines right now
    bool peer_eof = false;
    bool closing = false;  // flush outbuf, then retire
    bool retired = false;  // fd closed, conn off the epoll set
    // Last time bytes arrived from the peer (steady-clock ms); the idle
    // sweep compares it against Options::idle_timeout_ms.
    uint64_t last_active_ms = 0;

    std::unique_ptr<smtp::Session> session;
  };

  // One per executor thread; outlives the threads so a waker may notify
  // after releasing work_mu_.
  struct Executor {
    std::condition_variable cv;
    bool woken = false;  // guarded by work_mu_
    bool used = false;   // touched only by the executor's own thread
  };

  void ExecutorMain(Executor* self, uint64_t executor_id);
  // Runs session lines until the conn's queue drains; called by executors.
  void ServeConn(const std::shared_ptr<Conn>& conn, uint64_t executor_id);
  void EnqueueWork(std::shared_ptr<Conn> conn);  // executing flag already set

  // Appends `resp` + CRLF to conn->outbuf and flushes what it can.
  // mu must be held by the caller.
  void QueueResponseLocked(const std::shared_ptr<Conn>& conn, const std::string& resp);
  // Drains outbuf to the socket (partial writes resume on the EPOLLOUT
  // edge); separated from QueueResponseLocked so executors can cork
  // replies to a pipelined command batch and write them as one segment.
  void FlushLocked(const std::shared_ptr<Conn>& conn);

  mailboat::MailApi* mail_;
  Options options_;

  int smtp_listen_fd_ = -1;
  int pop3_listen_fd_ = -1;
  uint16_t smtp_port_ = 0;
  uint16_t pop3_port_ = 0;

  std::atomic<bool> stop_{false};
  bool started_ = false;

  std::vector<std::unique_ptr<EventLoop>> loops_;
  std::unique_ptr<Executor[]> executor_slots_;
  std::vector<std::thread> executors_;

  std::mutex work_mu_;
  std::deque<std::shared_ptr<Conn>> work_;
  std::vector<Executor*> idle_;  // waiting executors; back = most recently idle
  // Executors popped off idle_ that have not yet re-taken work_mu_. Each
  // will take a queued item if one is left, so new work wakes another
  // executor only while the queue outgrows them.
  size_t woken_ = 0;

  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> lines_served_{0};
  std::atomic<uint64_t> shed_connects_{0};
  std::atomic<uint64_t> idle_reaped_{0};
  std::atomic<uint64_t> executors_used_{0};
  // Signed so a transient retire-before-accept race can't wrap to 2^64.
  std::atomic<int64_t> live_conns_{0};
  std::atomic<bool> draining_{false};
};

}  // namespace perennial::netserv

#endif  // PERENNIAL_SRC_NETSERV_SERVER_H_
