// Tier-1 loopback tests for the production mail server (src/netserv):
// real sockets against MailNetServer, the GroupCommitter batching/dedup
// contract, EINTR injection through the socket syscall seam, and the
// loadgen driving a small in-process run.
#include <fcntl.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/netserv/group_commit.h"
#include "src/netserv/harness.h"
#include "src/netserv/loadgen.h"
#include "src/netserv/net.h"
#include "src/netserv/trace_event.h"

namespace perennial::netserv {
namespace {

std::string TestRoot(const char* name) {
  std::string root = "/tmp/pcc-netserv-test-" + std::string(name) + "-" +
                     std::to_string(::getpid());
  std::string cmd = "rm -rf " + root;
  [[maybe_unused]] int rc = std::system(cmd.c_str());
  return root;
}

InprocMailServer::Config SmallConfig(const std::string& root) {
  InprocMailServer::Config config;
  config.root = root;
  config.users = 4;
  config.loops = 2;
  config.executors = 8;
  config.gc_window_us = 300;
  return config;
}

// Reads lines until one arrives; fails the test on EOF.
std::string MustReadLine(BlockingLineConn& conn) {
  std::string line;
  EXPECT_TRUE(conn.ReadLine(&line)) << "connection closed unexpectedly";
  return line;
}

void ExpectPrefix(BlockingLineConn& conn, const std::string& prefix) {
  std::string line = MustReadLine(conn);
  EXPECT_EQ(line.substr(0, prefix.size()), prefix) << "full line: " << line;
}

// Runs a full SMTP delivery of `body_lines` to userN.
void SmtpDeliver(uint16_t port, uint64_t user, const std::vector<std::string>& body_lines) {
  BlockingLineConn conn(ConnectTcp(port));
  ASSERT_GE(conn.fd(), 0);
  ExpectPrefix(conn, "220");
  ASSERT_TRUE(conn.WriteLine("HELO test"));
  ExpectPrefix(conn, "250");
  ASSERT_TRUE(conn.WriteLine("MAIL FROM:<user0@test>"));
  ExpectPrefix(conn, "250");
  ASSERT_TRUE(conn.WriteLine("RCPT TO:<user" + std::to_string(user) + "@test>"));
  ExpectPrefix(conn, "250");
  ASSERT_TRUE(conn.WriteLine("DATA"));
  ExpectPrefix(conn, "354");
  for (const auto& line : body_lines) {
    ASSERT_TRUE(conn.WriteLine(line));
  }
  ASSERT_TRUE(conn.WriteLine("."));
  ExpectPrefix(conn, "250");
  ASSERT_TRUE(conn.WriteLine("QUIT"));
  ExpectPrefix(conn, "221");
}

// Picks up userN's mail: returns the RETR'd contents of each message
// (messages are RETR'd but not deleted unless `delete_all`).
std::vector<std::string> Pop3Fetch(uint16_t port, uint64_t user, bool delete_all) {
  BlockingLineConn conn(ConnectTcp(port));
  EXPECT_GE(conn.fd(), 0);
  ExpectPrefix(conn, "+OK");
  EXPECT_TRUE(conn.WriteLine("USER user" + std::to_string(user)));
  ExpectPrefix(conn, "+OK");
  EXPECT_TRUE(conn.WriteLine("PASS x"));
  ExpectPrefix(conn, "+OK");
  EXPECT_TRUE(conn.WriteLine("LIST"));
  ExpectPrefix(conn, "+OK");
  int count = 0;
  for (;;) {
    std::string line = MustReadLine(conn);
    if (line == ".") {
      break;
    }
    ++count;
  }
  std::vector<std::string> contents;
  for (int i = 1; i <= count; ++i) {
    EXPECT_TRUE(conn.WriteLine("RETR " + std::to_string(i)));
    ExpectPrefix(conn, "+OK");
    std::string body;
    for (;;) {
      std::string line = MustReadLine(conn);
      if (line == ".") {
        break;
      }
      body += line + "\r\n";
    }
    // The response is "+OK\r\n" + contents + "\r\n." and SMTP-delivered
    // contents end in CRLF, so the wire carries one trailing empty line;
    // strip it to recover the stored contents exactly.
    if (body.size() >= 2 && body.compare(body.size() - 2, 2, "\r\n") == 0) {
      body.resize(body.size() - 2);
    }
    contents.push_back(body);
    if (delete_all) {
      EXPECT_TRUE(conn.WriteLine("DELE " + std::to_string(i)));
      ExpectPrefix(conn, "+OK");
    }
  }
  EXPECT_TRUE(conn.WriteLine("QUIT"));
  ExpectPrefix(conn, "+OK");
  return contents;
}

TEST(NetservTest, SmtpDeliverPop3PickupRoundTrip) {
  InprocMailServer server(SmallConfig(TestRoot("roundtrip")));
  ASSERT_TRUE(server.Start());

  SmtpDeliver(server.smtp_port(), 1, {"hello over tcp"});
  std::vector<std::string> got = Pop3Fetch(server.pop3_port(), 1, /*delete_all=*/true);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], "hello over tcp\r\n");

  // The DELE committed at QUIT: the mailbox is empty now.
  EXPECT_TRUE(Pop3Fetch(server.pop3_port(), 1, false).empty());
  server.Stop();
}

TEST(NetservTest, SmtpDotStuffingPreserved) {
  InprocMailServer server(SmallConfig(TestRoot("dotstuff")));
  ASSERT_TRUE(server.Start());

  // "..x" on the wire decodes to a stored ".x" line.
  SmtpDeliver(server.smtp_port(), 2, {"..leading dot", "plain"});
  std::vector<std::string> got = Pop3Fetch(server.pop3_port(), 2, true);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], ".leading dot\r\nplain\r\n");
  server.Stop();
}

TEST(NetservTest, MalformedCommandsGetErrorsNotDisconnects) {
  InprocMailServer server(SmallConfig(TestRoot("malformed")));
  ASSERT_TRUE(server.Start());

  BlockingLineConn smtp(ConnectTcp(server.smtp_port()));
  ASSERT_GE(smtp.fd(), 0);
  ExpectPrefix(smtp, "220");
  ASSERT_TRUE(smtp.WriteLine("BOGUS command"));
  ExpectPrefix(smtp, "503");  // no HELO yet
  ASSERT_TRUE(smtp.WriteLine("HELO test"));
  ExpectPrefix(smtp, "250");
  ASSERT_TRUE(smtp.WriteLine("BOGUS command"));
  ExpectPrefix(smtp, "500");
  ASSERT_TRUE(smtp.WriteLine("RCPT TO:<user1@x>"));
  ExpectPrefix(smtp, "503");  // no MAIL FROM yet
  ASSERT_TRUE(smtp.WriteLine("QUIT"));
  ExpectPrefix(smtp, "221");

  BlockingLineConn pop3(ConnectTcp(server.pop3_port()));
  ASSERT_GE(pop3.fd(), 0);
  ExpectPrefix(pop3, "+OK");
  ASSERT_TRUE(pop3.WriteLine("GARBAGE"));
  ExpectPrefix(pop3, "-ERR");
  ASSERT_TRUE(pop3.WriteLine("USER nobody"));
  ExpectPrefix(pop3, "-ERR");
  ASSERT_TRUE(pop3.WriteLine("QUIT"));
  ExpectPrefix(pop3, "+OK");
  server.Stop();
}

TEST(NetservTest, OversizedLineIsRejectedAndConnectionClosed) {
  InprocMailServer::Config config = SmallConfig(TestRoot("oversized"));
  InprocMailServer server(config);
  ASSERT_TRUE(server.Start());

  BlockingLineConn conn(ConnectTcp(server.smtp_port()));
  ASSERT_GE(conn.fd(), 0);
  ExpectPrefix(conn, "220");
  // Default cap is 64 KiB; a single unterminated 80 KiB blob trips it.
  std::string huge(80 * 1024, 'a');
  ASSERT_TRUE(conn.WriteLine(huge));
  ExpectPrefix(conn, "500 line too long");
  std::string line;
  EXPECT_FALSE(conn.ReadLine(&line));  // server hung up
  server.Stop();
}

// The CRLF terminator (and command bytes generally) can split anywhere
// across TCP reads; the carve must reassemble them without duplicating or
// losing lines.
TEST(NetservTest, CommandSplitAcrossReads) {
  InprocMailServer server(SmallConfig(TestRoot("split")));
  ASSERT_TRUE(server.Start());

  BlockingLineConn conn(ConnectTcp(server.smtp_port()));
  ASSERT_GE(conn.fd(), 0);
  ExpectPrefix(conn, "220");
  auto raw = [&](const std::string& bytes) {
    ASSERT_EQ(::send(conn.fd(), bytes.data(), bytes.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(bytes.size()));
    // Give the loop a chance to consume this fragment as its own read.
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  };
  raw("HELO te");
  raw("st\r");     // '\r' in one read...
  raw("\nNOOP");   // ...'\n' in the next, prefixed to the next command
  raw("\r\n");
  ExpectPrefix(conn, "250");  // HELO
  ExpectPrefix(conn, "250");  // NOOP
  // Byte-at-a-time.
  for (char c : std::string("NOOP\r\n")) {
    raw(std::string(1, c));
  }
  ExpectPrefix(conn, "250");
  ASSERT_TRUE(conn.WriteLine("QUIT"));
  ExpectPrefix(conn, "221");
  server.Stop();
}

// The DATA terminator ("\r\n.\r\n") straddling reads must still end the
// body exactly, with dot-stuffed content preserved.
TEST(NetservTest, DataTerminatorStraddlesReads) {
  InprocMailServer server(SmallConfig(TestRoot("data-straddle")));
  ASSERT_TRUE(server.Start());

  BlockingLineConn conn(ConnectTcp(server.smtp_port()));
  ASSERT_GE(conn.fd(), 0);
  ExpectPrefix(conn, "220");
  ASSERT_TRUE(conn.WriteLine("HELO t"));
  ExpectPrefix(conn, "250");
  ASSERT_TRUE(conn.WriteLine("MAIL FROM:<user0@test>"));
  ExpectPrefix(conn, "250");
  ASSERT_TRUE(conn.WriteLine("RCPT TO:<user2@test>"));
  ExpectPrefix(conn, "250");
  ASSERT_TRUE(conn.WriteLine("DATA"));
  ExpectPrefix(conn, "354");
  auto raw = [&](const std::string& bytes) {
    ASSERT_EQ(::send(conn.fd(), bytes.data(), bytes.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(bytes.size()));
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  };
  raw("body line one\r\n..stuffed\r");  // dot-stuffed line, split at '\r'
  raw("\n.");                            // terminator dot alone in a read
  raw("\r");
  raw("\n");
  ExpectPrefix(conn, "250");
  ASSERT_TRUE(conn.WriteLine("QUIT"));
  ExpectPrefix(conn, "221");

  std::vector<std::string> got = Pop3Fetch(server.pop3_port(), 2, true);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], "body line one\r\n.stuffed\r\n");
  server.Stop();
}

// A pipelined batch larger than the initial receive allocation (4 KiB) and
// the full buffer cap: the buffer grows, then flow-controls (pause/resume)
// without dropping, reordering, or duplicating commands.
TEST(NetservTest, PipelinedBatchSpansBufferGrowthAndBackpressure) {
  InprocMailServer server(SmallConfig(TestRoot("pipelined")));
  ASSERT_TRUE(server.Start());

  BlockingLineConn conn(ConnectTcp(server.smtp_port()));
  ASSERT_GE(conn.fd(), 0);
  ExpectPrefix(conn, "220");
  ASSERT_TRUE(conn.WriteLine("HELO t"));
  ExpectPrefix(conn, "250");

  // ~88 KiB of pipelined NOOPs in one burst: past the 4 KiB initial
  // buffer AND past the 72 KiB cap, so reads pause mid-batch and resume
  // once executors drain.
  constexpr int kCmds = 4000;
  std::string batch;
  for (int i = 0; i < kCmds; ++i) {
    batch += "NOOP padding padding\r\n";
  }
  size_t off = 0;
  while (off < batch.size()) {
    ssize_t n = ::send(conn.fd(), batch.data() + off, batch.size() - off, MSG_NOSIGNAL);
    ASSERT_GT(n, 0) << "send failed: " << std::strerror(errno);
    off += static_cast<size_t>(n);
  }
  for (int i = 0; i < kCmds; ++i) {
    ExpectPrefix(conn, "250");
  }
  ASSERT_TRUE(conn.WriteLine("QUIT"));
  ExpectPrefix(conn, "221");
  server.Stop();
}

// Empty commands (bare CRLF) are answered with a protocol error, not a
// hangup or a crash, on both protocols.
TEST(NetservTest, EmptyCommandGetsErrorNotDisconnect) {
  InprocMailServer server(SmallConfig(TestRoot("empty-cmd")));
  ASSERT_TRUE(server.Start());

  BlockingLineConn smtp(ConnectTcp(server.smtp_port()));
  ASSERT_GE(smtp.fd(), 0);
  ExpectPrefix(smtp, "220");
  ASSERT_TRUE(smtp.WriteLine("HELO t"));
  ExpectPrefix(smtp, "250");
  ASSERT_TRUE(smtp.WriteLine(""));
  ExpectPrefix(smtp, "500");
  ASSERT_TRUE(smtp.WriteLine("NOOP"));
  ExpectPrefix(smtp, "250");  // session still alive
  ASSERT_TRUE(smtp.WriteLine("QUIT"));
  ExpectPrefix(smtp, "221");

  BlockingLineConn pop3(ConnectTcp(server.pop3_port()));
  ASSERT_GE(pop3.fd(), 0);
  ExpectPrefix(pop3, "+OK");
  ASSERT_TRUE(pop3.WriteLine(""));
  ExpectPrefix(pop3, "-ERR");
  ASSERT_TRUE(pop3.WriteLine("QUIT"));
  ExpectPrefix(pop3, "+OK");
  server.Stop();
}

// A multi-megabyte unterminated line must be rejected with a bounded
// buffer (the receive buffer is capped; the old code realloc'd without
// limit), and the server must stay healthy for other connections.
TEST(NetservTest, MultiMegabyteLineIsRejectedWithBoundedBuffer) {
  InprocMailServer server(SmallConfig(TestRoot("huge-line")));
  ASSERT_TRUE(server.Start());

  BlockingLineConn conn(ConnectTcp(server.smtp_port()));
  ASSERT_GE(conn.fd(), 0);
  ExpectPrefix(conn, "220");
  // 3 MiB, no terminator, sent in chunks. The server stops reading at its
  // buffer cap, answers 500, and closes — so the tail of the send may die
  // with EPIPE/ECONNRESET, which is the expected outcome, not a failure.
  std::string chunk(64 * 1024, 'a');
  bool send_failed = false;
  for (int i = 0; i < 48 && !send_failed; ++i) {
    size_t off = 0;
    while (off < chunk.size()) {
      ssize_t n = ::send(conn.fd(), chunk.data() + off, chunk.size() - off, MSG_NOSIGNAL);
      if (n <= 0) {
        send_failed = true;
        break;
      }
      off += static_cast<size_t>(n);
    }
  }
  // Either we read the rejection before the close, or the RST beat it.
  std::string line;
  if (conn.ReadLine(&line)) {
    EXPECT_EQ(line.substr(0, 3), "500") << "full line: " << line;
    EXPECT_FALSE(conn.ReadLine(&line));  // then the server hung up
  }

  // The abuse must not have wedged the server.
  SmtpDeliver(server.smtp_port(), 1, {"post-abuse delivery"});
  std::vector<std::string> got = Pop3Fetch(server.pop3_port(), 1, true);
  ASSERT_EQ(got.size(), 1u);
  server.Stop();
}

TEST(NetservTest, MidSessionDisconnectReleasesPop3Lock) {
  InprocMailServer server(SmallConfig(TestRoot("disconnect")));
  ASSERT_TRUE(server.Start());

  // Session A takes user3's pickup lock at PASS, then vanishes without QUIT.
  {
    BlockingLineConn a(ConnectTcp(server.pop3_port()));
    ASSERT_GE(a.fd(), 0);
    ExpectPrefix(a, "+OK");
    ASSERT_TRUE(a.WriteLine("USER user3"));
    ExpectPrefix(a, "+OK");
    ASSERT_TRUE(a.WriteLine("PASS x"));
    ExpectPrefix(a, "+OK");
    // destructor closes the socket mid-session
  }

  // Session B must be able to take the lock: the server's Abort path ran.
  // (If the lock leaked, PASS would block forever and the test would hang
  // on its gtest timeout.)
  std::vector<std::string> got = Pop3Fetch(server.pop3_port(), 3, false);
  EXPECT_TRUE(got.empty());
  server.Stop();
}

TEST(NetservTest, ConcurrentSessionsInterleave) {
  InprocMailServer::Config config = SmallConfig(TestRoot("concurrent"));
  config.executors = 16;
  InprocMailServer server(config);
  ASSERT_TRUE(server.Start());

  constexpr int kThreads = 8;
  constexpr int kPerThread = 5;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        SmtpDeliver(server.smtp_port(), static_cast<uint64_t>(t) % 4,
                    {"msg t" + std::to_string(t) + " i" + std::to_string(i)});
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  uint64_t total = 0;
  for (uint64_t user = 0; user < 4; ++user) {
    total += Pop3Fetch(server.pop3_port(), user, true).size();
  }
  EXPECT_EQ(total, static_cast<uint64_t>(kThreads * kPerThread));
  server.Stop();
}

// FsSyscalls whose fsync waits at a gate until the test opens it, so one
// batch can be held in flight while the next one forms behind it.
struct GatedSyncSys : fault::FsSyscalls {
  std::mutex mu;
  std::condition_variable cv;
  bool open = false;
  int entered = 0;

  int Fsync(int fd) override {
    {
      std::unique_lock<std::mutex> lock(mu);
      ++entered;
      cv.notify_all();
      cv.wait(lock, [&] { return open; });
    }
    return fault::FsSyscalls::Fsync(fd);
  }
  void WaitEntered(int n) {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return entered >= n; });
  }
  void Open() {
    std::scoped_lock lock(mu);
    open = true;
    cv.notify_all();
  }
};

TEST(NetservTest, GroupCommitterBatchesAndDedupes) {
  std::string root = TestRoot("gc-dedup");
  ::mkdir(root.c_str(), 0755);
  std::string path = root + "/f";
  int fd = ::open(path.c_str(), O_CREAT | O_RDWR, 0644);
  ASSERT_GE(fd, 0);
  int fd2 = ::open(path.c_str(), O_RDWR);
  ASSERT_GE(fd2, 0);

  GatedSyncSys gate;
  GroupCommitter committer(GroupCommitter::Options{
      .max_wait_us = 10 * 1000 * 1000,
      .max_batch = 64,
      .barrier = GroupCommitter::Barrier::kFsyncPerFd,
      .sys = &gate,
  });
  committer.Start();

  // Batch 1: a lone request whose barrier stays at the gate.
  std::thread leader([&] { EXPECT_TRUE(committer.Fsync(fd).ok()); });
  gate.WaitEntered(1);

  // The herd queues into batch 2, which cannot close while batch 1 is in
  // flight; the gate opens only once every member has joined it.
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Two distinct fds across the herd; everything else is duplicate.
      Status s = committer.Fsync(t == 0 ? fd2 : fd);
      EXPECT_TRUE(s.ok()) << s.ToString();
    });
  }
  while (committer.stats().requests.load() < 1 + kThreads) {
    std::this_thread::yield();
  }
  gate.Open();
  leader.join();
  for (auto& th : threads) {
    th.join();
  }
  committer.Stop();

  // Totals minus batch 1 (1 request, 1 barrier, 1 fsync, nothing deduped):
  // the herd's 8 requests took one barrier of 2 fsyncs, 6 deduped.
  const auto& stats = committer.stats();
  EXPECT_EQ(stats.requests.load() - 1, static_cast<uint64_t>(kThreads));
  EXPECT_EQ(stats.batches.load() - 1, 1u);
  EXPECT_EQ(stats.fsyncs_issued.load() - 1, 2u);  // one per unique fd
  EXPECT_EQ(stats.deduped.load(), static_cast<uint64_t>(kThreads - 2));
  ::close(fd);
  ::close(fd2);
}

// FsSyscalls whose fsync costs `delay` and touches no file.
struct TimedSyncSys : fault::FsSyscalls {
  std::chrono::microseconds delay{0};
  int Fsync(int) override {
    if (delay.count() > 0) {
      std::this_thread::sleep_for(delay);
    }
    return 0;
  }
};

// The window is one mean barrier time: with an instant barrier it is no
// latency floor, however large the max_wait_us cap.
TEST(NetservTest, GroupCommitWindowFollowsBarrierCost) {
  TimedSyncSys instant;
  GroupCommitter committer(GroupCommitter::Options{
      .max_wait_us = 10 * 1000 * 1000,
      .barrier = GroupCommitter::Barrier::kFsyncPerFd,
      .sys = &instant,
  });
  committer.Start();
  for (int i = 0; i < 100; ++i) {
    auto start = std::chrono::steady_clock::now();
    ASSERT_TRUE(committer.Fsync(3).ok());
    ASSERT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(1)) << "call " << i;
  }
  committer.Stop();
  EXPECT_EQ(committer.stats().batches.load(), 100u);
}

// A lone sequential syncer has no company to wait for: on slow media each
// call costs one barrier, not a barrier plus a window waited on itself.
TEST(NetservTest, GroupCommitLoneSyncerSkipsWindow) {
  TimedSyncSys slow;
  slow.delay = std::chrono::milliseconds(5);
  GroupCommitter committer(GroupCommitter::Options{
      .max_wait_us = 10 * 1000 * 1000,
      .barrier = GroupCommitter::Barrier::kFsyncPerFd,
      .sys = &slow,
  });
  committer.Start();
  // Warm-up: the mean barrier time climbs toward the barrier's 5 ms.
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(committer.Fsync(3).ok());
  }
  std::vector<std::chrono::steady_clock::duration> took;
  for (int i = 0; i < 20; ++i) {
    auto start = std::chrono::steady_clock::now();
    ASSERT_TRUE(committer.Fsync(3).ok());
    took.push_back(std::chrono::steady_clock::now() - start);
  }
  committer.Stop();
  // Waiting out the window would make each call about 2 barriers (10 ms).
  std::sort(took.begin(), took.end());
  EXPECT_LT(took[took.size() / 2], std::chrono::microseconds(7500));
  EXPECT_EQ(committer.stats().batches.load(), 30u);
}

// On slow media, sessions that arrive while a barrier is in flight share
// the next one.
TEST(NetservTest, GroupCommitBatchesOnSlowBarriers) {
  TimedSyncSys slow;
  slow.delay = std::chrono::milliseconds(2);
  GroupCommitter committer(GroupCommitter::Options{
      .barrier = GroupCommitter::Barrier::kFsyncPerFd,
      .sys = &slow,
  });
  committer.Start();
  constexpr int kRiders = 8;
  constexpr int kRounds = 10;
  std::vector<std::thread> riders;
  for (int t = 0; t < kRiders; ++t) {
    riders.emplace_back([&, t] {
      for (int i = 0; i < kRounds; ++i) {
        EXPECT_TRUE(committer.Fsync(100 + t).ok());
      }
    });
  }
  for (auto& th : riders) {
    th.join();
  }
  committer.Stop();
  const auto& stats = committer.stats();
  EXPECT_EQ(stats.requests.load(), static_cast<uint64_t>(kRiders * kRounds));
  EXPECT_LT(stats.batches.load(), stats.requests.load());
  // Every barrier slept at least its 2 ms, and barrier_ns saw it.
  EXPECT_GE(stats.barrier_ns.load(), stats.fsyncs_issued.load() * 2 * 1000 * 1000);
}

TEST(NetservTest, GroupCommitterFallsBackAfterStop) {
  std::string root = TestRoot("gc-stopped");
  ::mkdir(root.c_str(), 0755);
  int fd = ::open((root + "/f").c_str(), O_CREAT | O_RDWR, 0644);
  ASSERT_GE(fd, 0);
  GroupCommitter committer(
      GroupCommitter::Options{.barrier = GroupCommitter::Barrier::kFsyncPerFd});
  committer.Start();
  committer.Stop();
  // Post-stop callers still get real durability, just unbatched.
  EXPECT_TRUE(committer.Fsync(fd).ok());
  EXPECT_EQ(committer.stats().batches.load(), 0u);
  ::close(fd);
}

TEST(NetservTest, GroupCommitterSyncfsBarrier) {
  std::string root = TestRoot("gc-syncfs");
  ::mkdir(root.c_str(), 0755);
  int root_fd = ::open(root.c_str(), O_DIRECTORY | O_RDONLY);
  ASSERT_GE(root_fd, 0);
  int fd = ::open((root + "/f").c_str(), O_CREAT | O_RDWR, 0644);
  ASSERT_GE(fd, 0);
  GroupCommitter committer(GroupCommitter::Options{
      .max_wait_us = 100,
      .barrier = GroupCommitter::Barrier::kSyncfs,
      .syncfs_fd = root_fd,
  });
  committer.Start();
  EXPECT_TRUE(committer.Fsync(fd).ok());
  committer.Stop();
  EXPECT_EQ(committer.stats().batches.load(), 1u);
  EXPECT_EQ(committer.stats().fsyncs_issued.load(), 1u);
  ::close(fd);
  ::close(root_fd);
}

// EINTR fault injection: every socket syscall fails with EINTR on first
// attempt; sessions must complete as if nothing happened.
struct EintrInjector {
  static std::atomic<uint64_t> hits;
  static RawSys saved;

  static ssize_t Recv(int fd, void* buf, size_t n, int flags) {
    if (hits.fetch_add(1) % 2 == 0) {
      errno = EINTR;
      return -1;
    }
    return ::recv(fd, buf, n, flags);
  }
  static ssize_t Send(int fd, const void* buf, size_t n, int flags) {
    if (hits.fetch_add(1) % 2 == 0) {
      errno = EINTR;
      return -1;
    }
    return ::send(fd, buf, n, flags);
  }
  static int Accept4(int fd, struct sockaddr* addr, socklen_t* len, int flags) {
    if (hits.fetch_add(1) % 2 == 0) {
      errno = EINTR;
      return -1;
    }
    return ::accept4(fd, addr, len, flags);
  }

  static void Install() {
    saved = Sys();
    hits.store(0);
    Sys() = RawSys{Recv, Send, Accept4};
  }
  static void Restore() { Sys() = saved; }
};
std::atomic<uint64_t> EintrInjector::hits{0};
RawSys EintrInjector::saved;

TEST(NetservTest, SessionsSurviveEintrStorms) {
  EintrInjector::Install();
  {
    InprocMailServer server(SmallConfig(TestRoot("eintr")));
    ASSERT_TRUE(server.Start());
    SmtpDeliver(server.smtp_port(), 0, {"eintr survivor"});
    std::vector<std::string> got = Pop3Fetch(server.pop3_port(), 0, true);
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0], "eintr survivor\r\n");
    server.Stop();
  }
  EintrInjector::Restore();
  EXPECT_GT(EintrInjector::hits.load(), 0u);
}

TEST(NetservTest, LoadgenSmallMixedRun) {
  std::string root = TestRoot("loadgen");
  InprocMailServer::Config config = SmallConfig(root);
  config.executors = 24;
  config.trace = nullptr;
  InprocMailServer server(config);
  ASSERT_TRUE(server.Start());

  LoadgenOptions load;
  load.smtp_port = server.smtp_port();
  load.pop3_port = server.pop3_port();
  load.clients = 8;
  load.requests = 120;
  load.num_users = 4;
  load.pickup_fraction = 0.25;
  load.body_bytes = 64;
  LoadgenResult result = RunLoadgen(load);

  EXPECT_FALSE(result.aborted);
  EXPECT_EQ(result.errors, 0u);
  EXPECT_EQ(result.ok_requests, 120u);
  EXPECT_EQ(result.delivers + result.pickups, result.ok_requests);
  EXPECT_EQ(result.latencies_us.size(), result.ok_requests);
  EXPECT_EQ(result.acked_bodies.size(), result.delivers);
  EXPECT_GT(server.committer()->stats().batches.load(), 0u);
  server.Stop();
}

TEST(NetservTest, TraceLogWritesChromeJson) {
  TraceLog log;
  {
    TraceScope scope(&log, "unit", "test", 7);
  }
  log.Complete("manual", "test", 1, 10, 5);
  ASSERT_EQ(log.size(), 2u);
  std::string path = TestRoot("trace") + ".json";
  ASSERT_TRUE(log.WriteJson(path));
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char buf[4096];
  size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  buf[n] = '\0';
  std::string json(buf);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"manual\""), std::string::npos);
  EXPECT_EQ(json.front(), '[');
}

// The headline honest-error case: with the disk refusing every write, an
// SMTP delivery must be answered with a 4xx tempfail — never a false 250 —
// and the mailbox must not contain a phantom message. The read path is
// unaffected, so the server stays healthy throughout.
TEST(NetservTest, FailingDiskTempfailsDeliveryInsteadOfFalseAck) {
  InprocMailServer::Config config = SmallConfig(TestRoot("hostile-disk"));
  Result<fault::SyscallFaultPlan> plan = fault::SyscallFaultPlan::Parse("no-space=1.0,seed=3");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  config.fault_plan = plan.value();
  InprocMailServer server(config);
  ASSERT_TRUE(server.Start());

  BlockingLineConn conn(ConnectTcp(server.smtp_port()));
  ASSERT_GE(conn.fd(), 0);
  ExpectPrefix(conn, "220");
  ASSERT_TRUE(conn.WriteLine("HELO t"));
  ExpectPrefix(conn, "250");
  ASSERT_TRUE(conn.WriteLine("MAIL FROM:<user0@test>"));
  ExpectPrefix(conn, "250");
  ASSERT_TRUE(conn.WriteLine("RCPT TO:<user1@test>"));
  ExpectPrefix(conn, "250");
  ASSERT_TRUE(conn.WriteLine("DATA"));
  ExpectPrefix(conn, "354");
  ASSERT_TRUE(conn.WriteLine("doomed message"));
  ASSERT_TRUE(conn.WriteLine("."));
  std::string verdict = MustReadLine(conn);
  EXPECT_EQ(verdict.substr(0, 3), "452") << "full line: " << verdict;
  // The session survives the tempfail and the transaction was reset.
  ASSERT_TRUE(conn.WriteLine("NOOP"));
  ExpectPrefix(conn, "250");
  ASSERT_TRUE(conn.WriteLine("QUIT"));
  ExpectPrefix(conn, "221");

  ASSERT_NE(server.faults(), nullptr);
  EXPECT_GT(server.faults()->total_injected(), 0u);
  // No phantom: the mailbox the 452'd message targeted is empty.
  EXPECT_TRUE(Pop3Fetch(server.pop3_port(), 1, false).empty());
  server.Stop();
}

// Deterministic FsSyscalls that fails the next N barrier syscalls with EIO.
struct FlakySyncSys : fault::FsSyscalls {
  std::atomic<int> fail_next{0};
  int Fsync(int fd) override {
    if (fail_next.fetch_sub(1) > 0) {
      errno = EIO;
      return -1;
    }
    return fault::FsSyscalls::Fsync(fd);
  }
  int Syncfs(int fd) override {
    if (fail_next.fetch_sub(1) > 0) {
      errno = EIO;
      return -1;
    }
    return fault::FsSyscalls::Syncfs(fd);
  }
};

// Linux drops dirty pages when fsync fails, so a later fsync of the same fd
// can "succeed" over already-lost data. The committer must therefore treat
// a failed barrier as sticky: every fd dirty at failure time keeps failing
// until it is closed and the data rewritten through a fresh descriptor.
TEST(NetservTest, FailedBarrierStickilyPoisonsDirtyFds) {
  std::string root = TestRoot("gc-poison");
  ::mkdir(root.c_str(), 0755);
  int fd = ::open((root + "/f").c_str(), O_CREAT | O_RDWR, 0644);
  ASSERT_GE(fd, 0);
  FlakySyncSys flaky;
  GroupCommitter committer(GroupCommitter::Options{
      .max_wait_us = 100,
      .barrier = GroupCommitter::Barrier::kFsyncPerFd,
      .sys = &flaky,
  });
  committer.Start();

  committer.OnDirty(fd);
  flaky.fail_next.store(1);
  Status first = committer.Fsync(fd);
  EXPECT_FALSE(first.ok());
  EXPECT_EQ(committer.stats().failed_batches.load(), 1u);

  // The syscalls work again, but the fd is poisoned: no false success.
  Status second = committer.Fsync(fd);
  EXPECT_FALSE(second.ok());
  EXPECT_GE(committer.stats().poisoned_fails.load(), 1u);

  // Close-and-rewrite clears the poison; a fresh barrier succeeds.
  committer.OnClose(fd);
  committer.OnDirty(fd);
  EXPECT_TRUE(committer.Fsync(fd).ok());
  committer.Stop();
  ::close(fd);
}

// Idle connections are reaped at the deadline with a protocol farewell, and
// a reaped POP3 session releases its user's pickup lock (the reap goes
// through the executor Abort path, not a bare close).
TEST(NetservTest, IdleConnectionsReapedAndLocksReleased) {
  InprocMailServer::Config config = SmallConfig(TestRoot("idle-reap"));
  config.idle_timeout_ms = 150;
  InprocMailServer server(config);
  ASSERT_TRUE(server.Start());

  // An SMTP conn that goes quiet after the greeting.
  BlockingLineConn smtp(ConnectTcp(server.smtp_port()));
  ASSERT_GE(smtp.fd(), 0);
  ExpectPrefix(smtp, "220");
  // A POP3 conn that takes user2's pickup lock, then goes quiet.
  BlockingLineConn pop3(ConnectTcp(server.pop3_port()));
  ASSERT_GE(pop3.fd(), 0);
  ExpectPrefix(pop3, "+OK");
  ASSERT_TRUE(pop3.WriteLine("USER user2"));
  ExpectPrefix(pop3, "+OK");
  ASSERT_TRUE(pop3.WriteLine("PASS x"));
  ExpectPrefix(pop3, "+OK");

  ExpectPrefix(smtp, "421");  // "421 idle timeout", then close
  std::string line;
  EXPECT_FALSE(smtp.ReadLine(&line));
  ExpectPrefix(pop3, "-ERR");  // "-ERR idle timeout"
  EXPECT_FALSE(pop3.ReadLine(&line));
  EXPECT_GE(server.server()->idle_reaped(), 2u);

  // The reaped session released the lock: a fresh pickup of user2 works
  // (a leaked lock would block PASS until the gtest timeout).
  EXPECT_TRUE(Pop3Fetch(server.pop3_port(), 2, false).empty());
  server.Stop();
}

// Beyond max_conns the acceptor sheds with an honest 421 and the server
// stays fully healthy for the connections it admitted.
TEST(NetservTest, MaxConnsShedsBeyond421) {
  InprocMailServer::Config config = SmallConfig(TestRoot("shed"));
  config.max_conns = 1;
  InprocMailServer server(config);
  ASSERT_TRUE(server.Start());

  BlockingLineConn keeper(ConnectTcp(server.smtp_port()));
  ASSERT_GE(keeper.fd(), 0);
  ExpectPrefix(keeper, "220");

  // Over the cap: farewell + close, counted as shed.
  BlockingLineConn extra(ConnectTcp(server.smtp_port()));
  ASSERT_GE(extra.fd(), 0);
  ExpectPrefix(extra, "421");
  std::string line;
  EXPECT_FALSE(extra.ReadLine(&line));
  EXPECT_GE(server.server()->shed_connects(), 1u);

  // The admitted connection still gets full service.
  ASSERT_TRUE(keeper.WriteLine("HELO t"));
  ExpectPrefix(keeper, "250");
  ASSERT_TRUE(keeper.WriteLine("QUIT"));
  ExpectPrefix(keeper, "221");

  // Once the keeper retires, a new connection is admitted again.
  bool admitted = false;
  for (int i = 0; i < 100 && !admitted; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    BlockingLineConn retry(ConnectTcp(server.smtp_port()));
    if (retry.fd() < 0) {
      continue;
    }
    std::string greet;
    if (retry.ReadLine(&greet) && greet.substr(0, 3) == "220") {
      admitted = true;
    }
  }
  EXPECT_TRUE(admitted);
  server.Stop();
}

// SIGTERM semantics: Drain() lets an in-flight DATA finish and flushes its
// 250 ack to the wire before the connection is closed, and new connections
// are shed while draining.
TEST(NetservTest, DrainFlushesInflightAckBeforeClosing) {
  InprocMailServer server(SmallConfig(TestRoot("drain")));
  ASSERT_TRUE(server.Start());

  BlockingLineConn conn(ConnectTcp(server.smtp_port()));
  ASSERT_GE(conn.fd(), 0);
  ExpectPrefix(conn, "220");
  ASSERT_TRUE(conn.WriteLine("HELO t"));
  ExpectPrefix(conn, "250");
  ASSERT_TRUE(conn.WriteLine("MAIL FROM:<user0@test>"));
  ExpectPrefix(conn, "250");
  ASSERT_TRUE(conn.WriteLine("RCPT TO:<user3@test>"));
  ExpectPrefix(conn, "250");
  ASSERT_TRUE(conn.WriteLine("DATA"));
  ExpectPrefix(conn, "354");
  // Put the whole body + terminator on the wire, then drain concurrently:
  // the delivery is in flight when the drain starts.
  ASSERT_TRUE(conn.WriteLine("must be acked before shutdown"));
  ASSERT_TRUE(conn.WriteLine("."));
  std::thread drainer([&] { EXPECT_TRUE(server.server()->Drain(5000)); });

  // The ack must arrive (possibly followed by the shutdown farewell).
  bool saw_ack = false;
  std::string got;
  while (conn.ReadLine(&got)) {
    if (got.substr(0, 3) == "250") {
      saw_ack = true;
    }
  }
  EXPECT_TRUE(saw_ack);
  drainer.join();
  EXPECT_EQ(server.server()->live_conns(), 0u);

  // While stopped-for-drain, the acked message is in the store.
  Result<std::vector<mailboat::Message>> picked = proc::RunSync(server.mail()->Pickup(3));
  ASSERT_TRUE(picked.ok());
  ASSERT_EQ(picked.value().size(), 1u);
  EXPECT_EQ(picked.value()[0].contents, "must be acked before shutdown\r\n");
  proc::RunSyncVoid(server.mail()->Unlock(3));
  server.Stop();
}

TEST(NetservTest, ServerStartStopIsClean) {
  for (int i = 0; i < 3; ++i) {
    InprocMailServer server(SmallConfig(TestRoot("startstop")));
    ASSERT_TRUE(server.Start());
    // one quick session to prove liveness
    BlockingLineConn conn(ConnectTcp(server.smtp_port()));
    ASSERT_GE(conn.fd(), 0);
    ExpectPrefix(conn, "220");
    ASSERT_TRUE(conn.WriteLine("QUIT"));
    ExpectPrefix(conn, "221");
    server.Stop();
  }
}

// Idle executors are woken newest-first, so a sequential client keeps
// landing on the same warm executor or two instead of rotating through the
// pool (oldest-first wake-ups would use all 64). An executor flushes its
// reply before it is back on the idle stack, so the next request can wake
// another one; a late wake-up can then pull in a third, hence the slack.
TEST(NetservTest, SequentialClientUsesFewExecutors) {
  InprocMailServer::Config config = SmallConfig(TestRoot("lifo"));
  config.executors = 64;
  InprocMailServer server(config);
  ASSERT_TRUE(server.Start());
  BlockingLineConn conn(ConnectTcp(server.smtp_port()));
  ASSERT_GE(conn.fd(), 0);
  ExpectPrefix(conn, "220");
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(conn.WriteLine("NOOP"));
    ExpectPrefix(conn, "250");
  }
  ASSERT_TRUE(conn.WriteLine("QUIT"));
  ExpectPrefix(conn, "221");
  EXPECT_GE(server.server()->executors_used(), 1u);
  EXPECT_LE(server.server()->executors_used(), 8u);
  server.Stop();
}

// Stop must wake every idle executor, however their waits interleave with
// it: a missed wake-up hangs Stop's join. A watchdog turns a hang into a
// failure.
TEST(NetservTest, RepeatedStartStopNeverHangs) {
  std::atomic<bool> done{false};
  std::thread watchdog([&] {
    auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(120);
    while (!done.load() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    if (!done.load()) {
      std::fprintf(stderr, "RepeatedStartStopNeverHangs: Stop hung\n");
      std::abort();
    }
  });
  InprocMailServer::Config config = SmallConfig(TestRoot("start-stop-200"));
  config.executors = 64;
  for (int i = 0; i < 200; ++i) {
    InprocMailServer server(config);
    ASSERT_TRUE(server.Start());
    server.Stop();
  }
  done.store(true);
  watchdog.join();
}

}  // namespace
}  // namespace perennial::netserv
