// Integration tests for the mail daemon: concurrent SMTP/POP3 sessions as
// goroutines over channel connections, all under the simulated scheduler.
#include <gtest/gtest.h>

#include "src/goose/world.h"
#include "src/goosefs/goosefs.h"
#include "src/mailboat/mailboat.h"
#include "src/smtp/mail_serverd.h"
#include "src/smtp/pop3.h"
#include "src/smtp/smtp.h"
#include "tests/sim_util.h"

namespace perennial::smtp {
namespace {

using mailboat::Mailboat;
using perennial::testing::DrainRoundRobin;
using proc::Scheduler;
using proc::SchedulerScope;
using proc::Task;

class MailServerdTest : public ::testing::Test {
 protected:
  MailServerdTest()
      : fs_(&world_, Mailboat::DirLayout(2)),
        mail_(&world_, &fs_, Mailboat::Options{2, 4096, 512, 7}),
        daemon_(&world_, &mail_) {}

  goose::World world_;
  goosefs::GooseFs fs_;
  Mailboat mail_;
  MailServerd daemon_;
};

Task<void> Capture(Task<std::vector<std::string>> inner, std::vector<std::string>* out) {
  *out = co_await std::move(inner);
}

TEST_F(MailServerdTest, SingleSmtpSessionDelivers) {
  Scheduler sched;
  SchedulerScope scope(&sched);
  LineConn conn = MakeConn(&world_);
  sched.Spawn(daemon_.ServeConn(Protocol::kSmtp, conn), "server");
  std::vector<std::string> responses;
  sched.Spawn(Capture(RunClientScript(conn, {"HELO c", "MAIL FROM:<a@b>",
                                             "RCPT TO:<user0@x>", "DATA", "hi", ".", "QUIT"}),
                      &responses),
              "client");
  DrainRoundRobin(sched);
  ASSERT_GE(responses.size(), 2u);
  EXPECT_EQ(responses.front(), SmtpSession::kDialect.greeting);
  EXPECT_EQ(responses.back(), "221 Bye");
  EXPECT_EQ(fs_.PeekNames("user0").size(), 1u);
}

TEST_F(MailServerdTest, AcceptLoopServesConcurrentSessions) {
  Scheduler sched;
  SchedulerScope scope(&sched);
  goose::Chan<Accepted> listener(&world_, 4);
  sched.Spawn(daemon_.AcceptLoop(&listener), "acceptor");

  LineConn smtp_conn = MakeConn(&world_);
  LineConn smtp_conn2 = MakeConn(&world_);
  std::vector<std::string> r1;
  std::vector<std::string> r2;

  auto feeder = [&]() -> Task<void> {
    // Named locals, not braced temporaries: GCC 12 double-destroys
    // aggregate temporaries in awaited coroutine calls (see
    // docs/gcc12_coroutine_notes.md).
    Accepted first{Protocol::kSmtp, smtp_conn};
    Accepted second{Protocol::kSmtp, smtp_conn2};
    co_await listener.Send(first);
    co_await listener.Send(second);
    co_await listener.Close();
  };
  sched.Spawn(feeder(), "feeder");
  sched.Spawn(Capture(RunClientScript(smtp_conn, {"HELO a", "MAIL FROM:<x@y>",
                                                  "RCPT TO:<user0@x>", "DATA", "one", ".",
                                                  "QUIT"}),
                      &r1),
              "client1");
  sched.Spawn(Capture(RunClientScript(smtp_conn2, {"HELO b", "MAIL FROM:<x@y>",
                                                   "RCPT TO:<user1@x>", "DATA", "two", ".",
                                                   "QUIT"}),
                      &r2),
              "client2");
  DrainRoundRobin(sched);
  EXPECT_EQ(r1.back(), "221 Bye");
  EXPECT_EQ(r2.back(), "221 Bye");
  EXPECT_EQ(fs_.PeekNames("user0").size(), 1u);
  EXPECT_EQ(fs_.PeekNames("user1").size(), 1u);
}

TEST_F(MailServerdTest, SmtpThenPop3EndToEnd) {
  Scheduler sched;
  SchedulerScope scope(&sched);
  {
    LineConn conn = MakeConn(&world_);
    sched.Spawn(daemon_.ServeConn(Protocol::kSmtp, conn), "smtp");
    std::vector<std::string> responses;
    sched.Spawn(Capture(RunClientScript(conn, {"HELO c", "MAIL FROM:<a@b>",
                                               "RCPT TO:<user1@x>", "DATA", "subject",
                                               ".", "QUIT"}),
                        &responses),
                "smtp-client");
    DrainRoundRobin(sched);
  }
  Scheduler sched2;
  SchedulerScope scope2(&sched2);
  LineConn conn = MakeConn(&world_);
  sched2.Spawn(daemon_.ServeConn(Protocol::kPop3, conn), "pop3");
  std::vector<std::string> responses;
  sched2.Spawn(Capture(RunClientScript(conn, {"USER user1", "PASS x", "STAT", "RETR 1",
                                              "DELE 1", "QUIT"}),
                       &responses),
               "pop3-client");
  DrainRoundRobin(sched2);
  ASSERT_GE(responses.size(), 5u);
  EXPECT_EQ(responses[0], Pop3Session::kDialect.greeting);
  EXPECT_EQ(responses[2], "+OK 1 messages");
  EXPECT_NE(responses[4].find("subject"), std::string::npos);
  EXPECT_TRUE(fs_.PeekNames("user1").empty());  // deleted at QUIT
}

TEST_F(MailServerdTest, DroppedPop3ConnectionReleasesTheLock) {
  Scheduler sched;
  SchedulerScope scope(&sched);
  LineConn conn = MakeConn(&world_);
  sched.Spawn(daemon_.ServeConn(Protocol::kPop3, conn), "pop3");
  // The client logs in (taking the mailbox lock) and then vanishes
  // without QUIT.
  auto rude_client = [&]() -> Task<void> {
    (void)co_await conn.to_client->Recv();  // greeting
    co_await conn.to_server->Send("USER user0");
    (void)co_await conn.to_client->Recv();
    co_await conn.to_server->Send("PASS x");
    (void)co_await conn.to_client->Recv();
    co_await conn.to_server->Close();  // hang up
  };
  sched.Spawn(rude_client(), "client");
  DrainRoundRobin(sched);
  // The lock must have been released: a fresh pickup succeeds (it would
  // deadlock otherwise).
  Scheduler sched2;
  SchedulerScope scope2(&sched2);
  bool picked_up = false;
  auto check = [&]() -> Task<void> {
    (void)co_await mail_.Pickup(0);
    co_await mail_.Unlock(0);
    picked_up = true;
  };
  sched2.Spawn(check());
  perennial::testing::DrainLowestFirst(sched2);
  EXPECT_TRUE(picked_up);
}

TEST_F(MailServerdTest, ConcurrentSmtpAndPop3OnSameUser) {
  // Delivery races a pickup session on the same mailbox — the library's
  // locking keeps both sessions coherent.
  Scheduler sched;
  SchedulerScope scope(&sched);
  goose::Chan<Accepted> listener(&world_, 4);
  sched.Spawn(daemon_.AcceptLoop(&listener), "acceptor");
  LineConn smtp_conn = MakeConn(&world_);
  LineConn pop_conn = MakeConn(&world_);
  std::vector<std::string> smtp_resp;
  std::vector<std::string> pop_resp;
  auto feeder = [&]() -> Task<void> {
    Accepted first{Protocol::kSmtp, smtp_conn};
    Accepted second{Protocol::kPop3, pop_conn};
    co_await listener.Send(first);
    co_await listener.Send(second);
    co_await listener.Close();
  };
  sched.Spawn(feeder(), "feeder");
  sched.Spawn(Capture(RunClientScript(smtp_conn, {"HELO c", "MAIL FROM:<a@b>",
                                                  "RCPT TO:<user0@x>", "DATA", "m", ".",
                                                  "QUIT"}),
                      &smtp_resp),
              "smtp-client");
  sched.Spawn(Capture(RunClientScript(pop_conn, {"USER user0", "PASS x", "STAT", "QUIT"}),
                      &pop_resp),
              "pop3-client");
  DrainRoundRobin(sched);
  EXPECT_EQ(smtp_resp.back(), "221 Bye");
  EXPECT_EQ(pop_resp.back(), "+OK Bye");
  // The pickup saw 0 or 1 messages depending on the interleaving; either
  // way the message is durably in the mailbox afterwards (the POP3 session
  // deleted nothing).
  EXPECT_EQ(fs_.PeekNames("user0").size(), 1u);
}

}  // namespace
}  // namespace perennial::smtp
