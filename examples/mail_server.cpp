// A complete mail-server session: SMTP delivery and POP3 retrieval over
// the verified Mailboat library (§8.2's "Using Mailboat"), including a
// crash in the middle of a delivery and the recovery that cleans up.
//
// The transport is an in-process line loop (the paper likewise measured
// requests on the same machine); swapping in a socket loop would not
// change a line of the protocol or library code.
//
//   $ ./examples/mail_server
#include <cstdio>
#include <string>
#include <vector>

#include "src/goose/world.h"
#include "src/goosefs/goosefs.h"
#include "src/mailboat/mailboat.h"
#include "src/proc/scheduler.h"
#include "src/smtp/mail_serverd.h"
#include "src/smtp/pop3.h"
#include "src/smtp/smtp.h"

namespace {

using namespace perennial;  // NOLINT
using mailboat::Mailboat;

void RunAll(proc::Scheduler& sched) {
  while (!sched.AllDone()) {
    sched.Step(sched.RunnableThreads()[0]);
  }
}

// Feeds lines to a protocol session, printing the exchange.
template <typename Session>
void Converse(proc::Scheduler& sched, Session& session, const std::vector<std::string>& lines) {
  for (const std::string& line : lines) {
    std::string response;
    auto step = [&]() -> proc::Task<void> { response = co_await session.HandleLine(line); };
    sched.Spawn(step());
    RunAll(sched);
    std::printf("C: %s\n", line.c_str());
    if (!response.empty()) {
      std::printf("S: %s\n", response.c_str());
    }
  }
}

}  // namespace

int main() {
  goose::World world;
  goosefs::GooseFs fs(&world, Mailboat::DirLayout(3));
  Mailboat mail(&world, &fs, Mailboat::Options{3, 4096, 512, 2024});
  proc::Scheduler sched;
  proc::SchedulerScope scope(&sched);

  std::printf("==== SMTP: deliver two messages to user1 ====\n");
  std::printf("S: %s\n", smtp::SmtpSession::kDialect.greeting);
  smtp::SmtpSession smtp_session(&mail);
  Converse(sched, smtp_session,
           {"HELO laptop", "MAIL FROM:<alice@remote.org>", "RCPT TO:<user1@example.com>", "DATA",
            "Subject: lunch?", "", "How about noon.", ".", "MAIL FROM:<bob@remote.org>",
            "RCPT TO:<user1@example.com>", "DATA", "Subject: report", "", "Attached below.", ".",
            "QUIT"});

  std::printf("\n==== Crash in the middle of a third delivery ====\n");
  {
    // Start a delivery and stop the machine partway through: the message
    // is spooled but never linked into the mailbox.
    auto half_delivery = [&]() -> proc::Task<void> {
      (void)co_await mail.Deliver(1, goosefs::BytesOfString("this one is lost to the crash"));
    };
    sched.Spawn(half_delivery());
    for (int i = 0; i < 4; ++i) {  // run only a few steps of the delivery
      sched.Step(sched.RunnableThreads()[0]);
    }
    sched.KillAllThreads();
    world.Crash();
    std::printf("machine crashed mid-delivery; spool entries: %zu\n",
                fs.PeekNames("spool").size());
    auto recover = [&]() -> proc::Task<void> { co_await mail.Recover(); };
    sched.Spawn(recover());
    RunAll(sched);
    std::printf("after Recover(): spool entries: %zu (cleaned), mailbox intact\n",
                fs.PeekNames("spool").size());
  }

  std::printf("\n==== POP3: user1 reads and deletes their mail ====\n");
  std::printf("S: %s\n", smtp::Pop3Session::kDialect.greeting);
  smtp::Pop3Session pop_session(&mail);
  Converse(sched, pop_session,
           {"USER user1", "PASS anything", "STAT", "LIST", "RETR 1", "DELE 1", "RETR 2", "DELE 2",
            "QUIT"});

  std::printf("\n==== Mailbox is now empty ====\n");
  std::printf("user1 directory entries: %zu\n", fs.PeekNames("user1").size());

  std::printf("\n==== Daemon mode: concurrent sessions as goroutines ====\n");
  {
    smtp::MailServerd daemon(&world, &mail);
    goose::Chan<smtp::Accepted> listener(&world, 4);
    sched.Spawn(daemon.AcceptLoop(&listener), "acceptor");
    smtp::LineConn smtp_conn = smtp::MakeConn(&world);
    smtp::LineConn pop_conn = smtp::MakeConn(&world);
    auto feeder = [&]() -> proc::Task<void> {
      smtp::Accepted first{smtp::Protocol::kSmtp, smtp_conn};
      smtp::Accepted second{smtp::Protocol::kPop3, pop_conn};
      co_await listener.Send(first);
      co_await listener.Send(second);
      co_await listener.Close();
    };
    sched.Spawn(feeder(), "feeder");
    std::vector<std::string> smtp_resp;
    std::vector<std::string> pop_resp;
    auto capture = [](proc::Task<std::vector<std::string>> inner,
                      std::vector<std::string>* out) -> proc::Task<void> {
      *out = co_await std::move(inner);
    };
    sched.Spawn(capture(smtp::RunClientScript(smtp_conn, {"HELO c", "MAIL FROM:<a@b>",
                                                          "RCPT TO:<user2@x>", "DATA",
                                                          "daemon-delivered", ".", "QUIT"}),
                        &smtp_resp),
                "smtp-client");
    sched.Spawn(capture(smtp::RunClientScript(pop_conn, {"USER user2", "PASS x", "STAT", "QUIT"}),
                        &pop_resp),
                "pop3-client");
    // Both sessions interleave request-by-request under the scheduler.
    size_t turn = 0;
    while (!sched.AllDone()) {
      auto runnable = sched.RunnableThreads();
      sched.Step(runnable[turn % runnable.size()]);
      ++turn;
    }
    std::printf("SMTP session closed with: %s\n", smtp_resp.back().c_str());
    std::printf("POP3 session closed with: %s\n", pop_resp.back().c_str());
    std::printf("user2 now has %zu message(s)\n", fs.PeekNames("user2").size());
  }
  return 0;
}
