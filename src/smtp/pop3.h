// A minimal POP3 server session over the Mailboat API.
//
// POP3 maps naturally onto the library's locking discipline: PASS performs
// Pickup (listing the mailbox and taking the user's lock), DELE marks
// messages, and QUIT commits the marked deletions and Unlocks — so a
// dropped connection (Abort) loses no mail.
// Subset: USER, PASS, STAT, LIST, RETR, DELE, RSET, NOOP, QUIT.
#ifndef PERENNIAL_SRC_SMTP_POP3_H_
#define PERENNIAL_SRC_SMTP_POP3_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/mailboat/mail_api.h"
#include "src/mailboat/mailboat.h"
#include "src/proc/task.h"
#include "src/smtp/session.h"

namespace perennial::smtp {

class Pop3Session : public Session {
 public:
  static constexpr Dialect kDialect{
      .line_event = "pop3_line",
      .greeting = "+OK perennial-cc POP3 ready",
      .busy = "-ERR busy, try again later",
      .shutting_down = "-ERR server shutting down",
      .idle_timeout = "-ERR idle timeout",
      .line_too_long = "-ERR line too long",
  };

  explicit Pop3Session(mailboat::MailApi* mail) : mail_(mail) {}

  const Dialect& dialect() const override { return kDialect; }

  // Multi-line responses end with a lone "." line, as on the wire.
  proc::Task<std::string> HandleLine(std::string_view line) override;

  // Release the lock, delete nothing.
  proc::Task<void> Abort() override;

  bool quit() const override { return quit_; }

 private:
  enum class State { kAuthUser, kAuthPass, kTransaction, kDone };

  mailboat::MailApi* mail_;
  State state_ = State::kAuthUser;
  uint64_t user_ = 0;
  std::vector<mailboat::Message> messages_;
  std::vector<bool> deleted_;
  bool quit_ = false;
};

}  // namespace perennial::smtp

#endif  // PERENNIAL_SRC_SMTP_POP3_H_
