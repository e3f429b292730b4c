// A minimal SMTP server session over the Mailboat API (§8.2: "we used the
// library to implement an SMTP- and POP3-compatible mail server").
//
// The session is transport-agnostic (see session.h): feed it one command
// line at a time and write back the returned responses.
// Protocol subset: HELO/EHLO, MAIL FROM, RCPT TO (multiple), DATA, RSET,
// NOOP, QUIT. Addresses are user<N>@<anything>, mapping to Mailboat user N.
#ifndef PERENNIAL_SRC_SMTP_SMTP_H_
#define PERENNIAL_SRC_SMTP_SMTP_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/mailboat/mail_api.h"
#include "src/proc/task.h"
#include "src/smtp/session.h"

namespace perennial::smtp {

// Parses "user<N>@domain" (with or without <angle brackets>) to N.
// Returns nullopt for anything else or N >= num_users.
std::optional<uint64_t> ParseUserAddress(std::string_view addr, uint64_t num_users);

class SmtpSession : public Session {
 public:
  static constexpr Dialect kDialect{
      .line_event = "smtp_line",
      .greeting = "220 perennial-cc mail service ready",
      .busy = "421 too busy, try again later",
      .shutting_down = "421 server shutting down",
      .idle_timeout = "421 idle timeout",
      .line_too_long = "500 line too long",
  };

  explicit SmtpSession(mailboat::MailApi* mail) : mail_(mail) {}

  const Dialect& dialect() const override { return kDialect; }

  // Single-line responses; nothing while in DATA. Delivery happens when
  // the DATA terminator arrives.
  proc::Task<std::string> HandleLine(std::string_view line) override;

  // SMTP holds no lock between commands: a half-sent message just dies.
  proc::Task<void> Abort() override { co_return; }

  bool quit() const override { return quit_; }

 private:
  enum class State { kCommand, kData };

  proc::Task<std::string> HandleCommand(std::string_view line);
  void Reset();

  mailboat::MailApi* mail_;
  State state_ = State::kCommand;
  bool greeted_ = false;
  bool have_sender_ = false;
  std::vector<uint64_t> rcpts_;
  std::string data_;
  bool quit_ = false;
};

}  // namespace perennial::smtp

#endif  // PERENNIAL_SRC_SMTP_SMTP_H_
