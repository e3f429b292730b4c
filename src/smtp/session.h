// One line-protocol session over the Mailboat API, as the transports see
// it. SMTP and POP3 differ only behind this interface: the banner, the
// command handling, what a dropped connection must release, and the lines
// a transport sends on its own (shedding, drain, idle reaping, abuse). So
// the socket server (netserv) and the simulated daemon (MailServerd) each
// run one session loop for both protocols.
#ifndef PERENNIAL_SRC_SMTP_SESSION_H_
#define PERENNIAL_SRC_SMTP_SESSION_H_

#include <memory>
#include <string>
#include <string_view>

#include "src/mailboat/mail_api.h"
#include "src/proc/task.h"

namespace perennial::smtp {

enum class Protocol { kSmtp, kPop3 };

// A protocol's fixed lines (no trailing newline). `line_event` names one
// served line in a trace.
struct Dialect {
  const char* line_event;
  const char* greeting;       // sent before reading any command
  const char* busy;           // connection refused at the max_conns cap
  const char* shutting_down;  // refused or reaped while draining
  const char* idle_timeout;   // reaped past the idle deadline
  const char* line_too_long;  // protocol abuse; the connection is closed
};

class Session {
 public:
  virtual ~Session() = default;

  virtual const Dialect& dialect() const = 0;

  // Processes one client line; returns the full response without a
  // trailing newline (multi-line responses joined with "\r\n"; empty =
  // nothing to send). The view is borrowed: it must stay valid (bytes
  // unmoved) until the returned task completes — netserv guarantees this
  // by never compacting the receive buffer while a line is checked out.
  virtual proc::Task<std::string> HandleLine(std::string_view line) = 0;

  // The connection dropped without QUIT: release what the session holds.
  virtual proc::Task<void> Abort() = 0;

  // QUIT was handled; the transport closes after sending its reply.
  virtual bool quit() const = 0;
};

std::unique_ptr<Session> NewSession(Protocol protocol, mailboat::MailApi* mail);

}  // namespace perennial::smtp

#endif  // PERENNIAL_SRC_SMTP_SESSION_H_
