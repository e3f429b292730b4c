#include "src/smtp/session.h"

#include "src/smtp/pop3.h"
#include "src/smtp/smtp.h"

namespace perennial::smtp {

std::unique_ptr<Session> NewSession(Protocol protocol, mailboat::MailApi* mail) {
  if (protocol == Protocol::kSmtp) {
    return std::make_unique<SmtpSession>(mail);
  }
  return std::make_unique<Pop3Session>(mail);
}

}  // namespace perennial::smtp
