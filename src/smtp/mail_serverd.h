// The mail daemon: concurrent SMTP/POP3 sessions over connections.
//
// A "connection" is a pair of line channels (goose::Chan<std::string>),
// playing the role of a TCP stream: clients write commands into `to_server`
// and read responses from `to_client`. The daemon's accept loop receives
// connections from a listener channel and spawns one goroutine per session
// — the same structure as a Go server built on net.Listener, expressed
// with the Goose primitives so the whole thing runs under the simulated
// scheduler (and therefore under the checker's schedules).
//
// The protocol layer is unverified, exactly as in the paper (§8.2): the
// guarantees live in the Mailboat library underneath.
#ifndef PERENNIAL_SRC_SMTP_MAIL_SERVERD_H_
#define PERENNIAL_SRC_SMTP_MAIL_SERVERD_H_

#include <memory>
#include <string>
#include <vector>

#include "src/goose/channel.h"
#include "src/goose/world.h"
#include "src/mailboat/mail_api.h"
#include "src/proc/task.h"
#include "src/smtp/session.h"

namespace perennial::smtp {

// One logical connection (both stream directions).
struct LineConn {
  std::shared_ptr<goose::Chan<std::string>> to_server;
  std::shared_ptr<goose::Chan<std::string>> to_client;
};

// Creates a connection with small bounded stream buffers.
LineConn MakeConn(goose::World* world);

struct Accepted {
  Protocol protocol = Protocol::kSmtp;
  LineConn conn;
};

class MailServerd {
 public:
  MailServerd(goose::World* world, mailboat::MailApi* mail) : world_(world), mail_(mail) {}

  // Serves one session to completion: greets, processes lines until QUIT
  // or client disconnect, closes the response stream.
  proc::Task<void> ServeConn(Protocol protocol, LineConn conn);

  // Accepts connections until the listener channel closes, spawning one
  // goroutine per session (simulated mode only).
  proc::Task<void> AcceptLoop(goose::Chan<Accepted>* listener);

 private:
  goose::World* world_;
  mailboat::MailApi* mail_;
};

// Client helper: sends each line and collects every response the server
// produces, until the server closes the stream.
proc::Task<std::vector<std::string>> RunClientScript(LineConn conn,
                                                     std::vector<std::string> lines);

}  // namespace perennial::smtp

#endif  // PERENNIAL_SRC_SMTP_MAIL_SERVERD_H_
