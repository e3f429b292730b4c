#include "src/smtp/mail_serverd.h"

namespace perennial::smtp {

LineConn MakeConn(goose::World* world) {
  LineConn conn;
  conn.to_server = std::make_shared<goose::Chan<std::string>>(world, 64);
  conn.to_client = std::make_shared<goose::Chan<std::string>>(world, 64);
  return conn;
}

proc::Task<void> MailServerd::ServeConn(Protocol protocol, LineConn conn) {
  std::unique_ptr<Session> session = NewSession(protocol, mail_);
  co_await conn.to_client->Send(session->dialect().greeting);
  while (!session->quit()) {
    std::optional<std::string> line = co_await conn.to_server->Recv();
    if (!line.has_value()) {
      // Dropped connection: a POP3 session releases its mailbox lock
      // without committing any deletions (§8.1: Unlock on disconnect).
      co_await session->Abort();
      break;
    }
    std::string response = co_await session->HandleLine(*line);
    if (!response.empty()) {
      co_await conn.to_client->Send(std::move(response));
    }
  }
  co_await conn.to_client->Close();
}

proc::Task<void> MailServerd::AcceptLoop(goose::Chan<Accepted>* listener) {
  PCC_ENSURE(proc::CurrentScheduler() != nullptr,
             "AcceptLoop spawns goroutines: simulated mode only");
  while (true) {
    std::optional<Accepted> accepted = co_await listener->Recv();
    if (!accepted.has_value()) {
      co_return;  // listener closed: daemon shuts down
    }
    // One goroutine per connection, like `go serveConn(c)`.
    proc::CurrentScheduler()->Spawn(ServeConn(accepted->protocol, accepted->conn), "session");
  }
}

proc::Task<std::vector<std::string>> RunClientScript(LineConn conn,
                                                     std::vector<std::string> lines) {
  std::vector<std::string> responses;
  // Read the greeting first.
  std::optional<std::string> greeting = co_await conn.to_client->Recv();
  if (greeting.has_value()) {
    responses.push_back(*greeting);
  }
  for (std::string& line : lines) {
    co_await conn.to_server->Send(std::move(line));
  }
  co_await conn.to_server->Close();
  while (true) {
    std::optional<std::string> response = co_await conn.to_client->Recv();
    if (!response.has_value()) {
      break;
    }
    responses.push_back(*response);
  }
  co_return responses;
}

}  // namespace perennial::smtp
