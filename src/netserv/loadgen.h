// Load generator for MailNetServer: an epoll-driven fleet of client state
// machines (persistent SMTP delivery connections plus POP3 pickup cyclers)
// sharing a global request budget. Scales to thousands of concurrent
// connections per driver thread because clients are coroutine-free FSMs —
// a few hundred bytes each, advanced purely by socket readiness.
//
// SMTP clients pipeline RFC 2920-style: MAIL/RCPT/DATA go out as one batch
// and their replies are read together (the body still waits for 354),
// which is how real MTAs drive busy servers.
//
// Tempfail handling (RFC client semantics): a 421/451/452 SMTP reply, a
// "-ERR" POP3 login reply, or a connection lost mid-request is retried
// with the SAME body tag after bounded exponential backoff (2 ms doubling,
// capped at 64 ms), up to 6 attempts. Only after that does the request
// count as a tempfail — so under a hostile disk the generator behaves like
// a real MTA peer, and every tag it gave up on is recorded for the
// acked-vs-durable audit.
//
// Every acknowledged delivery carries a unique body tag which is recorded
// in the result, so a crash harness can SIGKILL the server mid-run and
// check acked ⇒ durable against the survivor set.
#ifndef PERENNIAL_SRC_NETSERV_LOADGEN_H_
#define PERENNIAL_SRC_NETSERV_LOADGEN_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace perennial::netserv {

struct LoadgenOptions {
  uint16_t smtp_port = 0;
  uint16_t pop3_port = 0;
  uint64_t clients = 64;
  // Total requests, split into fixed per-client quotas (remainder to the
  // lowest client ids). Fixed quotas keep the work mix identical across
  // runs — a shared pool would let cheap requests displace slow ones.
  uint64_t requests = 2000;
  uint64_t num_users = 8;       // addresses drawn uniformly from user0..N-1
  double pickup_fraction = 0.3;  // fraction of clients doing POP3 pickups
  uint64_t body_bytes = 256;    // SMTP message body size (incl. unique tag)
  // Recipients per message (mailing-list fan-out). Each recipient is a full
  // durable delivery, so this scales the durability work per SMTP
  // transaction without scaling the protocol work.
  uint64_t rcpts_per_msg = 1;
  uint64_t threads = 1;         // driver threads (each owns an epoll set)
  uint64_t rng_seed = 1;
  // Abort the run if no request completes for this long (server hung or
  // killed). The crash harness relies on this to return after SIGKILL.
  uint64_t stall_timeout_ms = 10000;
  // Optional: incremented on every acknowledged delivery, so an external
  // watcher (the crash harness) can time its SIGKILL. Not owned.
  std::atomic<uint64_t>* acked_counter = nullptr;
};

struct LoadgenResult {
  uint64_t ok_requests = 0;
  uint64_t errors = 0;      // unexpected (non-tempfail) response mid-request
  uint64_t delivers = 0;
  uint64_t pickups = 0;
  uint64_t deletes = 0;  // pickups that committed a DELE at QUIT
  // Requests abandoned after exhausting the retry budget, plus pickups
  // whose deletes the server reported failed at QUIT.
  uint64_t tempfails = 0;
  uint64_t retries = 0;        // individual retry attempts (421/451/452/conn lost)
  uint64_t shed_connects = 0;  // greeting-stage busy/shutting-down rejections
  std::vector<uint64_t> latencies_us;       // one entry per completed request
  std::vector<std::string> acked_bodies;    // full body text of each acked deliver
  // Bodies the generator sent at least once but finally gave up on: the
  // only tags allowed to be durable-but-unacked after a fault soak.
  std::vector<std::string> tempfailed_bodies;
  double wall_ms = 0;
  bool aborted = false;  // stalled / all connections died before budget drained
};

LoadgenResult RunLoadgen(const LoadgenOptions& options);

// Percentile over an unsorted sample set (p in [0,100]); 0 if empty.
uint64_t PercentileUs(std::vector<uint64_t> samples, double p);

}  // namespace perennial::netserv

#endif  // PERENNIAL_SRC_NETSERV_LOADGEN_H_
