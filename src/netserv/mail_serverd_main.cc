// The production mail daemon: Mailboat over PosixFilesys behind a
// multi-threaded epoll SMTP/POP3 front end, with group-commit fsync
// batching (DESIGN.md §14) and a hostile-disk fault envelope (§15).
//
// Quickstart:
//   mail_serverd --root /tmp/mail --smtp-port 2525 --pop3-port 1110
//   bench_loadgen --smtp-port 2525 --pop3-port 1110 --clients 64
//
// Prints one line "ports <smtp> <pop3>" to stdout once listening (so a
// parent process driving ephemeral ports can read them back), then serves
// until SIGINT (fast stop) or SIGTERM (graceful drain: stop accepting,
// flush in-flight acks, then exit).
//
// --supervise runs a tiny restart supervisor: the server runs in a child
// process; if the child dies (crash, OOM kill), the supervisor re-forks it
// with bounded exponential backoff, and the fresh child re-runs Mailboat's
// Recover against the surviving store — the same crash-restart contract the
// crashreal harness checks, now available in production form. Signals sent
// to the supervisor are forwarded to the child.
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "src/fault/syscall_fault.h"
#include "src/netserv/harness.h"

namespace {

std::atomic<bool> g_stop{false};
std::atomic<bool> g_drain{false};  // SIGTERM: drain before stopping

void OnSignal(int signum) {
  if (signum == SIGTERM) {
    g_drain.store(true);
  }
  g_stop.store(true);
}

// Supervisor state: the handler forwards the signal straight to the child
// (kill(2) is async-signal-safe) so a drain request reaches the server.
volatile pid_t g_child = -1;

void OnSupervisorSignal(int signum) {
  g_stop.store(true);
  pid_t child = g_child;
  if (child > 0) {
    ::kill(child, signum);
  }
}

uint64_t FlagU64(int argc, char** argv, const char* name, uint64_t def) {
  std::string want = std::string(name) + "=";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.compare(0, want.size(), want) == 0) {
      return std::strtoull(arg.c_str() + want.size(), nullptr, 10);
    }
  }
  return def;
}

std::string FlagStr(int argc, char** argv, const char* name, const std::string& def) {
  std::string want = std::string(name) + "=";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.compare(0, want.size(), want) == 0) {
      return arg.substr(want.size());
    }
  }
  return def;
}

bool FlagSet(int argc, char** argv, const char* name) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == name) {
      return true;
    }
  }
  return false;
}

int RunServer(int argc, char** argv) {
  using namespace perennial;

  netserv::InprocMailServer::Config config;
  config.root = FlagStr(argc, argv, "--root", "/tmp/perennial-mail");
  config.smtp_port = static_cast<uint16_t>(FlagU64(argc, argv, "--smtp-port", 0));
  config.pop3_port = static_cast<uint16_t>(FlagU64(argc, argv, "--pop3-port", 0));
  config.users = FlagU64(argc, argv, "--users", 100);
  config.group_commit = !FlagSet(argc, argv, "--no-group-commit");
  config.gc_window_us = FlagU64(argc, argv, "--gc-window-us", 500);
  config.gc_batch = FlagU64(argc, argv, "--gc-batch", 64);
  config.loops = FlagU64(argc, argv, "--loops", 2);
  config.executors = FlagU64(argc, argv, "--executors", 64);
  config.clear_store = false;
  config.relaxed_spool = !FlagSet(argc, argv, "--no-relaxed-spool");
  config.idle_timeout_ms = FlagU64(argc, argv, "--idle-timeout-ms", 0);
  config.max_conns = FlagU64(argc, argv, "--max-conns", 0);
  // Hostile-disk mode (soaks and demos): inject syscall faults at the
  // configured rates into the data path and the commit barriers.
  std::string fault_spec = FlagStr(argc, argv, "--fault-plan", "");
  if (!fault_spec.empty()) {
    Result<fault::SyscallFaultPlan> plan = fault::SyscallFaultPlan::Parse(fault_spec);
    if (!plan.ok()) {
      std::fprintf(stderr, "mail_serverd: %s\n", plan.status().ToString().c_str());
      return 1;
    }
    config.fault_plan = plan.value();
  }

  netserv::InprocMailServer stack(config);
  if (!stack.Start()) {
    return 1;
  }
  netserv::MailNetServer& server = *stack.server();

  std::printf("ports %u %u\n", server.smtp_port(), server.pop3_port());
  std::fflush(stdout);
  std::fprintf(stderr,
               "mail_serverd: root=%s users=%llu loops=%llu executors=%llu group_commit=%s%s\n",
               config.root.c_str(), static_cast<unsigned long long>(config.users),
               static_cast<unsigned long long>(config.loops),
               static_cast<unsigned long long>(config.executors),
               config.group_commit ? "on" : "off", stack.faults() != nullptr ? " fault-plan=on" : "");

  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = OnSignal;
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);
  while (!g_stop.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  if (g_drain.load()) {
    // SIGTERM: graceful. Stop admitting, let in-flight commands finish and
    // their acks reach the wire, then tear down.
    bool drained = server.Drain(FlagU64(argc, argv, "--drain-ms", 5000));
    std::fprintf(stderr, "mail_serverd: drain %s (%llu conns shed)\n",
                 drained ? "complete" : "timed out",
                 static_cast<unsigned long long>(server.shed_connects()));
  }
  stack.Stop();
  std::fprintf(stderr, "mail_serverd: served %llu lines over %llu connections\n",
               static_cast<unsigned long long>(server.lines_served()),
               static_cast<unsigned long long>(server.accepted()));
  if (stack.faults() != nullptr) {
    std::fprintf(stderr, "mail_serverd: injected %s\n", stack.faults()->InjectedSummary().c_str());
  }
  return 0;
}

// Crash-restart supervisor: fork the server, wait, re-fork on abnormal
// death with bounded exponential backoff (100ms doubling to 5s, reset
// after a child survives 10s). The restarted child re-runs Recover against
// the store the dead one left behind — acked mail survives, spool orphans
// are reaped. A child that exits cleanly (or a forwarded signal) ends the
// supervisor too.
int RunSupervisor(int argc, char** argv) {
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = OnSupervisorSignal;
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);

  uint64_t backoff_ms = 100;
  constexpr uint64_t kBackoffCapMs = 5000;
  uint64_t restarts = 0;
  uint64_t max_restarts = FlagU64(argc, argv, "--max-restarts", 0);  // 0 = unlimited

  while (!g_stop.load()) {
    auto born = std::chrono::steady_clock::now();
    pid_t pid = ::fork();
    if (pid < 0) {
      std::fprintf(stderr, "mail_serverd: fork: %s\n", std::strerror(errno));
      return 1;
    }
    if (pid == 0) {
      // Child: a fresh server generation. Reset inherited handler state.
      ::signal(SIGINT, SIG_DFL);
      ::signal(SIGTERM, SIG_DFL);
      ::_exit(RunServer(argc, argv));
    }
    g_child = pid;
    int wstatus = 0;
    pid_t waited;
    do {
      waited = ::waitpid(pid, &wstatus, 0);
    } while (waited < 0 && errno == EINTR && !g_stop.load());
    g_child = -1;
    if (waited < 0) {
      // Interrupted by our own shutdown signal: the handler already
      // forwarded it; reap the child and exit.
      ::waitpid(pid, &wstatus, 0);
    }
    if (g_stop.load()) {
      return WIFEXITED(wstatus) ? WEXITSTATUS(wstatus) : 0;
    }
    if (WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0) {
      return 0;  // clean exit: nothing to supervise
    }
    auto lived = std::chrono::steady_clock::now() - born;
    if (lived >= std::chrono::seconds(10)) {
      backoff_ms = 100;  // the last incarnation was healthy; forgive
    }
    ++restarts;
    if (max_restarts != 0 && restarts > max_restarts) {
      std::fprintf(stderr, "mail_serverd: giving up after %llu restarts\n",
                   static_cast<unsigned long long>(max_restarts));
      return WIFEXITED(wstatus) ? WEXITSTATUS(wstatus) : 1;
    }
    if (WIFSIGNALED(wstatus)) {
      std::fprintf(stderr, "mail_serverd: child killed by signal %d; restart #%llu in %llums\n",
                   WTERMSIG(wstatus), static_cast<unsigned long long>(restarts),
                   static_cast<unsigned long long>(backoff_ms));
    } else {
      std::fprintf(stderr, "mail_serverd: child exited %d; restart #%llu in %llums\n",
                   WIFEXITED(wstatus) ? WEXITSTATUS(wstatus) : -1,
                   static_cast<unsigned long long>(restarts),
                   static_cast<unsigned long long>(backoff_ms));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
    backoff_ms = std::min(backoff_ms * 2, kBackoffCapMs);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (FlagSet(argc, argv, "--help")) {
    std::printf(
        "usage: mail_serverd [--root=DIR] [--smtp-port=N] [--pop3-port=N]\n"
        "                    [--users=N] [--loops=N] [--executors=N]\n"
        "                    [--gc-window-us=N] [--gc-batch=N] [--no-group-commit]\n"
        "                    [--no-relaxed-spool] [--fault-plan=key=rate,...]\n"
        "                    [--idle-timeout-ms=N] [--max-conns=N] [--drain-ms=N]\n"
        "                    [--supervise] [--max-restarts=N]\n");
    return 0;
  }
  if (FlagSet(argc, argv, "--supervise")) {
    return RunSupervisor(argc, argv);
  }
  return RunServer(argc, argv);
}
