// The checker workloads: exhaustive verification with ParallelExplorer
// (check-verify) and PCT bug finding with counterexample minimization
// (check-bugfind).
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench/pct_suite.h"
#include "common.h"
#include "spans.h"
#include "src/base/rand.h"
#include "src/mailboat/mail_harness.h"
#include "src/refine/minimize.h"
#include "src/refine/parallel_explorer.h"
#include "src/systems/pattern_harness.h"
#include "timed_spec.h"
#include "workloads.h"

namespace perfbench {

namespace {

using perennial::refine::Explorer;
using perennial::refine::ExplorerOptions;
using perennial::refine::Instance;
using perennial::refine::ParallelExplorer;
using perennial::refine::Report;

constexpr int kWorkers = 4;

// setup_s of the checker workloads. One engine set-up takes a fraction of a
// millisecond, so a single timing would measure the host's scheduling
// noise, and batches timed back to back would measure the host's speed in
// one half second. Set-ups are timed in batches of kSetupBatch (tens of
// milliseconds), one batch at most every kSetupEveryS seconds, between the
// units of measured work; setup_s is the median batch time divided by the
// batch size.
class SetupSampler {
 public:
  static constexpr int kSetupBatch = 200;
  static constexpr double kSetupEveryS = 1.0;
  static constexpr size_t kMinBatches = 5;

  explicit SetupSampler(std::function<void()> set_up_once) : set_up_once_(std::move(set_up_once)) {}

  // Times a batch unless the last one ended less than kSetupEveryS ago.
  void MaybeSample() {
    if (batches_.empty() || SecondsSince(last_) >= kSetupEveryS) {
      Sample();
    }
  }

  // The median over all batches, after topping up to kMinBatches.
  double Seconds() {
    while (batches_.size() < kMinBatches) {
      Sample();
    }
    auto [lo, hi] = std::minmax_element(batches_.begin(), batches_.end());
    std::printf("  set-up: %zu batches of %d, per set-up median %.1f us (range %.1f-%.1f us)\n",
                batches_.size(), kSetupBatch, Median(batches_) * 1e6, *lo * 1e6, *hi * 1e6);
    return Median(batches_);
  }

 private:
  void Sample() {
    Clock::time_point start = Clock::now();
    for (int i = 0; i < kSetupBatch; ++i) {
      set_up_once_();
    }
    batches_.push_back(SecondsSince(start) / kSetupBatch);
    last_ = Clock::now();
  }

  std::function<void()> set_up_once_;
  std::vector<double> batches_;
  Clock::time_point last_;
};

// Execution ordinal shared by all factory spans of one pass.
std::atomic<uint64_t> g_exec_ordinal{0};

// The factory a traced pass hands the engine: the harness's own factory,
// timed, building the base part of an Instance over TimedSpec.
template <typename S, typename F>
auto TimedFactory(F factory, uint64_t root_span) {
  using T = TimedSpec<S>;
  return [factory, root_span]() {
    spans::Scope scope("refine.factory", g_exec_ordinal.fetch_add(1) + 1, root_span);
    Instance<T> inst;
    static_cast<Instance<S>&>(inst) = factory();
    return inst;
  };
}

// ------------------------------------------------------------ check-verify

// One exhaustive configuration and the counts its verdict must reproduce.
struct VerifyPin {
  const char* name;
  uint64_t executions;
  uint64_t histories;
  uint64_t spec_states;
};
constexpr VerifyPin kWalPin = {"wal-3writers-2crashes", 54277, 54277, 2709709};
constexpr VerifyPin kMailPin = {"mailboat-2deliver-1pickup-1crash", 68765, 68765, 8748893};

perennial::mailboat::MailHarnessOptions MailConfig() {
  using perennial::mailboat::MailAction;
  perennial::mailboat::MailHarnessOptions options;
  options.num_users = 1;
  options.client_scripts = {
      {{MailAction::Kind::kDeliver, 0, "a"}},
      {{MailAction::Kind::kDeliver, 0, "b"}},
      {{MailAction::Kind::kPickupDeleteAllUnlock, 0, ""}},
  };
  return options;
}

perennial::systems::WalHarnessOptions WalConfig() {
  using perennial::systems::PairSpec;
  perennial::systems::WalHarnessOptions options;
  options.client_ops = {
      {PairSpec::MakeWrite(1, 2)}, {PairSpec::MakeWrite(3, 4)}, {PairSpec::MakeWrite(5, 6)}};
  return options;
}

perennial::mailboat::MailSpec MailConfigSpec() {
  perennial::mailboat::MailSpec spec;
  spec.num_users = 1;
  return spec;
}

ExplorerOptions VerifyOptions(int max_crashes) {
  ExplorerOptions opts;
  opts.mode = ExplorerOptions::Mode::kExhaustive;
  opts.max_crashes = max_crashes;
  opts.use_por = true;
  opts.num_workers = kWorkers;
  return opts;
}

struct Verdict {
  Report report;
  double seconds = 0;
};

template <typename S, typename F>
Verdict Verify(const S& spec, F factory, const ExplorerOptions& opts, bool traced,
               const char* span_name) {
  Verdict v;
  Clock::time_point start = Clock::now();
  if (traced) {
    spans::Scope root(span_name, 0);
    v.report = ParallelExplorer<TimedSpec<S>>(TimedSpec<S>{spec},
                                              TimedFactory<S>(factory, root.id()), opts)
                   .Run();
  } else {
    v.report = ParallelExplorer<S>(spec, factory, opts).Run();
  }
  v.seconds = SecondsSince(start);
  return v;
}

// Every verdict of one pass. Untraced: WAL and Mailboat verdicts repeated
// until the run's time is used (at least one of each); the figures are
// their medians. Traced: one of each.
struct VerifyPass {
  std::vector<Verdict> wal;
  std::vector<Verdict> mail;
  double cpu_s = 0;
  double busy_s = 0;
  uint64_t executions = 0;
};

double MeanSeconds(const std::vector<Verdict>& vs) {
  double sum = 0;
  for (const Verdict& v : vs) {
    sum += v.seconds;
  }
  return vs.empty() ? 0 : sum / static_cast<double>(vs.size());
}

// `setup`, when given, times a set-up batch between verdicts.
VerifyPass RunVerifyPass(bool traced, double seconds, SetupSampler* setup) {
  auto mail_options = MailConfig();
  auto wal_options = WalConfig();
  auto mail_factory = [mail_options] { return perennial::mailboat::MakeMailInstance(mail_options); };
  auto wal_factory = [wal_options] { return perennial::systems::MakeWalInstance(wal_options); };
  auto wal = [&] {
    return Verify(perennial::systems::PairSpec{}, wal_factory, VerifyOptions(2), traced,
                  "refine.verify.wal");
  };
  auto mail = [&] {
    return Verify(MailConfigSpec(), mail_factory, VerifyOptions(1), traced,
                  "refine.verify.mailboat");
  };
  VerifyPass pass;
  double cpu0 = ProcessCpuSeconds();
  Clock::time_point start = Clock::now();
  do {
    if (setup != nullptr) {
      setup->MaybeSample();
    }
    pass.wal.push_back(wal());
    if (pass.mail.empty() || (!traced && SecondsSince(start) + MeanSeconds(pass.mail) <= seconds)) {
      pass.mail.push_back(mail());
    }
  } while (!traced && SecondsSince(start) + MeanSeconds(pass.wal) <= seconds);
  pass.cpu_s = ProcessCpuSeconds() - cpu0;
  for (const auto* list : {&pass.wal, &pass.mail}) {
    for (const Verdict& v : *list) {
      pass.busy_s += v.seconds;
      pass.executions += v.report.executions;
    }
  }
  return pass;
}

// Set-up: engine construction for both configurations and their first
// execution (the leftmost schedule), so first-use costs are included.
SetupSampler VerifySetup() {
  auto mail_options = MailConfig();
  auto wal_options = WalConfig();
  return SetupSampler([mail_options, wal_options] {
    Explorer<perennial::systems::PairSpec> wal(
        perennial::systems::PairSpec{},
        [wal_options] { return perennial::systems::MakeWalInstance(wal_options); },
        VerifyOptions(2));
    Explorer<perennial::mailboat::MailSpec> mail(
        MailConfigSpec(),
        [mail_options] { return perennial::mailboat::MakeMailInstance(mail_options); },
        VerifyOptions(1));
    wal.ReplaySchedule({});
    mail.ReplaySchedule({});
  });
}

void AuditVerdict(const char* label, const Verdict& v, const VerifyPin& pin, RunResult* out) {
  const Report& r = v.report;
  std::printf("  %-34s executions=%llu histories=%llu spec_states=%llu violations=%zu "
              "outcome=%s %.3f s\n",
              pin.name, static_cast<unsigned long long>(r.executions),
              static_cast<unsigned long long>(r.histories_checked),
              static_cast<unsigned long long>(r.spec_states_explored), r.violations.size(),
              perennial::refine::OutcomeName(r.outcome), v.seconds);
  auto check = [&](const char* what, uint64_t got, uint64_t want) {
    if (got != want) {
      out->Fail(std::string(label) + " " + pin.name + ": " + what + "=" + std::to_string(got) +
                ", pinned " + std::to_string(want));
    }
  };
  check("executions", r.executions, pin.executions);
  check("histories", r.histories_checked, pin.histories);
  check("spec_states", r.spec_states_explored, pin.spec_states);
  if (!r.violations.empty() || r.truncated ||
      r.outcome != perennial::refine::RunOutcome::kComplete) {
    out->Fail(std::string(label) + " " + pin.name + ": verdict is not a complete pass");
  }
}

std::vector<double> Seconds(const std::vector<Verdict>& vs) {
  std::vector<double> out;
  for (const Verdict& v : vs) {
    out.push_back(v.seconds);
  }
  return out;
}

void AuditPass(const char* label, const VerifyPass& p, RunResult* out) {
  for (const Verdict& v : p.wal) {
    AuditVerdict(label, v, kWalPin, out);
  }
  for (const Verdict& v : p.mail) {
    AuditVerdict(label, v, kMailPin, out);
  }
}

// Throughput is both configurations' executions over the time to both
// verdicts (the median of each), so it does not depend on how many of each
// the run fitted in.
void AddVerifyEndToEnd(const VerifyPass& p, double setup_s, RunResult* out) {
  double wal_s = Median(Seconds(p.wal));
  double mail_s = Median(Seconds(p.mail));
  out->end_to_end = {
      {"throughput", static_cast<double>(kWalPin.executions + kMailPin.executions) / (wal_s + mail_s),
       "1/s"},
      {"wait_ms", wal_s * 1e3, "ms"},
      {"wait_tail_ms", mail_s * 1e3, "ms"},
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", PeakRssMb(), "MiB"},
  };
}

// ----------------------------------------------------------- check-bugfind

using perennial::systems::DeepBugInfo;
using perennial::systems::ForEachDeepBug;

struct PairResult {
  bool ok = false;
  double find_ms = 0;
  double minimize_ms = 0;
  uint64_t pct_runs = 0;
  uint64_t replays = 0;
  uint64_t cex_len = 0;
  uint64_t steps = 0;
  uint64_t histories = 0;
  uint64_t spec_states = 0;
  std::string problem;
};

// The (bug, PCT seed) pairs of a run: bugs in rotation, a fresh PCT seed
// per round of the three, drawn from the benchmark seed.
struct BugPair {
  int bug = 0;
  uint64_t pct_seed = 1;
};

class PairStream {
 public:
  explicit PairStream(uint64_t seed) : rng_(seed * 0x9E3779B97F4A7C15ULL + 0xB5) {}
  BugPair Next() {
    if (next_bug_ == 0) {
      pct_seed_ = rng_.Next() | 1;
    }
    BugPair p{next_bug_, pct_seed_};
    next_bug_ = (next_bug_ + 1) % 3;
    return p;
  }
  bool at_round_start() const { return next_bug_ == 0; }

 private:
  perennial::Rng rng_;
  int next_bug_ = 0;
  uint64_t pct_seed_ = 1;
};

template <typename S, typename F>
PairResult FindAndMinimize(const DeepBugInfo& info, const S& spec, F factory, uint64_t pct_seed) {
  PairResult res;
  // The suite's own options and run budget. The engine runs every slice of
  // the budget (each slice stops at its own first violation), so the time
  // to the counterexample is the time a user of Run() waits for it.
  ExplorerOptions opts = perennial::systems::PctSuiteOptions(info, pct_seed);
  Clock::time_point start = Clock::now();
  Report found;
  {
    spans::Scope scope("refine.pct_find", pct_seed);
    found = Explorer<S>(spec, factory, opts).Run();
  }
  res.find_ms = SecondsSince(start) * 1e3;
  res.pct_runs = found.executions;
  res.steps = found.total_steps;
  res.histories = found.histories_checked;
  res.spec_states = found.spec_states_explored;
  if (found.violations.empty()) {
    res.problem = "no violation within " + std::to_string(opts.random_runs) + " PCT runs";
    return res;
  }
  if (found.violations[0].kind != info.kind) {
    res.problem = "found " + found.violations[0].kind + ", expected " + info.kind;
    return res;
  }
  Clock::time_point min_start = Clock::now();
  perennial::refine::MinimizeResult m;
  {
    spans::Scope scope("refine.minimize", pct_seed);
    m = perennial::refine::MinimizeSchedule(spec, factory, opts, found.violations[0]);
  }
  res.minimize_ms = SecondsSince(min_start) * 1e3;
  res.replays = m.stats.replays;
  res.cex_len = m.schedule.size();
  if (!m.reproduced || m.violation.kind != info.kind) {
    res.problem = "minimizer lost the violation";
    return res;
  }
  // The audit replay is outside the timed path.
  Report replay = Explorer<S>(spec, factory, opts).ReplaySchedule(m.schedule);
  if (replay.violations.empty() || replay.violations[0].kind != info.kind) {
    res.problem = "minimized witness does not replay to " + std::string(info.kind);
    return res;
  }
  res.ok = true;
  return res;
}

PairResult RunPair(const BugPair& pair, bool traced) {
  PairResult res;
  int index = 0;
  ForEachDeepBug([&](const DeepBugInfo& info, auto spec, auto factory) {
    if (index++ != pair.bug) {
      return;
    }
    using S = decltype(spec);
    if (traced) {
      res = FindAndMinimize(info, TimedSpec<S>{spec}, TimedFactory<S>(factory, 0), pair.pct_seed);
    } else {
      res = FindAndMinimize(info, spec, factory, pair.pct_seed);
    }
    if (!res.ok) {
      res.problem = std::string(info.slug) + " seed " + std::to_string(pair.pct_seed) + ": " +
                    res.problem;
    }
  });
  return res;
}

struct BugfindPass {
  std::vector<PairResult> results;
  double busy_s = 0;  // find + minimize time
};

BugfindPass RunBugfindPass(const std::vector<BugPair>& pairs, bool traced) {
  BugfindPass pass;
  for (const BugPair& p : pairs) {
    pass.results.push_back(RunPair(p, traced));
    const PairResult& r = pass.results.back();
    pass.busy_s += (r.find_ms + r.minimize_ms) / 1e3;
  }
  return pass;
}

SetupSampler BugfindSetup() {
  return SetupSampler([] {
    ForEachDeepBug([](const DeepBugInfo& info, auto spec, auto factory) {
      using S = decltype(spec);
      Explorer<S>(spec, factory, perennial::systems::PctSuiteOptions(info, 1)).ReplaySchedule({});
    });
  });
}

}  // namespace

namespace {
std::atomic<uint64_t> g_spec_ns{0};
}  // namespace

SpecClock::~SpecClock() { g_spec_ns.fetch_add(ns); }

SpecClock& SpecClock::Local() {
  thread_local SpecClock clock;
  return clock;
}

void ResetSpecClock() {
  g_spec_ns.store(0);
  SpecClock::Local().ns = 0;
}

uint64_t SpecTimeNs() { return g_spec_ns.load() + SpecClock::Local().ns; }

RunResult RunCheckVerify(const RunArgs& args) {
  RunResult out;
  SetupSampler setup = VerifySetup();
  std::printf("check-verify: ParallelExplorer, %d workers, POR on\n", kWorkers);
  // Warm-up: the first parallel exploration in a process pays one-off
  // costs (thread and allocator start-up) that later ones do not.
  Verdict warm = Verify(perennial::systems::PairSpec{},
                        [] { return perennial::systems::MakeWalInstance(WalConfig()); },
                        VerifyOptions(2), false, "");
  std::printf("  warm-up WAL verdict %.3f s\n", warm.seconds);
  VerifyPass pass = RunVerifyPass(false, args.seconds, &setup);
  double setup_s = setup.Seconds();
  AuditPass("untraced", pass, &out);
  out.attempted = pass.wal.size() + pass.mail.size();
  out.failed = out.correct ? 0 : out.attempted;
  AddVerifyEndToEnd(pass, setup_s, &out);
  std::printf("  verdicts: wal=%zu mailboat=%zu verify_s=%.3f (median wal + median mailboat) "
              "execs_per_s=%.0f cpu_util=%.3f\n",
              pass.wal.size(), pass.mail.size(),
              (out.Get("wait_ms") + out.Get("wait_tail_ms")) / 1e3, out.Get("throughput"),
              pass.cpu_s / (pass.busy_s * kWorkers));
  if (!args.trace) {
    return out;
  }

  spans::Reset();
  ResetSpecClock();
  g_exec_ordinal.store(0);
  spans::Enable(true);
  VerifyPass traced = RunVerifyPass(true, args.seconds, nullptr);
  spans::Enable(false);
  AuditPass("traced", traced, &out);
  std::vector<spans::Span> all = spans::Collect();
  auto by_name = ByName(all);
  const spans::NameStats& fac = by_name["refine.factory"];
  const Report& tw = traced.wal[0].report;
  const Report& tm = traced.mail[0].report;
  uint64_t execs = tw.executions + tm.executions;
  uint64_t steps = tw.total_steps + tm.total_steps;
  out.per_layer = {
      {"refine.executions", static_cast<double>(execs), "count"},
      {"refine.histories", static_cast<double>(tw.histories_checked + tm.histories_checked),
       "count"},
      {"refine.spec_states",
       static_cast<double>(tw.spec_states_explored + tm.spec_states_explored), "count"},
      {"refine.factory_us_per_exec",
       fac.count == 0 ? 0 : static_cast<double>(fac.total_ns) / 1e3 / static_cast<double>(fac.count),
       "us"},
      {"refine.spec_us_per_exec",
       static_cast<double>(SpecTimeNs()) / 1e3 / static_cast<double>(execs), "us"},
      {"refine.cpu_util", traced.cpu_s / (traced.busy_s * kWorkers), "ratio"},
      {"proc.steps_per_exec", static_cast<double>(steps) / static_cast<double>(execs), "count"},
  };
  RunResult traced_e2e;
  AddVerifyEndToEnd(traced, setup_s, &traced_e2e);
  AddTraceOverhead(out, traced_e2e, &out);
  std::string trace_path = args.work_dir + "/trace-check-verify.json";
  spans::WriteChromeTrace(trace_path, all, spans::kTraceFileSpans);
  std::printf("  trace: %zu spans (first %zu written to %s)\n", all.size(), std::min(all.size(), spans::kTraceFileSpans), trace_path.c_str());
  return out;
}

RunResult RunCheckBugfind(const RunArgs& args) {
  RunResult out;
  std::printf("check-bugfind: serial PCT d=%d, then MinimizeSchedule\n",
              perennial::systems::kPctSuiteDepth);
  SetupSampler setup = BugfindSetup();
  // Pairs are processed until the run's time is up, in whole rounds of the
  // three bugs; the traced pass then repeats exactly the same pairs.
  std::vector<BugPair> pairs;
  BugfindPass pass;
  Clock::time_point start = Clock::now();
  PairStream stream(args.seed);
  while (!stream.at_round_start() || pairs.empty() || SecondsSince(start) < args.seconds) {
    setup.MaybeSample();
    pairs.push_back(stream.Next());
    pass.results.push_back(RunPair(pairs.back(), false));
    const PairResult& r = pass.results.back();
    pass.busy_s += (r.find_ms + r.minimize_ms) / 1e3;
  }
  double setup_s = setup.Seconds();

  auto summarize = [&](const BugfindPass& p, RunResult* res, const char* label) {
    std::vector<double> cex_ms;
    uint64_t execs = 0;
    uint64_t failed = 0;
    double len_sum = 0;
    for (const PairResult& r : p.results) {
      execs += r.pct_runs + r.replays;
      if (!r.ok) {
        ++failed;
        res->Fail(std::string(label) + " " + r.problem);
        continue;
      }
      cex_ms.push_back(r.find_ms + r.minimize_ms);
      len_sum += static_cast<double>(r.cex_len);
    }
    Summary s = Summarize(cex_ms, 90);
    res->attempted = p.results.size();
    res->failed = failed;
    res->end_to_end = {
        {"throughput", static_cast<double>(execs) / p.busy_s, "1/s"},
        {"wait_ms", s.p50, "ms"},
        {"wait_tail_ms", s.tail, "ms"},
        {"setup_s", setup_s, "s"},
        {"peak_rss_mb", PeakRssMb(), "MiB"},
    };
    std::printf("  %s: pairs=%zu failed=%llu execs=%llu cex_p50_ms=%.2f cex_p90_ms=%.2f (n=%zu) "
                "cex_len_mean=%.2f execs_per_s=%.0f\n",
                label, p.results.size(), static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(execs), s.p50, s.tail, s.n,
                cex_ms.empty() ? 0 : len_sum / static_cast<double>(cex_ms.size()),
                res->Get("throughput"));
  };
  summarize(pass, &out, "untraced");
  if (!args.trace) {
    return out;
  }

  spans::Reset();
  ResetSpecClock();
  g_exec_ordinal.store(0);
  spans::Enable(true);
  double cpu0 = ProcessCpuSeconds();
  Clock::time_point traced_start = Clock::now();
  BugfindPass traced = RunBugfindPass(pairs, true);
  double cpu_util = (ProcessCpuSeconds() - cpu0) / SecondsSince(traced_start);
  spans::Enable(false);
  RunResult traced_e2e;
  summarize(traced, &traced_e2e, "traced");
  for (const std::string& f : traced_e2e.audit_failures) {
    out.Fail(f);
  }
  std::vector<spans::Span> all = spans::Collect();
  auto by_name = ByName(all);
  uint64_t pct_runs = 0;
  uint64_t untraced_pct_runs = 0;
  uint64_t replays = 0;
  uint64_t steps = 0;
  uint64_t histories = 0;
  uint64_t spec_states = 0;
  for (size_t i = 0; i < traced.results.size(); ++i) {
    const PairResult& r = traced.results[i];
    pct_runs += r.pct_runs;
    untraced_pct_runs += pass.results[i].pct_runs;
    replays += r.replays;
    steps += r.steps;
    histories += r.histories;
    spec_states += r.spec_states;
  }
  if (pct_runs != untraced_pct_runs) {
    out.Fail("traced PCT runs " + std::to_string(pct_runs) + " != untraced " +
             std::to_string(untraced_pct_runs));
  }
  double n = static_cast<double>(traced.results.size());
  double execs = static_cast<double>(pct_runs + replays);
  const spans::NameStats& fac = by_name["refine.factory"];
  out.per_layer = {
      {"refine.executions", static_cast<double>(pct_runs), "count"},
      {"refine.histories", static_cast<double>(histories), "count"},
      {"refine.spec_states", static_cast<double>(spec_states), "count"},
      {"refine.factory_us_per_exec",
       fac.count == 0 ? 0 : static_cast<double>(fac.total_ns) / 1e3 / static_cast<double>(fac.count),
       "us"},
      {"refine.spec_us_per_exec", static_cast<double>(SpecTimeNs()) / 1e3 / execs, "us"},
      {"refine.cpu_util", cpu_util, "ratio"},
      {"refine.pct_runs_per_find", static_cast<double>(pct_runs) / n, "count"},
      {"refine.find_ms_p50", Percentile(by_name["refine.pct_find"].dur_us, 50) / 1e3, "ms"},
      {"refine.minimize_replays_per_cex", static_cast<double>(replays) / n, "count"},
      {"refine.minimize_ms_p50", Percentile(by_name["refine.minimize"].dur_us, 50) / 1e3, "ms"},
      {"proc.steps_per_exec", static_cast<double>(steps) / static_cast<double>(pct_runs), "count"},
  };
  AddTraceOverhead(out, traced_e2e, &out);
  std::string trace_path = args.work_dir + "/trace-check-bugfind.json";
  spans::WriteChromeTrace(trace_path, all, spans::kTraceFileSpans);
  std::printf("  trace: %zu spans (first %zu written to %s)\n", all.size(), std::min(all.size(), spans::kTraceFileSpans), trace_path.c_str());
  return out;
}

}  // namespace perfbench
