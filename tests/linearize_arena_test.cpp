// Arena regression tests for the linearizability checker (PR 4's
// allocation-lean hot path): a single LinearizabilityChecker instance is
// fed many histories and must (a) give exactly the verdict a fresh checker
// gives — the arena reset leaks no state between searches — and (b) stop
// growing: retained capacity (spine slots, config storage, dedup buckets)
// plateaus once the checker has seen the largest history shape. Running
// this binary under ASan (-DPCC_SANITIZE=address) additionally checks that
// spine reuse never touches freed or stale frontier storage.
#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/mailboat/mail_spec.h"
#include "src/refine/history.h"
#include "src/refine/linearize.h"
#include "src/tsys/transition.h"

namespace perennial::refine {
namespace {

// The register spec from refine_test.cpp: write(v) / read() -> v, durable
// across crashes.
struct RegSpec {
  struct State {
    uint64_t v = 0;
    friend bool operator==(const State&, const State&) = default;
  };
  struct Op {
    bool is_write = false;
    uint64_t arg = 0;
  };
  using Ret = uint64_t;

  State Initial() const { return {}; }

  tsys::Outcome<State, Ret> Step(const State& s, const Op& op) const {
    if (op.is_write) {
      return tsys::Outcome<State, Ret>::One(State{op.arg}, 0);
    }
    return tsys::Outcome<State, Ret>::One(s, s.v);
  }

  std::vector<State> CrashSteps(const State& s) const { return {s}; }

  static std::string StateKey(const State& s) { return std::to_string(s.v); }
  static std::string RetKey(const Ret& r) { return std::to_string(r); }
  static std::string OpName(const Op& op) {
    return op.is_write ? "write(" + std::to_string(op.arg) + ")" : "read()";
  }
};

RegSpec::Op Write(uint64_t v) { return RegSpec::Op{true, v}; }
RegSpec::Op Read() { return RegSpec::Op{false, 0}; }

using Hist = History<RegSpec>;

// Deterministic history generator: the SHAPE (event structure, hence
// frontier sizes) cycles with period 8 so every retained capacity is
// reached within the first few iterations; the VALUES vary freely — they
// change fingerprints but not allocation footprints.
Hist MakeHistory(uint64_t i) {
  uint64_t v1 = 1 + (i * 2654435761u) % 97;
  uint64_t v2 = 1 + (i * 40503u) % 89;
  Hist h;
  switch (i % 8) {
    case 0: {  // sequential write/read
      uint64_t w = h.Invoke(0, Write(v1));
      h.Return(w, 0);
      uint64_t r = h.Invoke(0, Read());
      h.Return(r, v1);
      break;
    }
    case 1: {  // two overlapping writers + racing reader
      uint64_t w1 = h.Invoke(0, Write(v1));
      uint64_t w2 = h.Invoke(1, Write(v2));
      uint64_t r = h.Invoke(2, Read());
      h.Return(w1, 0);
      h.Return(w2, 0);
      h.Return(r, v1);  // reader may see the first writer
      break;
    }
    case 2: {  // crash with a pending write that never happened
      uint64_t w = h.Invoke(0, Write(v1));
      (void)w;
      h.Crash();
      uint64_t r = h.Invoke(0, Read());
      h.Return(r, 0);  // the pending write may be discarded
      break;
    }
    case 3: {  // helped op: write linearized before the crash
      uint64_t w = h.Invoke(0, Write(v1));
      h.Crash();
      h.Helped(w);
      uint64_t r = h.Invoke(0, Read());
      h.Return(r, v1);
      break;
    }
    case 4: {  // NON-linearizable: read sees a value nobody wrote
      uint64_t w = h.Invoke(0, Write(v1));
      h.Return(w, 0);
      uint64_t r = h.Invoke(0, Read());
      h.Return(r, v1 + 100);
      break;
    }
    case 5: {  // three concurrent writers, reader pinned to the last
      uint64_t w1 = h.Invoke(0, Write(v1));
      uint64_t w2 = h.Invoke(1, Write(v2));
      uint64_t w3 = h.Invoke(2, Write(v1 + v2));
      h.Return(w1, 0);
      h.Return(w2, 0);
      h.Return(w3, 0);
      uint64_t r = h.Invoke(0, Read());
      h.Return(r, v1 + v2);  // some order ends with w3
      break;
    }
    case 6: {  // two crashes, durable register
      uint64_t w = h.Invoke(0, Write(v1));
      h.Return(w, 0);
      h.Crash();
      h.Crash();
      uint64_t r = h.Invoke(0, Read());
      h.Return(r, v1);
      break;
    }
    default: {  // NON-linearizable: helped op that was still pending
      uint64_t w = h.Invoke(0, Write(v1));
      (void)w;
      h.Crash();
      uint64_t r = h.Invoke(0, Read());
      h.Return(r, 0);
      h.Helped(w);  // but the read-0 already forced "never happened"
      break;
    }
  }
  return h;
}

TEST(LinearizeArena, VerdictsMatchFreshCheckerAcross1kHistories) {
  RegSpec spec;
  LinearizabilityChecker<RegSpec> reused(&spec);
  for (uint64_t i = 0; i < 1000; ++i) {
    Hist h = MakeHistory(i);
    LinearizabilityChecker<RegSpec> fresh(&spec);
    auto expect = fresh.Check(h);
    auto got = reused.Check(h);
    ASSERT_EQ(got.has_value(), expect.has_value()) << "history " << i;
    // The per-history search work must also be independent of arena reuse:
    // states_explored feeds bit-identical explorer reports.
    ASSERT_EQ(reused.states_explored(), fresh.states_explored()) << "history " << i;
  }
}

TEST(LinearizeArena, RetainedCapacityPlateaus) {
  RegSpec spec;
  LinearizabilityChecker<RegSpec> checker(&spec);
  for (uint64_t i = 0; i < 100; ++i) {
    (void)checker.Check(MakeHistory(i));
  }
  const auto warm = checker.arena_stats();
  EXPECT_GT(warm.spine_slots, 0u);
  for (uint64_t i = 100; i < 1000; ++i) {
    (void)checker.Check(MakeHistory(i));
  }
  const auto cold = checker.arena_stats();
  EXPECT_EQ(cold.spine_slots, warm.spine_slots);
  EXPECT_EQ(cold.config_capacity, warm.config_capacity);
  EXPECT_EQ(cold.seen_buckets, warm.seen_buckets);
}

TEST(LinearizeArena, SpineResumeMatchesFreshChecker) {
  // Check(history, reuse_events): resuming from a retained spine prefix
  // must change neither the verdict nor the reported search-state count.
  RegSpec spec;
  LinearizabilityChecker<RegSpec> reused(&spec);

  Hist base;
  uint64_t w1 = base.Invoke(0, Write(3));
  uint64_t w2 = base.Invoke(1, Write(7));
  base.Return(w1, 0);
  base.Return(w2, 0);
  uint64_t r = base.Invoke(0, Read());
  base.Return(r, 7);
  ASSERT_EQ(reused.Check(base), std::nullopt);

  // Variants diverging after each shared prefix length, including verdict
  // flips (the resumed suffix must still reject).
  for (size_t k = 0; k <= base.events.size(); ++k) {
    for (uint64_t tail : {uint64_t{3}, uint64_t{7}, uint64_t{99}}) {
      Hist variant;
      variant.events.assign(base.events.begin(), base.events.begin() + k);
      variant.next_op_id = base.next_op_id;
      uint64_t rv = variant.Invoke(2, Read());
      variant.Return(rv, tail);
      LinearizabilityChecker<RegSpec> fresh(&spec);
      auto expect = fresh.Check(variant);
      auto got = reused.Check(variant, /*reuse_events=*/k);
      ASSERT_EQ(got.has_value(), expect.has_value()) << "k=" << k << " tail=" << tail;
      ASSERT_EQ(reused.states_explored(), fresh.states_explored())
          << "k=" << k << " tail=" << tail;
      // Re-establish the contract for the next loop iteration: the next
      // variant shares only the base prefix with THIS one.
      ASSERT_EQ(reused.Check(base).has_value(), false);
    }
  }
}

// Mailboat histories: two deliveries returning ids x and y, a pickup
// listing `msgs`, then either an unlock or a crash and a second pickup.
using mailboat::MailSpec;
using MailHist = History<MailSpec>;
using Msgs = std::vector<std::pair<std::string, std::string>>;

MailHist MakeMailHistory(const std::string& x, const std::string& y, const Msgs& msgs,
                         bool crash) {
  MailHist h;
  uint64_t d1 = h.Invoke(0, MailSpec::MakeDeliver(0, "a"));
  uint64_t d2 = h.Invoke(1, MailSpec::MakeDeliver(0, "b"));
  h.Return(d1, MailSpec::Ret{x, {}});
  h.Return(d2, MailSpec::Ret{y, {}});
  uint64_t p = h.Invoke(2, MailSpec::MakePickup(0));
  h.Return(p, MailSpec::Ret{"", msgs});
  if (crash) {
    h.Crash();
    uint64_t p2 = h.Invoke(2, MailSpec::MakePickup(0));
    h.Return(p2, MailSpec::Ret{"", msgs});
  } else {
    uint64_t u = h.Invoke(2, MailSpec::MakeUnlock(0));
    h.Return(u, MailSpec::Ret{});
  }
  return h;
}

bool SameEvent(const MailHist::Event& a, const MailHist::Event& b) {
  return a.kind == b.kind && a.op_id == b.op_id && a.client == b.client &&
         a.op.kind == b.op.kind && a.op.user == b.op.user && a.op.arg == b.op.arg &&
         a.ret == b.ret;
}

TEST(LinearizeArena, PreparedSpecResumeMatchesFreshChecker) {
  // MailSpec's Prepare derives an id pool from the whole history, so a
  // retained spine is reusable only for a history whose pool is equal.
  // Consecutive histories below share prefixes; some prepare the pool of
  // their predecessor, others add an id first observed after the shared
  // prefix (the pickup's m3), which must force a from-scratch search.
  const MailSpec spec{1};
  LinearizabilityChecker<MailSpec> reused(&spec);
  const std::vector<Msgs> pickups = {
      {},
      {{"m1", "a"}},
      {{"m1", "a"}, {"m2", "b"}},
      {{"m1", "a"}, {"m3", "b"}},
      {{"m2", "b"}},
      {{"m1", "b"}, {"m2", "a"}},
  };
  MailHist prev;
  MailSpec prev_prepared = spec;
  int resumed = 0;
  int rebuilt_after_shared_deliveries = 0;
  int accepted = 0;
  int rejected = 0;
  for (const char* x : {"m1", "m2", "m3"}) {
    for (const char* y : {"m1", "m2", "m3"}) {
      for (const Msgs& msgs : pickups) {
        for (bool crash : {false, true}) {
          MailHist h = MakeMailHistory(x, y, msgs, crash);
          size_t shared = 0;
          while (shared < std::min(h.events.size(), prev.events.size()) &&
                 SameEvent(h.events[shared], prev.events[shared])) {
            ++shared;
          }
          MailSpec prepared = spec;
          prepared.Prepare(h.events);
          const std::string where = std::string(x) + "/" + y + "/" +
                                    std::to_string(msgs.size()) + (crash ? "/crash" : "");

          LinearizabilityChecker<MailSpec> fresh(&spec);
          auto expect = fresh.Check(h);
          auto got = reused.Check(h, shared);
          ASSERT_EQ(got.has_value(), expect.has_value()) << where;
          ASSERT_EQ(reused.states_explored(), fresh.states_explored()) << where;
          (expect.has_value() ? rejected : accepted) += 1;

          const size_t resumed_at = reused.arena_stats().last_resume;
          if (prepared == prev_prepared && shared > 0) {
            EXPECT_GT(resumed_at, 0u) << where;
            EXPECT_LE(resumed_at, shared) << where;
            ++resumed;
          } else {
            EXPECT_EQ(resumed_at, 0u) << where;
            // Both deliveries returned (4 events) inside the shared prefix.
            rebuilt_after_shared_deliveries += shared >= 4 ? 1 : 0;
          }
          prev = std::move(h);
          prev_prepared = std::move(prepared);
        }
      }
    }
  }
  // The sequence exercises every branch: accepted and rejected verdicts,
  // equal-pool resumes, and pools that differ past the shared prefix.
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
  EXPECT_GT(resumed, 20);
  EXPECT_GT(rebuilt_after_shared_deliveries, 5);
}

}  // namespace
}  // namespace perennial::refine
