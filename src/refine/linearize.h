// The concurrent-recovery-refinement decision procedure.
//
// Given a complete history (history.h) and a specification transition
// system, this module decides whether the history is explainable by some
// interleaving of atomic spec transitions — i.e. whether this execution
// witnesses concurrent recovery refinement (§3.1, Theorem 2):
//
//  * Each completed operation linearizes between its invocation and its
//    response, with a return value the spec allows (Wing & Gong's
//    linearizability search, here over possibly-nondeterministic specs).
//  * At a crash, each still-pending operation either linearizes before the
//    spec-level crash transition (its effect is durable — possibly because
//    recovery helped it) or is discarded (it never happened).
//  * Operations recovery claims to have helped MUST linearize before the
//    crash they were pending at.
//  * The crash itself takes one atomic spec crash transition (which may be
//    nondeterministic, e.g. group commit losing buffered transactions).
//
// If any search branch drives the spec into *undefined* behavior, the
// history is accepted: the spec imposes no obligations past UB (§8.3) —
// the workloads used by the explorer are designed to stay within defined
// behavior, so this arises only when deliberately testing UB exploitation.
//
// The search runs as a LAYERED BREADTH-FIRST pass: it maintains, per
// history prefix, the frontier of reachable spec configurations (state,
// chosen-but-unreturned responses, commit records), closed under "some
// pending op linearizes now". A history is accepted iff the frontier after
// the last event is non-empty (or UB was reached). Two properties make the
// frontier a pure function of the PREFIX, which is what lets it be
// memoized across histories (memo.h) and shared across explorer workers:
//
//  * Every obligation is checked at the event that imposes it. In
//    particular the helped-op obligation is enforced at the kHelped event
//    (the op must appear in the commit snapshot taken at the most recent
//    crash), not at the crash — the crash event cannot know which ops a
//    later recovery will claim.
//  * Configurations carry only prefix-determined data: the commit set is
//    EVERY op id ever linearized (not just the ids some future recovery
//    will help), plus the snapshot of that set at the last crash.
//
// This is equivalent to the DFS formulation: an op helped after crash C
// must have linearized while still pending, and crashes clear the pending
// set, so "linearized before C" and "present in C's commit snapshot"
// coincide.
//
// Spec requirements (a "SpecModel"):
//   using State, Op, Ret;                     // Ret: equality-comparable
//   State Initial() const;
//   tsys::Outcome<State, Ret> Step(const State&, const Op&) const;
//   std::vector<State> CrashSteps(const State&) const;
//   static std::string StateKey(const State&); // canonical, injective
//   static std::string RetKey(const Ret&);     // canonical, injective
//   static std::string OpName(const Op&);      // for messages
//
// Specs with an optional `Prepare(events)` hook (data-dependent
// nondeterminism, e.g. Mailboat's message-id pool) read the WHOLE history
// before stepping, so their frontiers are a function of (prefix, prepared
// spec data) rather than of the prefix alone. The prefix cache is bypassed
// for them. The cross-history spine below is reused only when the spec
// that Prepare produced compares equal to the one the spine was built
// under; a Prepare spec without operator== never resumes.
//
// HOT PATH (PR 4): the checker owns a per-search ARENA that is reset, not
// freed, between histories. Frontiers live in a spine_ vector where
// spine_[i] is the closed frontier after events[0..i); deriving a frontier
// clears and refills the next slot in place, configs are deduplicated by
// 128-bit fingerprints (seen_, a retained hash set) instead of serialized
// string keys, and shared_ptr frontiers are materialized ONLY on the
// memo-cache insert path. Check(history, reuse_events) additionally lets
// the caller resume from a retained spine prefix: the explorer's DFS
// odometer knows how many leading events the new history shares with the
// previous one, so consecutive executions skip re-deriving the common
// prefix entirely (no memo cache required). spine_states_[i] retains the
// cumulative states_explored count a from-scratch run would have at slot i,
// so resuming reports bit-identical spec_states_explored — which is what
// keeps serial and parallel reports equal even though workers resume from
// different depths.
#ifndef PERENNIAL_SRC_REFINE_LINEARIZE_H_
#define PERENNIAL_SRC_REFINE_LINEARIZE_H_

#include <concepts>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/base/hash.h"
#include "src/refine/history.h"
#include "src/refine/memo.h"
#include "src/tsys/transition.h"

namespace perennial::refine {

// The spec-side configurations reachable after one history prefix, closed
// under linearization moves. `undefined` is sticky: some reachable config
// stepped into spec UB, which accepts every history with this prefix.
template <typename Spec>
struct SpecFrontier {
  using State = typename Spec::State;
  using Op = typename Spec::Op;
  using Ret = typename Spec::Ret;

  struct Config {
    State state;
    // Invoked, not yet linearized (op_id -> op).
    std::map<uint64_t, Op> pending;
    // Linearized with a chosen return value, awaiting the response.
    std::map<uint64_t, Ret> linearized;
    // Every op id that ever linearized. Never reset (commit records model
    // durable facts); pending is derivable from (prefix, committed), so
    // this also determines the pending set.
    std::set<uint64_t> committed;
    // Snapshot of `committed` taken at the most recent crash event; the
    // kHelped obligation is checked against it.
    std::set<uint64_t> committed_at_crash;
  };

  bool undefined = false;
  std::vector<Config> configs;
};

template <typename Spec>
class LinearizabilityChecker {
 public:
  using State = typename Spec::State;
  using Op = typename Spec::Op;
  using Ret = typename Spec::Ret;
  using Hist = History<Spec>;
  using Frontier = SpecFrontier<Spec>;
  using FrontierPtr = std::shared_ptr<const Frontier>;
  using FrontierCache = ShardedMemo<FrontierPtr>;

  explicit LinearizabilityChecker(const Spec* spec)
      : spec_storage_(*spec), spec_(&spec_storage_), spine_spec_(*spec) {}

  // Optional prefix-frontier memoization (ExplorerOptions::
  // memoize_spec_prefixes); the cache may be shared across checkers and
  // threads. Ignored for specs with a Prepare() hook, whose frontiers also
  // depend on the prepared data — see header comment.
  void set_frontier_cache(FrontierCache* cache) { cache_ = cache; }

  // nullopt when the history refines the spec; otherwise a description of
  // why no spec interleaving explains it.
  //
  // `reuse_events`: the caller guarantees that the first `reuse_events`
  // events of `history` are identical to the first `reuse_events` events of
  // the history passed to the PREVIOUS Check call on this checker (0 = no
  // guarantee). The search then resumes from the deepest retained spine
  // frontier at or below that depth. The reported states_explored is
  // unaffected by where the search resumed (see the header comment), so
  // callers may pass any sound value without perturbing reports.
  std::optional<std::string> Check(const Hist& history, size_t reuse_events = 0) {
    const std::vector<typename Hist::Event>& events = history.events;
    states_explored_ = 0;
    bool cacheable = cache_ != nullptr;
    bool resumable = true;
    // Specs with data-dependent nondeterminism (e.g. Mailboat's random
    // message ids) pre-scan the history to bound their branch sets — their
    // frontiers depend on the prepared data as well as the prefix, so they
    // never touch the cache, and they resume from the spine only if the
    // prepared spec equals the one the spine was built under.
    if constexpr (requires(Spec& s) { s.Prepare(events); }) {
      spec_storage_.Prepare(events);
      cacheable = false;
      if constexpr (std::equality_comparable<Spec>) {
        resumable = spec_storage_ == spine_spec_;
      } else {
        resumable = false;
      }
    }
    // A helped event needs a crash to snapshot against; recovery only
    // emits kHelped after a crash, so this is a harness-integrity check.
    bool seen_crash = false;
    for (const auto& e : events) {
      if (e.kind == Hist::Kind::kCrash) {
        seen_crash = true;
      } else if (e.kind == Hist::Kind::kHelped && !seen_crash) {
        return "helped event with no preceding crash";
      }
    }

    // Prefix fingerprints: fp_[i] covers events[0..i).
    if (cacheable) {
      fp_.clear();
      fp_.reserve(events.size() + 1);
      Fnv128 f;
      fp_.push_back(f.digest());
      for (const auto& e : events) {
        MixEvent<Spec>(&f, e);
        fp_.push_back(f.digest());
      }
    }

    // Pick the resume point: the deepest spine frontier within the BOTH
    // shared AND contiguously-valid prefix (spine_ok_ — a memo-cache hit
    // can leave a hole of stale slots below it, see below), or slot 0
    // (built on first use; rebuilt for a Prepare spec whenever its
    // prepared data changed, since Initial may observe it).
    size_t resume = 0;
    if (resumable && spine_ok_ > 0) {
      resume = std::min(std::min(reuse_events, spine_ok_ - 1), events.size());
    } else {
      EnsureSlot(0);
      BuildInitial(&spine_[0]);
      spine_states_[0] = 0;
      spine_ok_ = 1;
      spine_spec_ = spec_storage_;
    }
    const size_t pre_hit_resume = resume;
    // A cached prefix deeper than the spine wins. The hit is used BY
    // POINTER (never copied into the spine — gc-sized frontiers make that
    // copy the dominant cost); the slot it logically occupies stays stale,
    // which the spine_ok_ update below accounts for. Cache-resumed work is
    // not re-counted (the documented memoize_spec_prefixes semantics), so
    // the cumulative counts restart at zero there.
    FrontierPtr hit;
    size_t hit_at = static_cast<size_t>(-1);
    if (cacheable) {
      for (size_t i = events.size() + 1; i-- > resume + 1;) {
        if (cache_->Lookup(fp_[i], &hit)) {
          hit_at = i;
          resume = i;
          break;
        }
      }
      if (!cache_->Contains(fp_[0])) {
        cache_->Insert(fp_[0], std::make_shared<Frontier>(spine_[0]),
                       FrontierEntryBytes(spine_[0]));
      }
    }

    last_resume_ = resume;
    states_explored_ = hit_at == static_cast<size_t>(-1) ? spine_states_[resume] : 0;
    size_t idx = resume;
    while (idx < events.size()) {
      // Resize BEFORE binding cur: EnsureSlot may reallocate the spine.
      EnsureSlot(idx + 1);
      const Frontier& cur = idx == hit_at ? *hit : spine_[idx];
      if (cur.undefined) {
        break;  // spec UB: no further obligations
      }
      if (cur.configs.empty()) {
        break;  // already inexplicable; later events cannot help
      }
      DeriveNext(cur, events[idx], &spine_[idx + 1]);
      spine_states_[idx + 1] = states_explored_;
      ++idx;
      if (cacheable && !cache_->Contains(fp_[idx])) {
        cache_->Insert(fp_[idx], std::make_shared<Frontier>(spine_[idx]),
                       FrontierEntryBytes(spine_[idx]));
      }
    }
    // The next Check may only resume from slots that hold THIS history's
    // frontiers contiguously from slot 0. A cache hit deeper than the
    // resume point leaves slots (pre_hit_resume, resume] stale (the hit
    // itself was never written into the spine), so contiguous validity
    // stops at the pre-hit resume point.
    spine_ok_ = hit_at == static_cast<size_t>(-1) ? idx + 1 : pre_hit_resume + 1;
    const Frontier& fin = idx == hit_at ? *hit : spine_[idx];
    if (fin.undefined || !fin.configs.empty()) {
      // Leftover pending ops simply never happened; every response (and
      // every helped-op obligation) was explained.
      return std::nullopt;
    }
    return "no spec interleaving explains this history:\n" + history.ToString();
  }

  uint64_t states_explored() const { return states_explored_; }

  // Arena introspection for the reset-between-histories regression test:
  // retained capacity must plateau across same-shaped histories.
  struct ArenaStats {
    size_t spine_slots = 0;       // frontier slots ever materialized
    size_t config_capacity = 0;   // sum of per-slot config vector capacities
    size_t seen_buckets = 0;      // dedup hash-set bucket count
    size_t last_resume = 0;       // event the last Check resumed at (0 = from scratch)
  };
  ArenaStats arena_stats() const {
    ArenaStats s;
    s.spine_slots = spine_.size();
    for (const Frontier& f : spine_) {
      s.config_capacity += f.configs.capacity();
    }
    s.seen_buckets = seen_.bucket_count();
    s.last_resume = last_resume_;
    return s;
  }

  // Approximate bytes retained by the arena between histories — the
  // explorer's memory-budget input (ExplorerOptions::max_memory_bytes).
  // Deliberately an ACCOUNTING estimate, not RSS: capacities times element
  // sizes, so the number is a deterministic function of the exploration
  // path and a resumed run observes the same budget pressure as an
  // uninterrupted one. Config's nested maps/sets are folded in as a flat
  // per-config constant; the explorer polls this at execution granularity,
  // so a per-element walk would dominate small specs.
  size_t approx_retained_bytes() const {
    size_t b = spine_.capacity() * sizeof(Frontier);
    for (const Frontier& f : spine_) {
      b += f.configs.capacity() * (sizeof(Config) + 64);
    }
    b += spine_states_.capacity() * sizeof(uint64_t);
    b += seen_.bucket_count() * (sizeof(Hash128) + sizeof(void*));
    b += fp_.capacity() * sizeof(Hash128);
    return b;
  }

 private:
  using Config = typename Frontier::Config;

  // Byte estimate for one cached frontier — deterministic in the frontier's
  // CONTENT (config count, never vector capacity) so insert-time accounting
  // replays identically across interrupted and uninterrupted runs.
  static size_t FrontierEntryBytes(const Frontier& f) {
    return sizeof(Hash128) + sizeof(FrontierPtr) + sizeof(Frontier) + 48 +
           f.configs.size() * (sizeof(Config) + 64);
  }

  struct Hash128Hasher {
    size_t operator()(const Hash128& h) const { return static_cast<size_t>(h.lo); }
  };

  void EnsureSlot(size_t i) {
    if (spine_.size() <= i) {
      spine_.resize(i + 1);
    }
    if (spine_states_.size() <= i) {
      spine_states_.resize(i + 1, 0);
    }
  }

  // 128-bit config fingerprint for frontier dedup (replaces the serialized
  // string key: no per-config heap allocation beyond the Key renderings).
  // pending is omitted: it equals (ops invoked since the last crash) minus
  // committed, both of which the fingerprint already determines. Collisions
  // would merge two distinct configs; at 128 bits that is as improbable as
  // the history-fingerprint collisions the dedup layer already accepts.
  static Hash128 ConfigFp(const Config& c) {
    Fnv128 f;
    if constexpr (requires(Fnv128* fp, const State& s) { Spec::MixState(fp, s); }) {
      Spec::MixState(&f, c.state);
    } else {
      f.MixString(Spec::StateKey(c.state));
    }
    f.MixU64(c.linearized.size());
    for (const auto& [id, ret] : c.linearized) {
      f.MixU64(id);
      f.MixString(Spec::RetKey(ret));
    }
    f.MixU64(c.committed.size());
    for (uint64_t id : c.committed) {
      f.MixU64(id);
    }
    f.MixU64(c.committed_at_crash.size());
    for (uint64_t id : c.committed_at_crash) {
      f.MixU64(id);
    }
    return f.digest();
  }

  // The initial frontier: the spec's initial state, trivially closed (no
  // pending ops exist before the first event, so closure is a no-op).
  void BuildInitial(Frontier* out) {
    out->undefined = false;
    out->configs.clear();
    Config init;
    init.state = spec_->Initial();
    out->configs.push_back(std::move(init));
  }

  // Consumes one event — maps each config of `in` to its successors
  // (possibly none: a config that cannot explain the event drops out) —
  // then closes the result under "one pending op linearizes now": any
  // pending op may take effect at any moment between its invocation and its
  // response/crash. Sets out->undefined (and stops) if a step leaves the
  // spec's defined domain. `out` is reused storage: cleared, not freed.
  // One seen_ set spans both phases, which matches the old two-set scheme
  // exactly (the closure seeded its set with every event-phase config).
  void DeriveNext(const Frontier& in, const typename Hist::Event& e, Frontier* out) {
    out->undefined = false;
    out->configs.clear();
    seen_.clear();
    auto emit = [&](Config&& c) {
      if (seen_.insert(ConfigFp(c)).second) {
        ++states_explored_;
        out->configs.push_back(std::move(c));
      }
    };
    for (const Config& c : in.configs) {
      switch (e.kind) {
        case Hist::Kind::kInvoke: {
          Config c2 = c;
          c2.pending.emplace(e.op_id, e.op);
          emit(std::move(c2));
          break;
        }
        case Hist::Kind::kReturn: {
          auto it = c.linearized.find(e.op_id);
          if (it != c.linearized.end() && it->second == e.ret) {
            Config c2 = c;
            c2.linearized.erase(e.op_id);
            emit(std::move(c2));
          }
          // Not linearized, or a mismatched chosen return: dead branch.
          break;
        }
        case Hist::Kind::kHelped: {
          // Recovery committed this op on a crashed thread's behalf, which
          // is only sound if the op's effect was durable at the crash —
          // i.e. it linearized before the snapshot taken there.
          if (c.committed_at_crash.count(e.op_id) > 0) {
            emit(Config(c));
          }
          break;
        }
        case Hist::Kind::kCrash: {
          // The crash discards every pending op and every unreturned
          // response; the spec takes one (possibly nondeterministic) crash
          // transition; commit records survive and are snapshotted.
          for (const State& next : spec_->CrashSteps(c.state)) {
            Config c2;
            c2.state = next;
            c2.committed = c.committed;
            c2.committed_at_crash = c.committed;
            emit(std::move(c2));
          }
          break;
        }
      }
    }
    // out->configs doubles as the BFS queue: new configs are appended and
    // scanned in turn (indices stay valid; the vector may reallocate).
    for (size_t i = 0; i < out->configs.size(); ++i) {
      // Copy: Step may append to configs, invalidating references.
      const Config c = out->configs[i];
      for (const auto& [id, op] : c.pending) {
        tsys::Outcome<State, Ret> res = spec_->Step(c.state, op);
        if (res.undefined) {
          out->undefined = true;
          return;
        }
        for (const auto& [next_state, ret] : res.branches) {
          Config c2 = c;
          c2.state = next_state;
          c2.pending.erase(id);
          c2.linearized.emplace(id, ret);
          c2.committed.insert(id);
          emit(std::move(c2));
        }
      }
    }
  }

  Spec spec_storage_;
  const Spec* spec_;
  FrontierCache* cache_ = nullptr;
  uint64_t states_explored_ = 0;
  // --- Per-search arena: reset between histories, never freed ---
  std::vector<Frontier> spine_;          // spine_[i]: frontier after events[0..i)
  std::vector<uint64_t> spine_states_;   // cumulative states count at spine_[i]
  // Slots [0, spine_ok_) hold the LAST-CHECKED history's frontiers with no
  // stale holes; only these are eligible resume points for the next Check.
  size_t spine_ok_ = 0;
  // The (prepared) spec the spine's frontiers were built under. A Prepare
  // spec may resume from the spine only for a history that prepares an
  // equal one.
  Spec spine_spec_;
  size_t last_resume_ = 0;               // see ArenaStats::last_resume
  std::unordered_set<Hash128, Hash128Hasher> seen_;  // per-event config dedup
  std::vector<Hash128> fp_;              // prefix fingerprints (cacheable runs)
};

}  // namespace perennial::refine

#endif  // PERENNIAL_SRC_REFINE_LINEARIZE_H_
