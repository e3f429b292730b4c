// A timing wrapper around a checker specification, for the traced run.
//
// TimedSpec<S> forwards every specification call the linearizer makes
// (Initial, Step, CrashSteps, the key functions, and Prepare / MixState
// where S has them) and adds the time spent in Step and CrashSteps to a
// per-thread counter. Spec steps run tens of millions of times per check,
// so they are counted, not recorded as spans.
//
// The explorer is a template over the spec type, so running it over
// TimedSpec<S> needs Instance, History and OpRunner for the wrapper. The
// specializations below derive from the ones for S: a harness factory
// written for S fills the base part unchanged, and its client programs and
// recovery procedure receive the base-class pointers they expect.
#ifndef PERFBENCH_SRC_TIMED_SPEC_H_
#define PERFBENCH_SRC_TIMED_SPEC_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "src/refine/explorer.h"

namespace perfbench {

// Spec-step time, summed across threads. Each thread accumulates locally
// and folds its total into a global when it exits, so read SpecTimeNs after
// the exploring threads have been joined (it adds the calling thread's own
// total directly).
struct SpecClock {
  uint64_t ns = 0;
  ~SpecClock();
  static SpecClock& Local();
};
void ResetSpecClock();
uint64_t SpecTimeNs();

template <typename S>
struct TimedSpec {
  using State = typename S::State;
  using Op = typename S::Op;
  using Ret = typename S::Ret;

  S inner;

  State Initial() const { return inner.Initial(); }

  auto Step(const State& s, const Op& op) const {
    uint64_t t0 = NowNs();
    auto out = inner.Step(s, op);
    SpecClock::Local().ns += NowNs() - t0;
    return out;
  }

  auto CrashSteps(const State& s) const {
    uint64_t t0 = NowNs();
    auto out = inner.CrashSteps(s);
    SpecClock::Local().ns += NowNs() - t0;
    return out;
  }

  template <typename Events>
    requires requires(S& s, const Events& e) { s.Prepare(e); }
  void Prepare(const Events& events) {
    inner.Prepare(events);
  }

  template <typename Fp>
    requires requires(Fp* fp, const State& st) { S::MixState(fp, st); }
  static void MixState(Fp* fp, const State& st) {
    S::MixState(fp, st);
  }

  static std::string StateKey(const State& s) { return S::StateKey(s); }
  static std::string RetKey(const Ret& r) { return S::RetKey(r); }
  static std::string OpName(const Op& op) { return S::OpName(op); }
};

}  // namespace perfbench

namespace perennial::refine {

template <typename S>
struct History<perfbench::TimedSpec<S>> : History<S> {};

template <typename S>
struct Instance<perfbench::TimedSpec<S>> : Instance<S> {};

template <typename S>
class OpRunner<perfbench::TimedSpec<S>> : public OpRunner<S> {
 public:
  OpRunner(Instance<perfbench::TimedSpec<S>>* inst, History<perfbench::TimedSpec<S>>* history,
           int client)
      : OpRunner<S>(inst, history, client) {}
};

}  // namespace perennial::refine

#endif  // PERFBENCH_SRC_TIMED_SPEC_H_
