// Bridge from FaultPlan to the explorer: one refine::EnvEvent per fault
// class with a non-zero budget, so every armable fault shows up as an
// AltKind::kEnv alternative at every decision point. The event's budget is
// the plan's budget, enforced by the explorer's per-execution env_budget —
// the same machinery that bounds fail-stop disk failures, which is what
// makes serial DFS, ParallelExplorer prefix partitioning, and PCT sampling
// (env_probability) all cover fault placements without new code.
#ifndef PERENNIAL_SRC_FAULT_FAULT_EVENTS_H_
#define PERENNIAL_SRC_FAULT_FAULT_EVENTS_H_

#include <string>
#include <vector>

#include "src/fault/fault.h"
#include "src/refine/explorer.h"

namespace perennial::fault {

inline std::vector<refine::EnvEvent> MakeFaultEvents(const FaultPlan& plan,
                                                     FaultSchedule* schedule) {
  std::vector<refine::EnvEvent> events;
  const std::string target_suffix =
      plan.target == FaultPlan::kAnyDisk ? "" : "@d" + std::to_string(plan.target);
  auto add = [&](FaultKind kind, int budget) {
    if (budget <= 0) {
      return;
    }
    events.push_back(refine::EnvEvent{
        "fault:" + std::string(FaultKindName(kind)) + target_suffix, budget,
        [schedule, kind, target = plan.target] { schedule->Arm(kind, target); }});
  };
  add(FaultKind::kTransientRead, plan.transient_reads);
  add(FaultKind::kTransientWrite, plan.transient_writes);
  add(FaultKind::kTornWrite, plan.torn_writes);
  add(FaultKind::kFailSlow, plan.fail_slow);
  add(FaultKind::kUnsyncedTail, plan.unsynced_tail);
  return events;
}

// Appends the plan's events to an instance's env_events (the common harness
// call site).
template <typename Instance>
void AddFaultEvents(const FaultPlan& plan, FaultSchedule* schedule, Instance* inst) {
  for (refine::EnvEvent& e : MakeFaultEvents(plan, schedule)) {
    inst->env_events.push_back(std::move(e));
  }
}

}  // namespace perennial::fault

#endif  // PERENNIAL_SRC_FAULT_FAULT_EVENTS_H_
