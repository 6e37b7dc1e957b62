//===- runtime/MethodCompiler.cpp - Per-method tiered compile ---------------===//

#include "runtime/MethodCompiler.h"

#include "sched/SchedContext.h"
#include "support/Timer.h"

#include <algorithm>
#include <cassert>

using namespace schedfilter;

MethodCompiler::MethodCompiler(const MachineModel &Model, SchedContext &Ctx)
    : Scheduler(Model), Sim(Model), Ctx(Ctx) {}

void MethodCompiler::compileMethod(const Method &M, SchedulingPolicy Policy,
                                   ScheduleFilter *Filter,
                                   CompileReport &Report) {
  assert((Policy == SchedulingPolicy::Filtered) == (Filter != nullptr) &&
         "filter must be supplied exactly for the Filtered policy");

  Report.Policy = Policy;
  uint64_t FilterWorkBefore = Filter ? Filter->workUnits() : 0;

  std::vector<const BasicBlock *> &Blocks = Ctx.blockList();
  Blocks.clear();
  for (const BasicBlock &BB : M)
    Blocks.push_back(&BB);
  Report.NumBlocks += Blocks.size();

  // Per-block order slots.  The outer arena only grows, so each inner
  // vector -- cleared per block -- keeps its heap allocation across blocks
  // and across methods compiled with the same context.
  std::vector<std::vector<int>> &Orders = Ctx.orderArena();
  if (Orders.size() < Blocks.size())
    Orders.resize(Blocks.size());
  for (size_t B = 0; B != Blocks.size(); ++B)
    Orders[B].clear();

  // Phase 1 (timed): the scheduling phase proper -- filter decisions plus
  // list scheduling of the chosen blocks.  One timer spans the whole
  // phase, like the paper's per-phase compiler timers; the filter's cost
  // is thereby charged to scheduling (§3.1).  Under the Filtered policy
  // all decisions are made up front in one batch pass (SoA feature
  // extraction + compiled predicate-matrix evaluation), which accumulates
  // exactly the per-block counters and work units -- the scheduling loop
  // then just reads the decision bytes in block order.
  AccumulatingTimer SchedTimer;
  SchedTimer.start();
  std::vector<char> &Decisions = Ctx.batchDecisions();
  if (Policy == SchedulingPolicy::Filtered)
    Filter->shouldScheduleBatch(Blocks, Ctx, Decisions);
  if (Policy != SchedulingPolicy::Never)
    for (size_t B = 0; B != Blocks.size(); ++B) {
      if (Policy == SchedulingPolicy::Filtered && !Decisions[B])
        continue;
      Report.SchedulingWork += Scheduler.schedule(*Blocks[B], Ctx, Orders[B]);
      ++Report.NumScheduled;
    }
  SchedTimer.stop();
  Report.SchedulingSeconds += SchedTimer.seconds();

  // Phase 2 (untimed): the paper's SIM(P) application-time metric, folded
  // block by block in block order.
  for (size_t B = 0; B != Blocks.size(); ++B) {
    const BasicBlock &BB = *Blocks[B];
    uint64_t Cycles = Orders[B].empty() ? Sim.simulate(BB, Ctx)
                                        : Sim.simulate(BB, Orders[B], Ctx);
    Report.SimulatedTime +=
        static_cast<double>(BB.getExecCount()) * static_cast<double>(Cycles);
  }

  if (Filter) {
    uint64_t Delta = Filter->workUnits() - FilterWorkBefore;
    Report.FilterWork += Delta;
    Report.SchedulingWork += Delta;
  }
}

void MethodCompiler::traceMethod(const Method &M,
                                 std::vector<BlockRecord> &Records) {
  // Unscheduled cost first, then schedule and re-simulate.
  std::vector<int> &Order = Ctx.orderBuffer();
  for (const BasicBlock &BB : M) {
    BlockRecord Rec;
    Rec.X = extractFeatures(BB);
    Rec.ExecCount = BB.getExecCount();
    Rec.CostNoSched = Sim.simulate(BB, Ctx);
    Scheduler.schedule(BB, Ctx, Order);
    Rec.CostSched = Sim.simulate(BB, Order, Ctx);
    Records.push_back(Rec);
  }
}

//===----------------------------------------------------------------------===//
// Profile-directed batch entry (the §3.1 hot-method-only regime).
//===----------------------------------------------------------------------===//

CompileReport schedfilter::compileProgramAdaptive(const Program &P,
                                                  const MachineModel &Model,
                                                  SchedulingPolicy Policy,
                                                  ScheduleFilter *Filter,
                                                  double HotMethodFraction) {
  assert(HotMethodFraction >= 0.0 && HotMethodFraction <= 1.0 &&
         "fraction must be in [0, 1]");

  // Rank methods by total profile weight, ties toward earlier methods.
  std::vector<std::pair<double, size_t>> Ranked;
  for (size_t MI = 0; MI != P.size(); ++MI) {
    double Weight = 0.0;
    for (const BasicBlock &BB : P[MI])
      Weight += static_cast<double>(BB.getExecCount());
    Ranked.push_back({Weight, MI});
  }
  std::sort(Ranked.begin(), Ranked.end(), [](const auto &A, const auto &B) {
    if (A.first != B.first)
      return A.first > B.first;
    return A.second < B.second;
  });
  size_t NumHot = static_cast<size_t>(
      HotMethodFraction * static_cast<double>(P.size()) + 0.5);
  std::vector<bool> IsHot(P.size(), false);
  for (size_t I = 0; I != NumHot && I != Ranked.size(); ++I)
    IsHot[Ranked[I].second] = true;

  // Hot methods compile under the policy, cold methods baseline, each
  // partition folded method by method in program order -- the exact block
  // sequence (and therefore the exact SimulatedTime fold) of compiling the
  // two partition programs, as this function historically did.
  SchedContext Ctx;
  MethodCompiler MC(Model, Ctx);
  CompileReport HotReport;
  HotReport.Policy = Policy;
  for (size_t MI = 0; MI != P.size(); ++MI)
    if (IsHot[MI])
      MC.compileMethod(P[MI], Policy, Filter, HotReport);
  CompileReport ColdReport;
  for (size_t MI = 0; MI != P.size(); ++MI)
    if (!IsHot[MI])
      MC.compileMethod(P[MI], SchedulingPolicy::Never, nullptr, ColdReport);

  CompileReport Merged;
  Merged.Policy = Policy;
  Merged.NumBlocks = HotReport.NumBlocks + ColdReport.NumBlocks;
  Merged.NumScheduled = HotReport.NumScheduled;
  Merged.SchedulingSeconds =
      HotReport.SchedulingSeconds + ColdReport.SchedulingSeconds;
  Merged.SchedulingWork = HotReport.SchedulingWork;
  Merged.FilterWork = HotReport.FilterWork;
  Merged.SimulatedTime = HotReport.SimulatedTime + ColdReport.SimulatedTime;
  return Merged;
}
