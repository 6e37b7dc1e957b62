//===- runtime/MethodCompiler.h - Per-method tiered compile -----*- C++ -*-===//
///
/// \file
/// The repository's one per-block compile fold: one method, compiled under
/// one scheduling policy.  The service's recompilation queue retires
/// methods through it, and filter/Pipeline's compileProgram is a loop of
/// it over a program's methods in program order -- so a program compiled
/// method by method produces bit-for-bit the report of compileProgram, by
/// construction.  compileProgramAdaptive (and therefore
/// bench_adaptive_jit's table) sits on the same fold;
/// tests/adaptive_test.cpp pins it against the historical partitioned
/// pipeline.
///
//===----------------------------------------------------------------------===//

#ifndef SCHEDFILTER_RUNTIME_METHODCOMPILER_H
#define SCHEDFILTER_RUNTIME_METHODCOMPILER_H

#include "filter/Pipeline.h"
#include "mir/Method.h"
#include "ml/Labeler.h"

namespace schedfilter {

class SchedContext;

/// Compiles methods one at a time under a scheduling policy, accumulating
/// into a running CompileReport.  Holds the scheduler/simulator pair and
/// borrows a SchedContext, so retiring method after method on the same
/// compiler performs zero steady-state allocations (one compiler per
/// worker thread; contexts are not thread-safe).
class MethodCompiler {
public:
  MethodCompiler(const MachineModel &Model, SchedContext &Ctx);

  /// Compiles \p M under \p Policy, accumulating counts, work units, wall
  /// time and simulated application time into \p Report.  \p Filter must
  /// be non-null iff Policy == Filtered; its work-unit delta is charged to
  /// Report.FilterWork and Report.SchedulingWork (§3.1 charges filter
  /// evaluation to scheduling).
  ///
  /// One timer spans the method's scheduling phase -- the batch filter
  /// decision plus list scheduling of the chosen blocks; simulation runs
  /// after it, untimed.  SimulatedTime accumulates into \p Report as a
  /// flat per-block fold in block order, so calling this for a sequence
  /// of methods yields the exact report (bit-for-bit SimulatedTime
  /// included) of one fold over all their blocks.
  void compileMethod(const Method &M, SchedulingPolicy Policy,
                     ScheduleFilter *Filter, CompileReport &Report);

  /// The §2.2 instrumented-scheduler pass over one method: appends one
  /// BlockRecord per block (features, simulated cost unscheduled and
  /// list-scheduled, profile weight) to \p Records, in block order.  The
  /// same per-block recipe as the experiment engine's whole-benchmark
  /// trace, factored to method granularity so the online serving loop can
  /// trace exactly the methods its optimizing tier compiles.  A pure
  /// function of (method, model) -- safe at any parallelism when each
  /// worker appends into its own index-owned vector.
  void traceMethod(const Method &M, std::vector<BlockRecord> &Records);

private:
  ListScheduler Scheduler;
  BlockSimulator Sim;
  SchedContext &Ctx;
};

/// The profile-directed batch entry of the tiered-compilation subsystem,
/// the §3.1 hot-method-only regime: methods are ranked by total profile
/// weight, the top \p HotMethodFraction (by method count, ties toward
/// hotter) compile under \p Policy, the rest compile baseline.  Retains
/// its historical name and bit-exact behavior from filter/Pipeline.h --
/// bench_adaptive_jit's table reproduces unchanged on top of the runtime's
/// MethodCompiler (tests/adaptive_test.cpp pins the equivalence).
CompileReport compileProgramAdaptive(const Program &P,
                                     const MachineModel &Model,
                                     SchedulingPolicy Policy,
                                     ScheduleFilter *Filter,
                                     double HotMethodFraction);

/// Context-reuse variant of compileProgramAdaptive.
CompileReport compileProgramAdaptive(const Program &P,
                                     const MachineModel &Model,
                                     SchedulingPolicy Policy,
                                     ScheduleFilter *Filter,
                                     double HotMethodFraction,
                                     SchedContext &Ctx);

} // namespace schedfilter

#endif // SCHEDFILTER_RUNTIME_METHODCOMPILER_H
