//===- target/MachineModel.h - Target machine timing models ----*- C++ -*-===//
///
/// \file
/// Describes the target machine the scheduler and block simulator price
/// code against: the functional-unit inventory, per-opcode latency and
/// pipelining tables, and the per-cycle issue rules.
///
/// The paper's experiments target the PowerPC MPC7410 (G4): two dissimilar
/// integer units (simple ALU ops run on either, mul/div only on the
/// second), one floating-point unit, one load/store unit, one branch unit
/// and one system unit, issuing at most two non-branch instructions plus
/// one branch per cycle, with latencies from one cycle (simple ALU) to
/// many tens of cycles (divides and square roots, which also block their
/// unit because they are not pipelined).  Two more models ride along for
/// the transfer experiments: a PowerPC 970 (G5) -- wider and deeper --
/// and a single-issue "simple-scalar" baseline with one universal unit.
///
//===----------------------------------------------------------------------===//

#ifndef SCHEDFILTER_TARGET_MACHINEMODEL_H
#define SCHEDFILTER_TARGET_MACHINEMODEL_H

#include "mir/Opcode.h"

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace schedfilter {

/// Bit for \p C in a functional unit's accept mask.
constexpr uint16_t fuClassBit(FuClass C) {
  return static_cast<uint16_t>(1u << static_cast<unsigned>(C));
}

/// Latency entry for one opcode: cycles plus whether the unit is
/// pipelined for it.  Defined in MachineModel.cpp alongside the tables.
struct LatSpec;

/// One functional-unit instance (e.g. the second integer unit "IU2").
struct FunctionalUnit {
  std::string Name;
  /// Which FuClasses this unit executes, as an OR of fuClassBit().
  uint16_t AcceptMask = 0;

  bool accepts(FuClass C) const { return (AcceptMask & fuClassBit(C)) != 0; }
};

/// A target machine: unit inventory, latency/pipelining tables and issue
/// rules.  Value type; copying is cheap enough for tests that tweak one
/// model against another.
class MachineModel {
public:
  /// PowerPC MPC7410 (G4), the paper's experimental target.
  static MachineModel ppc7410();
  /// PowerPC 970 (G5): wider issue, more units, deeper pipelines.
  static MachineModel ppc970();
  /// Single-issue baseline: one universal unit, G4 latencies.
  static MachineModel simpleScalar();

  /// Looks up a factory model by its getName() string ("ppc7410",
  /// "ppc970", "simple-scalar"); nullopt for anything else.
  static std::optional<MachineModel> byName(const std::string &Name);

  /// Human-readable list of the names byName() accepts, for tool error
  /// messages: "ppc7410, ppc970 or simple-scalar".
  static std::string knownNamesList();

  const std::string &getName() const { return Name; }

  /// Unit inventory.
  unsigned getNumUnits() const { return static_cast<unsigned>(Units.size()); }
  const std::vector<FunctionalUnit> &units() const { return Units; }

  /// Indices (into units()) of the units that can execute \p C.  Never
  /// empty for a valid model.
  const std::vector<unsigned> &unitsFor(FuClass C) const {
    return UnitsByClass[static_cast<size_t>(C)];
  }

  /// Result latency of \p Op in cycles (always >= 1).
  unsigned getLatency(Opcode Op) const {
    return Latency[static_cast<size_t>(Op)];
  }

  /// True if a new instruction may start on \p Op's unit the cycle after
  /// \p Op issues; false for blocking ops (div, fdiv, fsqrt) that occupy
  /// their unit until completion.
  bool isPipelined(Opcode Op) const {
    return Pipelined[static_cast<size_t>(Op)];
  }

  /// Per-cycle issue rules ("one branch and two non-branch instructions
  /// per cycle" on the G4).
  unsigned getMaxIssueNonBranch() const { return MaxIssueNonBranch; }
  unsigned getMaxIssueBranch() const { return MaxIssueBranch; }

private:
  MachineModel(std::string ModelName, unsigned MaxNonBranch,
               unsigned MaxBranch)
      : Name(std::move(ModelName)), MaxIssueNonBranch(MaxNonBranch),
        MaxIssueBranch(MaxBranch) {}

  /// Appends a unit and returns its index.
  unsigned addUnit(std::string UnitName, uint16_t AcceptMask);

  /// Fills the latency/pipelining tables from a per-opcode spec function
  /// (one of the tables in MachineModel.cpp).
  void setTimings(LatSpec (*TableFn)(Opcode));

  /// Builds UnitsByClass and verifies the model is complete: every FuClass
  /// has at least one unit and every opcode has latency >= 1.  Aborts with
  /// a diagnostic naming the offending opcode/class otherwise, so adding
  /// an opcode can never silently yield latency 0.
  void finalize();

  std::string Name;
  std::vector<FunctionalUnit> Units;
  std::array<std::vector<unsigned>,
             static_cast<size_t>(FuClass::NumClasses)>
      UnitsByClass;
  std::array<unsigned, getNumOpcodes()> Latency{};
  std::array<bool, getNumOpcodes()> Pipelined{};
  unsigned MaxIssueNonBranch;
  unsigned MaxIssueBranch;
};

} // namespace schedfilter

#endif // SCHEDFILTER_TARGET_MACHINEMODEL_H
