//===- tests/target_test.cpp - target/ unit tests ---------------------------===//

#include "target/MachineModel.h"

#include "TestHelpers.h"
#include "sched/DependenceGraph.h"

#include <gtest/gtest.h>

using namespace schedfilter;
using namespace schedfilter::test;

TEST(MachineModel, Ppc7410UnitInventory) {
  MachineModel M = MachineModel::ppc7410();
  // 2 integer + FPU + LSU + BPU + SU.
  EXPECT_EQ(M.getNumUnits(), 6u);
  EXPECT_EQ(M.getName(), "ppc7410");
}

TEST(MachineModel, DissimilarIntegerUnits) {
  MachineModel M = MachineModel::ppc7410();
  // Simple integer ops can go on either integer unit; complex ones (mul,
  // div) only on the second.
  EXPECT_EQ(M.unitsFor(FuClass::IntSimple).size(), 2u);
  EXPECT_EQ(M.unitsFor(FuClass::IntComplex).size(), 1u);
}

TEST(MachineModel, SingleUnitClasses) {
  MachineModel M = MachineModel::ppc7410();
  EXPECT_EQ(M.unitsFor(FuClass::Float).size(), 1u);
  EXPECT_EQ(M.unitsFor(FuClass::LoadStore).size(), 1u);
  EXPECT_EQ(M.unitsFor(FuClass::Branch).size(), 1u);
  EXPECT_EQ(M.unitsFor(FuClass::System).size(), 1u);
}

TEST(MachineModel, IssueRules) {
  MachineModel M = MachineModel::ppc7410();
  // "One branch and two non-branch instructions per cycle."
  EXPECT_EQ(M.getMaxIssueNonBranch(), 2u);
  EXPECT_EQ(M.getMaxIssueBranch(), 1u);
}

TEST(MachineModel, LatenciesAtLeastOne) {
  MachineModel M = MachineModel::ppc7410();
  for (unsigned I = 0; I != getNumOpcodes(); ++I)
    EXPECT_GE(M.getLatency(static_cast<Opcode>(I)), 1u)
        << getOpcodeName(static_cast<Opcode>(I));
}

TEST(MachineModel, LatencyOrdering) {
  MachineModel M = MachineModel::ppc7410();
  // "Instructions take from one to many tens of cycles."
  EXPECT_EQ(M.getLatency(Opcode::Add), 1u);
  EXPECT_GT(M.getLatency(Opcode::FAdd), M.getLatency(Opcode::Add));
  EXPECT_GT(M.getLatency(Opcode::LoadInt), M.getLatency(Opcode::Add));
  EXPECT_GT(M.getLatency(Opcode::Div), M.getLatency(Opcode::Mul));
  EXPECT_GE(M.getLatency(Opcode::FDiv), 20u);
  EXPECT_GE(M.getLatency(Opcode::FSqrt), 20u);
}

TEST(MachineModel, BlockingOpsNotPipelined) {
  MachineModel M = MachineModel::ppc7410();
  EXPECT_FALSE(M.isPipelined(Opcode::Div));
  EXPECT_FALSE(M.isPipelined(Opcode::FDiv));
  EXPECT_FALSE(M.isPipelined(Opcode::FSqrt));
  EXPECT_TRUE(M.isPipelined(Opcode::FAdd));
  EXPECT_TRUE(M.isPipelined(Opcode::LoadInt));
}

TEST(MachineModel, UnitAcceptMasks) {
  MachineModel M = MachineModel::ppc7410();
  for (FuClass C : {FuClass::IntSimple, FuClass::IntComplex, FuClass::Float,
                    FuClass::LoadStore, FuClass::Branch, FuClass::System})
    for (unsigned U : M.unitsFor(C))
      EXPECT_TRUE(M.units()[U].accepts(C));
}

TEST(MachineModel, SimpleScalarSingleIssue) {
  MachineModel M = MachineModel::simpleScalar();
  EXPECT_EQ(M.getNumUnits(), 1u);
  EXPECT_EQ(M.getMaxIssueNonBranch(), 1u);
  // The universal unit executes every class.
  for (FuClass C : {FuClass::IntSimple, FuClass::IntComplex, FuClass::Float,
                    FuClass::LoadStore, FuClass::Branch, FuClass::System})
    EXPECT_EQ(M.unitsFor(C).size(), 1u);
}

TEST(MachineModel, SimpleScalarIssueAndLatencyRules) {
  MachineModel M = MachineModel::simpleScalar();
  EXPECT_EQ(M.getName(), "simple-scalar");
  EXPECT_EQ(M.getMaxIssueBranch(), 1u);
  // Latencies deliberately match the ppc7410 table: the model differs only
  // in issue width and unit count, so on any block it can never beat the
  // superscalar G4 -- the property the cross-model sim tests rely on.
  MachineModel G4 = MachineModel::ppc7410();
  for (unsigned I = 0; I != getNumOpcodes(); ++I) {
    Opcode Op = static_cast<Opcode>(I);
    EXPECT_EQ(M.getLatency(Op), G4.getLatency(Op)) << getOpcodeName(Op);
    EXPECT_EQ(M.isPipelined(Op), G4.isPipelined(Op)) << getOpcodeName(Op);
    EXPECT_GE(M.getLatency(Op), 1u);
  }
  EXPECT_TRUE(M.units()[0].accepts(FuClass::IntComplex));
}

TEST(MachineModel, Ppc970UnitInventory) {
  MachineModel M = MachineModel::ppc970();
  EXPECT_EQ(M.getName(), "ppc970");
  // 2 integer + 2 FPU + 2 LSU + BPU + SU.
  EXPECT_EQ(M.getNumUnits(), 8u);
  EXPECT_EQ(M.unitsFor(FuClass::IntSimple).size(), 2u);
  EXPECT_EQ(M.unitsFor(FuClass::IntComplex).size(), 1u);
  EXPECT_EQ(M.unitsFor(FuClass::Float).size(), 2u);
  EXPECT_EQ(M.unitsFor(FuClass::LoadStore).size(), 2u);
  EXPECT_EQ(M.unitsFor(FuClass::Branch).size(), 1u);
  EXPECT_EQ(M.unitsFor(FuClass::System).size(), 1u);
  for (FuClass C : {FuClass::IntSimple, FuClass::IntComplex, FuClass::Float,
                    FuClass::LoadStore, FuClass::Branch, FuClass::System})
    for (unsigned U : M.unitsFor(C))
      EXPECT_TRUE(M.units()[U].accepts(C));
}

TEST(MachineModel, Ppc970IssueRules) {
  MachineModel M = MachineModel::ppc970();
  EXPECT_EQ(M.getMaxIssueNonBranch(), 4u);
  EXPECT_EQ(M.getMaxIssueBranch(), 1u);
}

TEST(MachineModel, Ppc970Latencies) {
  MachineModel M = MachineModel::ppc970();
  for (unsigned I = 0; I != getNumOpcodes(); ++I)
    EXPECT_GE(M.getLatency(static_cast<Opcode>(I)), 1u)
        << getOpcodeName(static_cast<Opcode>(I));
  // Same qualitative shape as the G4: cheap ALU, expensive blocking ops.
  EXPECT_GT(M.getLatency(Opcode::FAdd), M.getLatency(Opcode::Add));
  EXPECT_GT(M.getLatency(Opcode::Div), M.getLatency(Opcode::Mul));
  EXPECT_GE(M.getLatency(Opcode::FDiv), 20u);
  EXPECT_GE(M.getLatency(Opcode::FSqrt), 20u);
  EXPECT_FALSE(M.isPipelined(Opcode::Div));
  EXPECT_FALSE(M.isPipelined(Opcode::FDiv));
  EXPECT_FALSE(M.isPipelined(Opcode::FSqrt));
  EXPECT_TRUE(M.isPipelined(Opcode::FAdd));
  EXPECT_TRUE(M.isPipelined(Opcode::LoadFloat));
}

TEST(MachineModel, ByNameRoundTrips) {
  for (const char *Name : {"ppc7410", "ppc970", "simple-scalar"}) {
    std::optional<MachineModel> M = MachineModel::byName(Name);
    ASSERT_TRUE(M.has_value()) << Name;
    EXPECT_EQ(M->getName(), Name);
    // The advertised name list must mention every accepted name.
    EXPECT_NE(MachineModel::knownNamesList().find(Name), std::string::npos);
  }
  EXPECT_FALSE(MachineModel::byName("ppc601").has_value());
  EXPECT_FALSE(MachineModel::byName("").has_value());
}

TEST(MachineModel, G5NeverFasterPerOpcodeThanG4) {
  // The "wider but deeper" trade: the G5 wins via issue width and unit
  // count, never via a cheaper opcode -- the invariant behind the
  // cross-target critical-path test below.
  MachineModel G4 = MachineModel::ppc7410();
  MachineModel G5 = MachineModel::ppc970();
  for (unsigned I = 0; I != getNumOpcodes(); ++I) {
    Opcode Op = static_cast<Opcode>(I);
    EXPECT_GE(G5.getLatency(Op), G4.getLatency(Op)) << getOpcodeName(Op);
  }
}

TEST(MachineModel, DependenceHeightsDifferAcrossTargets) {
  // The same block has different latency-weighted critical paths on the G4
  // and the deeper G5 -- the reason per-target filters are induced per
  // machine rather than shared.
  MachineModel G4 = MachineModel::ppc7410();
  MachineModel G5 = MachineModel::ppc970();
  for (const BasicBlock &BB : {makeIlpFloatBlock(), makeChainBlock()}) {
    DependenceGraph D4(BB, G4);
    DependenceGraph D5(BB, G5);
    bool AnyDiffer = false;
    for (int I = 0; I != static_cast<int>(BB.size()); ++I) {
      EXPECT_GE(D4.criticalPath(I), 1) << BB.getName();
      EXPECT_GE(D5.criticalPath(I), 1) << BB.getName();
      AnyDiffer |= D4.criticalPath(I) != D5.criticalPath(I);
    }
    EXPECT_TRUE(AnyDiffer) << BB.getName();
    // The deeper pipeline can only stretch the critical path.
    EXPECT_GT(D5.criticalPath(0), D4.criticalPath(0)) << BB.getName();
  }
}
