//===- harness/Experiments.cpp - Paper experiment drivers -------------------===//

#include "harness/Experiments.h"

#include "ml/Ripper.h"

using namespace schedfilter;

RecordPricing
schedfilter::priceOnRecords(const std::vector<BlockRecord> &Records,
                            const RuleSet &Filter) {
  RecordPricing P;
  for (const BlockRecord &Rec : Records) {
    double W = static_cast<double>(Rec.ExecCount);
    bool SchedIt = Filter.predict(Rec.X) == Label::LS;
    ++(SchedIt ? P.NumLS : P.NumNS);
    P.NoSchedTime += W * static_cast<double>(Rec.CostNoSched);
    P.SchedTime += W * static_cast<double>(Rec.CostSched);
    P.FilteredTime += W * static_cast<double>(SchedIt ? Rec.CostSched
                                                      : Rec.CostNoSched);
  }
  return P;
}

double schedfilter::lsBenefitRetained(double AppTimeLN, double AppTimeLS) {
  double BenefitLS = 1.0 - AppTimeLS;
  return BenefitLS > 0.0 ? (1.0 - AppTimeLN) / BenefitLS : 1.0;
}

std::vector<double> schedfilter::paperThresholds() {
  std::vector<double> T;
  for (int V = 0; V <= 50; V += 5)
    T.push_back(static_cast<double>(V));
  return T;
}

LearnerFn schedfilter::ripperLearner(TaskPool &Pool) {
  return [&Pool](const Dataset &Train) { return Ripper().train(Train, Pool); };
}
