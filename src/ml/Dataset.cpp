//===- ml/Dataset.cpp - Training/test instances ----------------------------===//

#include "ml/Dataset.h"

using namespace schedfilter;

const char *schedfilter::getLabelName(Label L) {
  return L == Label::LS ? "LS" : "NS";
}

void Dataset::append(const Dataset &Other) {
  Instances.insert(Instances.end(), Other.Instances.begin(),
                   Other.Instances.end());
}

size_t Dataset::countLabel(Label L) const {
  size_t N = 0;
  for (const Instance &I : Instances)
    if (I.Y == L)
      ++N;
  return N;
}

ColumnView Dataset::columns() const {
  ColumnView CV;
  CV.NumInstances = Instances.size();
  CV.Values.resize(static_cast<size_t>(NumFeatures) * CV.NumInstances);
  CV.Labels.resize(CV.NumInstances);
  for (size_t I = 0; I != CV.NumInstances; ++I) {
    CV.Labels[I] = Instances[I].Y;
    for (unsigned F = 0; F != NumFeatures; ++F)
      CV.Values[static_cast<size_t>(F) * CV.NumInstances + I] =
          Instances[I].X[F];
  }
  return CV;
}
