//===- ml/Dataset.h - Training/test instances --------------------*- C++ -*-===//
///
/// \file
/// Labeled instances for the whether-to-schedule learning problem.  Each
/// instance is one basic block: a feature vector plus a boolean class
/// label, LS (schedule) or NS (don't schedule), per the paper's §2.2.
///
//===----------------------------------------------------------------------===//

#ifndef SCHEDFILTER_ML_DATASET_H
#define SCHEDFILTER_ML_DATASET_H

#include "features/Features.h"

#include <string>
#include <vector>

namespace schedfilter {

/// Class labels.  NS first so that "default class" logic reads naturally.
enum class Label : uint8_t { NS = 0, LS = 1 };

/// Returns "LS" or "NS".
const char *getLabelName(Label L);

/// One labeled block.
struct Instance {
  FeatureVector X;
  Label Y;
};

/// A flat, feature-major (columnar) view of a dataset, for algorithms that
/// scan one feature across many instances (the indexed RIPPER trainer).
/// Values are copied bit-exactly from the row-major instances, so a
/// condition evaluated against a column compares the same doubles as
/// Condition::matches against the original FeatureVector.  The view is a
/// snapshot: it does not track later mutation of the source dataset.
struct ColumnView {
  size_t NumInstances = 0;
  /// Values[F * NumInstances + i] == dataset[i].X[F].
  std::vector<double> Values;
  /// Labels[i] == dataset[i].Y.
  std::vector<Label> Labels;

  /// The contiguous column of feature \p F.
  const double *col(unsigned F) const {
    return Values.data() + static_cast<size_t>(F) * NumInstances;
  }
};

/// A named bag of instances (typically: all blocks of one benchmark).
class Dataset {
public:
  explicit Dataset(std::string Name = "") : Name(std::move(Name)) {}

  const std::string &getName() const { return Name; }

  void add(Instance I) { Instances.push_back(std::move(I)); }
  void append(const Dataset &Other);

  size_t size() const { return Instances.size(); }
  bool empty() const { return Instances.empty(); }

  const Instance &operator[](size_t I) const { return Instances[I]; }

  std::vector<Instance>::const_iterator begin() const {
    return Instances.begin();
  }
  std::vector<Instance>::const_iterator end() const {
    return Instances.end();
  }

  /// Number of instances with label \p L.
  size_t countLabel(Label L) const;

  /// Builds a feature-major snapshot of the instances (see ColumnView).
  ColumnView columns() const;

private:
  std::string Name;
  std::vector<Instance> Instances;
};

} // namespace schedfilter

#endif // SCHEDFILTER_ML_DATASET_H
