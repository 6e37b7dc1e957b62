//===- ml/OnlineTrainer.h - Serve-time corpus + retrain trigger -*- C++ -*-===//
///
/// \file
/// The learning half of the online-adaptation loop: the optimizing tier
/// traces the methods it compiles (runtime/MethodCompiler traceMethod),
/// those raw BlockRecords accumulate here, and a trigger driven purely by
/// the virtual clock decides when the corpus is retrained into the next
/// filter version.  Nothing in this file reads wall time or a std engine:
/// a given (seed, config) pair reproduces the exact sequence of retrain
/// triggers, which is what makes the serving loop's swap sequence
/// byte-identical at any --jobs.
///
/// Layering: this is ml/ code -- it knows Labeler's threshold rule and
/// Ripper, but nothing about epochs, queues, or services.  The runtime
/// layer owns *when* absorb/maybeRetrain are called (always from its
/// serial install path); persistence of the resulting versions is
/// io/FilterRegistry's job.
///
//===----------------------------------------------------------------------===//

#ifndef SCHEDFILTER_ML_ONLINETRAINER_H
#define SCHEDFILTER_ML_ONLINETRAINER_H

#include "filter/FilterVersion.h"
#include "ml/Labeler.h"

namespace schedfilter {

class TaskPool;

/// What a serving loop holds: feed it traces, ask it at epoch boundaries
/// whether a new filter version is due, and it trains one (on the shared
/// pool -- bit-identical at any job count) stamped with full provenance.
///
/// The corpus is grow-only: records append in the caller's
/// (deterministic) order and are never reordered or deduplicated, so
/// every retrain is a pure function of the append sequence.  A retrain
/// fires at tick T when at least RetrainEvery ticks passed since the
/// last trigger (or since tick 0, where the initial version installed)
/// and at least one record arrived since the last train -- an idle
/// interval retrains nothing.
class OnlineTrainer {
public:
  /// \p Pool is borrowed for Ripper's pooled training; \p ThresholdPct is
  /// the labeling threshold every retrain uses (the serve run's -t).
  OnlineTrainer(TaskPool &Pool, double ThresholdPct, uint64_t RetrainEvery)
      : Pool(Pool), ThresholdPct(ThresholdPct), RetrainEvery(RetrainEvery) {}

  /// Installs the pre-serve corpus (the records the initial factory
  /// filter trained on), replacing any current contents; it counts as
  /// already trained on.
  void seedCorpus(std::vector<BlockRecord> Records) {
    Corpus = std::move(Records);
    TrainedMark = Corpus.size();
  }

  /// Absorbs one compile's trace records.  Call from a serial,
  /// deterministic-order path only (the service's install loop).
  void absorb(const std::vector<BlockRecord> &Records) {
    Corpus.insert(Corpus.end(), Records.begin(), Records.end());
  }

  /// If a retrain is due at virtual tick \p Tick, trains version
  /// CurrentVersion+1 on the full corpus and returns it; otherwise null.
  /// The artifact records the trigger tick and corpus size as provenance.
  FilterArtifactRef maybeRetrain(uint64_t Tick, uint32_t CurrentVersion);

private:
  TaskPool &Pool;
  double ThresholdPct;
  uint64_t RetrainEvery;
  std::vector<BlockRecord> Corpus;
  size_t TrainedMark = 0; ///< corpus size at the last train
  uint64_t LastTriggerTick = 0;
};

} // namespace schedfilter

#endif // SCHEDFILTER_ML_ONLINETRAINER_H
