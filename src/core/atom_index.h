#ifndef WCOJ_CORE_ATOM_INDEX_H_
#define WCOJ_CORE_ATOM_INDEX_H_

// Per-execution resolution of the GAO-consistent trie index of every
// atom in a BoundQuery — the one place the LFTJ / Minesweeper / hybrid
// engines get their indexes from. Every index comes from a catalog:
// the query's shared one (LogicBlox's resident-index regime), or, for a
// query bound without one, a catalog scoped to the run (RunCatalog).

#include <functional>
#include <memory>
#include <vector>

#include "core/engine.h"
#include "query/query.h"
#include "storage/catalog.h"
#include "storage/trie.h"

namespace wcoj {

// The catalog one run resolves its indexes in: `shared` when non-null,
// else a fresh IndexCatalog owned by this object. A run-scoped catalog
// builds each distinct (relation, permutation) once, exactly as a cold
// shared catalog would, and dies with the run — so a caller that
// changes relations between runs never probes a stale index, and
// transient relations never enter a shared catalog.
class RunCatalog {
 public:
  explicit RunCatalog(IndexCatalog* shared)
      : owned_(shared == nullptr ? std::make_unique<IndexCatalog>()
                                 : nullptr),
        catalog_(shared != nullptr ? shared : owned_.get()) {}

  IndexCatalog* get() const { return catalog_; }

 private:
  std::unique_ptr<IndexCatalog> owned_;
  IndexCatalog* catalog_;
};

class AtomIndexSet {
 public:
  // Resolves one index per atom of `q` in RunCatalog(catalog), recording
  // build / cache-hit counts into *stats. `prebuilt` (when non-null)
  // supplies per-atom overrides; its null entries fall through to the
  // catalog. `budget` governs any builds this resolution performs; a
  // refused build leaves a null slot and a non-OK status() — engines
  // must check ok() before probing.
  AtomIndexSet(const BoundQuery& q, IndexCatalog* catalog, EngineStats* stats,
               const std::vector<const TrieIndex*>* prebuilt = nullptr,
               MemoryBudget* budget = nullptr);

  const TrieIndex* at(size_t atom) const { return ptrs_[atom]; }
  size_t size() const { return ptrs_.size(); }

  // OK iff every atom resolved an index; otherwise the first build
  // failure (budget refusal / injected fault).
  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

 private:
  RunCatalog catalog_;  // owns the indexes of a catalog-less query
  std::vector<const TrieIndex*> ptrs_;
  Status status_;
};

// Pre-builds the GAO-consistent index of every atom of `q` in its
// catalog (no-op without one), so subsequent executions — e.g. the
// §4.10 partitioner's jobs — run warm. One build per distinct
// (relation, permutation) key. Per-atom accounting: the first atom of a
// key books its build (or resident hit), every repeat atom a hit. A key
// whose build fails (budget refusal / injected fault) books neither, is
// not retried at its later atoms, and folds its cause into *status.
// Builds are governed by `budget` when given.
EngineStats WarmQueryIndexes(const BoundQuery& q,
                             MemoryBudget* budget = nullptr,
                             Status* status = nullptr);

// Runs a batch of independent jobs, each exactly once, and returns when
// all have finished.
using JobRunner =
    std::function<void(const std::vector<std::function<void()>>&)>;

// WarmQueryIndexes with the per-key build jobs handed to `run`; the
// serial pass runs them in order on the calling thread, the parallel
// one (parallel/partitioned_run.h) on a WorkerPool.
EngineStats WarmQueryIndexesWith(const BoundQuery& q, MemoryBudget* budget,
                                 Status* status, const JobRunner& run);

}  // namespace wcoj

#endif  // WCOJ_CORE_ATOM_INDEX_H_
