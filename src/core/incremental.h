#ifndef WCOJ_CORE_INCREMENTAL_H_
#define WCOJ_CORE_INCREMENTAL_H_

// Incrementally maintained count views.
//
// §3 of the paper motivates LFTJ inside LogicBlox with materialized views
// that are incrementally maintained under updates (citing Veldhuizen's
// "Incremental Maintenance for Leapfrog Triejoin"). This module implements
// the classic delta-join telescoping for COUNT views over a query with one
// mutable relation R (the others static):
//
//   Q(R ∪ Δ) − Q(R) = Σ_i  J(atom_1..i-1 ↦ R∪Δ, atom_i ↦ Δ, atom_i+1..m ↦ R)
//
// summed over the atoms referencing R; each term is a single LFTJ run
// with mixed old/new/delta bindings, so maintenance cost tracks the delta
// size rather than the database size. Deletions telescope symmetrically.
//
// Self-joins (the same relation appearing in several atoms — every graph
// pattern here) are handled by the ordering in the telescoping sum.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "query/query.h"
#include "storage/relation.h"

namespace wcoj {

class IncrementalCountView {
 public:
  struct Options {
    // Engine used for the materialization and every delta term; any
    // CreateEngine name. The Minesweeper flavors pair naturally with
    // `scratch`: one update telescopes into several counting runs, all
    // of which then share one warm CDS arena.
    std::string engine = "lftj";
    // Warm per-worker scratch threaded into every execution this view
    // performs; must outlive the view and follows the usual
    // one-concurrent-execution contract.
    ExecScratch* scratch = nullptr;
  };

  // `q` must already be bound; `mutable_atoms` lists the atom indices
  // whose relation is the mutable one (they must all reference the same
  // Relation object, whose contents this view snapshots). The
  // options-free overloads use Options' defaults (LFTJ, no scratch).
  IncrementalCountView(const BoundQuery& q, std::vector<int> mutable_atoms,
                       Options options);
  IncrementalCountView(const BoundQuery& q, std::vector<int> mutable_atoms);

  // Convenience: treat every atom bound to `rel` as mutable.
  static IncrementalCountView ForRelation(const BoundQuery& q,
                                          const Relation* rel,
                                          Options options);
  static IncrementalCountView ForRelation(const BoundQuery& q,
                                          const Relation* rel);

  // The first failed execution's status (an engine without a program
  // for the shape, an expired deadline, ...). Once it is not OK, count()
  // is not the view's answer and Apply* change nothing and return 0.
  const Status& status() const { return status_; }
  uint64_t count() const { return count_; }
  const Relation& current() const { return current_; }

  // Inserts tuples (duplicates and already-present tuples are ignored)
  // and updates the maintained count. Returns the count delta.
  int64_t ApplyInserts(const std::vector<Tuple>& tuples);
  // Removes tuples (absent ones ignored); returns the (negative) delta.
  int64_t ApplyDeletes(const std::vector<Tuple>& tuples);

 private:
  // One execution's count; a failure latches into status_.
  uint64_t Count(const BoundQuery& q);
  uint64_t CountWith(const Relation& before, const Relation& delta,
                     const Relation& after);
  ExecOptions MakeExecOptions() const;

  BoundQuery q_;
  std::vector<int> mutable_atoms_;
  Options options_;
  std::unique_ptr<Engine> engine_;
  Relation current_;
  uint64_t count_ = 0;
  Status status_;
};

}  // namespace wcoj

#endif  // WCOJ_CORE_INCREMENTAL_H_
