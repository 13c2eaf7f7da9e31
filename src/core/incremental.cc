#include "core/incremental.h"

#include <algorithm>
#include <cassert>

namespace wcoj {

namespace {

// rel minus / plus a tuple set, as fresh Relations.
Relation Union(const Relation& rel, const std::vector<Tuple>& tuples) {
  Relation out(rel.arity());
  for (size_t r = 0; r < rel.size(); ++r) out.Add(rel.RowTuple(r));
  for (const Tuple& t : tuples) out.Add(t);
  out.Build();
  return out;
}

Relation Difference(const Relation& rel, const Relation& remove) {
  Relation out(rel.arity());
  for (size_t r = 0; r < rel.size(); ++r) {
    if (!remove.Contains(rel.RowTuple(r))) out.Add(rel.RowTuple(r));
  }
  out.Build();
  return out;
}

// Tuples of `candidates` genuinely present in / absent from `rel`.
Relation Genuine(const Relation& rel, const std::vector<Tuple>& tuples,
                 bool present) {
  Relation out(rel.arity());
  for (const Tuple& t : tuples) {
    if (rel.Contains(t) == present) out.Add(t);
  }
  out.Build();
  return out;
}

}  // namespace

IncrementalCountView::IncrementalCountView(const BoundQuery& q,
                                           std::vector<int> mutable_atoms,
                                           Options options)
    : q_(q),
      mutable_atoms_(std::move(mutable_atoms)),
      options_(std::move(options)),
      engine_(CreateEngine(options_.engine)),
      current_(1) {
  assert(!mutable_atoms_.empty());
  assert(engine_ != nullptr && "unknown engine name in Options::engine");
  const Relation* rel = q.atoms[mutable_atoms_[0]].relation;
  for (int a : mutable_atoms_) {
    assert(q.atoms[a].relation == rel && "mutable atoms must share a relation");
    (void)a;
  }
  current_ = *rel;  // snapshot
  // Rebind the mutable atoms to the snapshot and materialize the count.
  for (int a : mutable_atoms_) q_.atoms[a].relation = &current_;
  count_ = Count(q_);
}

IncrementalCountView::IncrementalCountView(const BoundQuery& q,
                                           std::vector<int> mutable_atoms)
    : IncrementalCountView(q, std::move(mutable_atoms), Options{}) {}

IncrementalCountView IncrementalCountView::ForRelation(const BoundQuery& q,
                                                       const Relation* rel) {
  return ForRelation(q, rel, Options{});
}

IncrementalCountView IncrementalCountView::ForRelation(const BoundQuery& q,
                                                       const Relation* rel,
                                                       Options options) {
  std::vector<int> atoms;
  for (size_t a = 0; a < q.atoms.size(); ++a) {
    if (q.atoms[a].relation == rel) atoms.push_back(static_cast<int>(a));
  }
  return IncrementalCountView(q, std::move(atoms), std::move(options));
}

ExecOptions IncrementalCountView::MakeExecOptions() const {
  ExecOptions opts;
  opts.scratch = options_.scratch;
  return opts;
}

uint64_t IncrementalCountView::Count(const BoundQuery& q) {
  const ExecResult r = engine_->Execute(q, MakeExecOptions());
  status_.Update(r.status);
  return r.count;
}

uint64_t IncrementalCountView::CountWith(const Relation& before,
                                         const Relation& delta,
                                         const Relation& after) {
  // Telescoping sum: the i-th term binds mutable atoms < i to `before`,
  // atom i to `delta`, and atoms > i to `after`. Every term runs on the
  // view's engine and (if configured) warm scratch, back to back.
  uint64_t sum = 0;
  for (size_t i = 0; i < mutable_atoms_.size(); ++i) {
    BoundQuery term = q_;
    for (size_t j = 0; j < mutable_atoms_.size(); ++j) {
      term.atoms[mutable_atoms_[j]].relation =
          j < i ? &before : (j == i ? &delta : &after);
    }
    sum += Count(term);
    if (!status_.ok()) return 0;
  }
  return sum;
}

int64_t IncrementalCountView::ApplyInserts(const std::vector<Tuple>& tuples) {
  if (!status_.ok()) return 0;
  const Relation delta = Genuine(current_, tuples, /*present=*/false);
  if (delta.size() == 0) return 0;
  Relation next = Union(current_, tuples);
  // Q(new) - Q(old): atoms before the delta position see `new`.
  const uint64_t gained = CountWith(next, delta, current_);
  if (!status_.ok()) return 0;
  current_ = std::move(next);
  for (int a : mutable_atoms_) q_.atoms[a].relation = &current_;
  count_ += gained;
  return static_cast<int64_t>(gained);
}

int64_t IncrementalCountView::ApplyDeletes(const std::vector<Tuple>& tuples) {
  if (!status_.ok()) return 0;
  const Relation delta = Genuine(current_, tuples, /*present=*/true);
  if (delta.size() == 0) return 0;
  Relation next = Difference(current_, delta);
  // Q(old) - Q(new): atoms before the delta position see `new`.
  const uint64_t lost = CountWith(next, delta, current_);
  if (!status_.ok()) return 0;
  current_ = std::move(next);
  for (int a : mutable_atoms_) q_.atoms[a].relation = &current_;
  assert(count_ >= lost);
  count_ -= lost;
  return -static_cast<int64_t>(lost);
}

}  // namespace wcoj
