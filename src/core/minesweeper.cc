#include "core/minesweeper.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/atom_index.h"
#include "core/cds.h"
#include "core/constraint.h"
#include "query/hypergraph.h"
#include "storage/trie.h"

namespace wcoj {

namespace {

constexpr Value kFloor = -1;

// Idea 4: one probe cursor per atom. Successive free tuples share long
// prefixes, so successive projections onto an atom do too. The cursor
// keeps the atom's last projection and, for each trie depth that probe
// reached, the CSR range [lo, hi) under the projection's prefix and the
// LowerBound position found in it. A probe resumes at the first depth
// where the new projection differs instead of at the root. It costs no
// seek when the projection agrees through the last probe's fail depth
// (same member, same gap), or differs only there and either stays
// strictly inside the last gap or lands on its upper end, where the
// cursor already sits. Without `resume` (the "ms-noidea4" ablation)
// every probe starts at the root, the paper's plain seekGap.
class ProbeCursor {
 public:
  ProbeCursor(const TrieIndex& index, const std::vector<int>& vars)
      : index_(index),
        vars_(vars),
        proj_(vars.size()),
        lo_(vars.size()),
        hi_(vars.size()),
        pos_(vars.size()) {
    if (!vars.empty()) hi_[0] = index.LevelSize(0);
  }

  // Probes the projection of `t` onto the atom's variables and returns
  // the number of seeks spent (0: answered from the cursor). Afterwards
  // found() tells membership; otherwise LiftGap() gives the gap box.
  uint64_t Probe(const Tuple& t, bool resume) {
    const int arity = static_cast<int>(vars_.size());
    int d = 0;
    const bool resuming = resume && fail_ >= 0;
    if (resuming) {
      // The last answer depends on the projection through its fail depth
      // only; d is the first depth in there that changed.
      const int last = std::min(fail_, arity - 1);
      while (d <= last && t[vars_[d]] == proj_[d]) ++d;
      if (d > last) return 0;  // same member / same gap
      const Value v = t[vars_[d]];
      if (d == fail_ && glb_ < v && v < lub_) {
        proj_[d] = v;  // still inside the last gap
        return 0;
      }
    }
    const int start = d;
    uint64_t seeks = 0;
    for (; d < arity; ++d) {
      const Value v = t[vars_[d]];
      size_t p;
      if (resuming && d == start && pos_[d] < hi_[d] &&
          index_.KeyAt(d, pos_[d]) == v) {
        p = pos_[d];  // the cursor already sits on v: the last gap's lub
      } else {
        // pos_[start] is the last LowerBound at this range; a larger value
        // cannot lie before it.
        const size_t from =
            resuming && d == start && v > proj_[d] ? pos_[d] : lo_[d];
        ++seeks;
        p = index_.LowerBound(d, from, hi_[d], v);
      }
      proj_[d] = v;
      pos_[d] = p;
      if (p == hi_[d] || index_.KeyAt(d, p) != v) {
        fail_ = d;
        glb_ = p > lo_[d] ? index_.KeyAt(d, p - 1) : kNegInf;
        lub_ = p < hi_[d] ? index_.KeyAt(d, p) : kPosInf;
        return seeks;
      }
      if (d + 1 < arity) {
        lo_[d + 1] = index_.ChildBegin(d, p);
        hi_[d + 1] = index_.ChildEnd(d, p);
      }
    }
    fail_ = arity;
    return seeks;
  }

  bool found() const { return fail_ == static_cast<int>(vars_.size()); }

  // §4.5: lift the last probe's atom-local gap to a global constraint.
  // Equalities at the atom's attribute positions before the failing one,
  // wildcards elsewhere.
  void LiftGap(Constraint* c) const {
    c->pattern.assign(vars_[fail_], kWildcard);
    for (int p = 0; p < fail_; ++p) c->pattern[vars_[p]] = proj_[p];
    c->lo = glb_;
    c->hi = lub_;
  }

 private:
  const TrieIndex& index_;
  const std::vector<int>& vars_;  // sorted GAO positions, trie order
  Tuple proj_;                    // valid through min(fail_, arity - 1)
  std::vector<size_t> lo_, hi_;   // range searched at each reached depth
  std::vector<size_t> pos_;       // LowerBound result at each depth
  int fail_ = -1;                 // -1: nothing probed yet
  Value glb_ = kNegInf, lub_ = kPosInf;
};

class MsRun {
 public:
  MsRun(const MsOptions& ms, const BoundQuery& q, const ExecOptions& opts,
        ExecResult* result)
      : ms_(ms),
        q_(q),
        opts_(opts),
        result_(result),
        indexes_(q, q.catalog, &result->stats, /*prebuilt=*/nullptr,
                 opts.budget) {
    // A failed (budget-refused / fault-injected) index build fails the
    // run closed before any index is probed.
    if (!indexes_.ok()) {
      result_->status = indexes_.status();
      return;
    }
    for (size_t a = 0; a < q.atoms.size(); ++a) {
      atom_vars_.push_back(q.AtomVarsSorted(a));
      // Nonnegative-domain contract (frontier floor is -1).
      if (indexes_.at(a)->size() != 0 && indexes_.at(a)->ColMin(0) < 0) {
        result_->status = Status(
            StatusCode::kInvalidArgument,
            "minesweeper requires nonnegative value domains (atom " +
                std::to_string(a) + " has negative keys)");
        return;
      }
    }
    skeleton_.assign(q.atoms.size(), true);
    if (ms.idea7_skeleton) skeleton_ = BetaAcyclicSkeleton(q);
    cursors_.reserve(q.atoms.size());
    for (size_t a = 0; a < q.atoms.size(); ++a) {
      cursors_.emplace_back(*indexes_.at(a), atom_vars_[a]);
    }
    // Union of prefix positions of atoms (and filters) participating at
    // the last depth: the Idea 8 drain soundness mask.
    const int last = q.num_vars - 1;
    for (const auto& vars : atom_vars_) {
      if (!vars.empty() && vars.back() == last) {
        for (int v : vars) {
          if (v < last) last_depth_mask_ |= uint64_t{1} << v;
        }
      }
    }
    for (const auto& [lo, hi] : q.less_than) {
      if (hi == last && lo < last) last_depth_mask_ |= uint64_t{1} << lo;
      if (lo == last && hi < last) last_depth_mask_ |= uint64_t{1} << hi;
    }
  }

  void Run() {
    if (!result_->status.ok()) return;  // refused in the constructor
    Cds::Options cds_options;
    cds_options.idea6_complete_nodes = ms_.idea6_complete_nodes;
    cds_options.count_mode = ms_.count_mode && !opts_.collect_tuples;
    cds_options.completeness_blocked = CompletenessBlockedDepths();
    // Draw the CDS from the caller's warm per-worker scratch when one is
    // provided (partitioned runs, repeated executions) — arena memory
    // and the Cds shell's search vectors both stay warm across runs;
    // otherwise build a private one that dies with this run.
    std::optional<Cds> local_cds;
    Cds* cds_ptr;
    CdsArena* budget_arena;
    // CDS growth is the engine's dominant allocator: charge it against
    // the query budget for the duration of this run. The latch (set by a
    // budget refusal or the "arena.slab" failpoint) is polled in the main
    // loop; the run winds down instead of crashing mid-insert. Budget
    // install and stale-latch clear happen BEFORE the CDS is acquired,
    // so growth during this run's own setup is governed too.
    if (opts_.scratch != nullptr) {
      budget_arena = &opts_.scratch->cds_arena;
      budget_arena->ClearAllocFailed();  // stale latch from a prior query
      budget_arena->SetBudget(opts_.budget);
      cds_ptr = &opts_.scratch->AcquireCds(q_.num_vars, cds_options,
                                           opts_.cds_run_token);
    } else {
      local_cds.emplace(q_.num_vars, cds_options);
      cds_ptr = &*local_cds;
      budget_arena = local_cds->mutable_arena();
      budget_arena->SetBudget(opts_.budget);
    }
    Cds& cds = *cds_ptr;
    const CdsArena* arena = budget_arena;
    // Stats baselines: under morsel CDS retention (cds_run_token) the
    // shell carries counters from earlier morsels of this run, so report
    // this execution's contribution as deltas. After a Reconfigure the
    // baselines are all zero, making this the plain totals too.
    const uint64_t base_constraints = cds.constraints_inserted();
    const uint64_t base_allocated = arena->nodes_allocated();
    const uint64_t base_recycled = arena->nodes_recycled();
    cds.set_deadline(&opts_.deadline);
    cds.set_stop(opts_.stop);
    InsertDomainBounds(&cds);
    Tuple start(q_.num_vars, kFloor);
    if (opts_.var0_min != kNegInf) start[0] = opts_.var0_min;
    cds.SetFrontier(start);

    Tuple prev_free;
    bool prev_output = true;
    uint64_t iters = 0;
    // Per-tuple buffers, reused so the loop allocates only when collecting
    // output tuples or growing the CDS.
    Tuple t;
    Tuple advance(q_.num_vars);
    Tuple next;
    Constraint c;

    while (cds.ComputeFreeTuple()) {
      if ((opts_.stop != nullptr && opts_.stop->stop_requested()) ||
          arena->alloc_failed() ||
          (++iters % 256 == 0 && opts_.Aborted())) {
        // An arena refusal is reported below, after the loop.
        if (!arena->alloc_failed()) result_->status = opts_.AbortStatus();
        break;
      }
      // Copy: the Idea 8 drain below mutates the CDS frontier in place.
      t = cds.frontier();
      if (t[0] > opts_.var0_max) break;
      ++result_->stats.free_tuples;

      // Stall safety net: a free tuple equal to the previous one that was
      // not an output means no progress was made — a bug, not a slow run.
      // Fail closed with a structured error instead of aborting the
      // process; the result is marked incomplete.
      if (!prev_output && t == prev_free) {
        result_->status =
            Status(StatusCode::kInternal,
                   "minesweeper stalled: frontier made no progress");
        break;
      }
      prev_free = t;

      bool found_gap = false;
      bool have_advance = false;
      bool exhausted = false;

      auto apply_gap_advance = [&] {
        if (!AdvancePastGap(c, t, kFloor, &next)) {
          exhausted = true;
          return;
        }
        if (!have_advance || CompareTuples(next, advance) > 0) {
          advance.swap(next);
          have_advance = true;
        }
      };

      // Inequality filters as virtual gaps.
      for (const auto& [lo, hi] : q_.less_than) {
        if (t[lo] < t[hi]) continue;
        found_gap = true;
        if (lo < hi) {
          c.pattern.assign(hi, kWildcard);
          c.pattern[lo] = t[lo];
          c.lo = kNegInf;
          c.hi = t[lo] + 1;  // rules out values <= t[lo]
        } else {
          c.pattern.assign(lo, kWildcard);
          c.pattern[hi] = t[hi];
          c.lo = t[hi] - 1;  // rules out values >= t[hi]
          c.hi = kPosInf;
        }
        apply_gap_advance();
        if (exhausted) break;
      }

      // Probe every atom for a maximal gap box (Idea 3), resumed from the
      // atom's cursor (Idea 4).
      for (size_t a = 0; !exhausted && a < q_.atoms.size(); ++a) {
        ProbeCursor& cursor = cursors_[a];
        const uint64_t seeks = cursor.Probe(t, ms_.idea4_gap_cache);
        result_->stats.seeks += seeks;
        if (seeks == 0) ++result_->stats.gap_cache_hits;
        if (cursor.found()) continue;
        cursor.LiftGap(&c);
        found_gap = true;
        if (skeleton_[a]) {
          cds.InsertConstraint(c);
        } else {
          apply_gap_advance();  // Idea 7: advance only
        }
      }

      if (exhausted) break;
      if (!found_gap) {
        prev_output = true;
        ++result_->count;
        if (opts_.collect_tuples) result_->tuples.push_back(t);
        uint64_t drained = 0;
        if (ms_.count_mode && !opts_.collect_tuples) {
          drained = cds.DrainCompleteLastLevel(last_depth_mask_);
          result_->count += drained;
        }
        if (drained == 0) {
          // Idea 2: advance the frontier past the reported tuple. (When
          // the drain fired it already exhausted the class.)
          if (t.back() == kPosInf) break;  // cannot advance further
          next = t;
          ++next.back();
          cds.SetFrontier(next);
        }
      } else {
        prev_output = false;
        if (have_advance) cds.SetFrontier(advance);
      }
    }
    if (cds.stopped()) result_->status.Update(opts_.AbortStatus());
    if (arena->alloc_failed()) {
      result_->status.Update(
          Status(StatusCode::kResourceExhausted,
                 "CDS arena allocation refused (budget or injected fault)"));
    }
    // Detach the budget and clear the latch so a pooled scratch arena is
    // reusable by the next (possibly differently-governed) run.
    budget_arena->ClearAllocFailed();
    budget_arena->SetBudget(nullptr);
    result_->stats.constraints_inserted +=
        cds.constraints_inserted() - base_constraints;
    result_->stats.cds_nodes_allocated +=
        arena->nodes_allocated() - base_allocated;
    result_->stats.cds_nodes_recycled +=
        arena->nodes_recycled() - base_recycled;
    result_->stats.cds_peak_arena_bytes =
        std::max(result_->stats.cds_peak_arena_bytes, arena->peak_bytes());
  }

  // Depths where frontier advances (Idea 7 non-skeleton gaps, filter
  // violations) can jump over values: completeness (Idea 6) must not be
  // claimed there, because skipped values never reach the pointList. This
  // realizes §4.12's split — Idea 6 on the path attributes, Idea 7 owning
  // the clique attributes.
  std::vector<bool> CompletenessBlockedDepths() const {
    std::vector<bool> blocked(q_.num_vars, false);
    for (size_t a = 0; a < q_.atoms.size(); ++a) {
      if (skeleton_[a]) continue;
      for (int v : atom_vars_[a]) blocked[v] = true;
    }
    for (const auto& [lo, hi] : q_.less_than) {
      blocked[std::max(lo, hi)] = true;
    }
    return blocked;
  }

  // Domain-bound gap boxes: for every atom column, values outside
  // [col_min, col_max] cannot match that atom under *any* prefix, so the
  // all-wildcard-pattern boxes (-inf, col_min) and (col_max, +inf) are
  // sound for every attribute (a real system gets these from index
  // metadata). They keep the §4.8 poset regime's coordinate climb bounded
  // by the domain instead of running off to +inf. All-wildcard patterns
  // never violate the chain property.
  void InsertDomainBounds(Cds* cds) {
    for (size_t a = 0; a < q_.atoms.size(); ++a) {
      const TrieIndex& index = *indexes_.at(a);
      for (size_t p = 0; p < atom_vars_[a].size(); ++p) {
        const int depth = atom_vars_[a][p];
        Constraint c;
        c.pattern.assign(depth, kWildcard);
        if (index.size() == 0) {
          c.lo = kNegInf;
          c.hi = kPosInf;
          cds->InsertConstraint(c);
          continue;
        }
        c.lo = kNegInf;
        c.hi = index.ColMin(static_cast<int>(p));
        if (c.lo < c.hi) cds->InsertConstraint(c);
        c.lo = index.ColMax(static_cast<int>(p));
        c.hi = kPosInf;
        if (c.lo < c.hi) cds->InsertConstraint(c);
      }
    }
  }

 private:
  const MsOptions& ms_;
  const BoundQuery& q_;
  const ExecOptions& opts_;
  ExecResult* result_;
  AtomIndexSet indexes_;
  std::vector<std::vector<int>> atom_vars_;  // sorted GAO positions per atom
  std::vector<bool> skeleton_;
  std::vector<ProbeCursor> cursors_;
  uint64_t last_depth_mask_ = 0;
};

}  // namespace

ExecResult MinesweeperEngine::Execute(const BoundQuery& q,
                                      const ExecOptions& opts) const {
  ExecResult result;
  // A degenerate x<x filter makes the query unsatisfiable; the gap-box
  // encoding below assumes lo != hi, so answer before entering the loop.
  for (const auto& [lo, hi] : q.less_than) {
    if (lo == hi) return result;
  }
  MsRun run(options_, q, opts, &result);
  run.Run();
  FinalizeExecStatus(&result, opts);
  return result;
}

}  // namespace wcoj
