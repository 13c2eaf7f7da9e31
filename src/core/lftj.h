#ifndef WCOJ_CORE_LFTJ_H_
#define WCOJ_CORE_LFTJ_H_

// Leapfrog Triejoin (Veldhuizen '14): the worst-case optimal multiway join
// (§2.2 of the paper). Variables are processed in GAO order; at each depth
// the participating atoms' trie iterators are intersected with a unary
// leapfrog join, turning the whole join into nested intersections. Runs in
// O~(N + AGM(Q)).
//
// Inequality filters (`a<b`) are enforced at binding time: when the
// later GAO variable of a filter is bound, the intersection is seeked
// directly past (or stopped at) the earlier variable's value, which is
// what makes the `a<b<c` clique encodings effective.
//
// Count mode (`collect_tuples == false`) caches suffix counts (Kalinsky,
// Etsion, Kimelfeld, "Flexible Caching in Trie Joins", EDBT 2017). The
// adhesion of depth k is every earlier variable that shares an atom or a
// filter with some variable >= k; the number of completions below k
// depends on the adhesion's values alone. Each depth whose adhesion is a
// strict subset of its prefix keeps a flat open-addressed table from
// those values to that count, so a repeated suffix is solved once (in
// 3-path, |N(c) ∩ v2| once per c instead of once per (a,b) reaching c).
// A depth's table is emptied when the search re-enters the first GAO
// variable outside its adhesion, i.e. once no entry can match again; the
// tables' bytes are charged to `ExecOptions::budget`. A subtree cut short
// by stop, deadline or budget is never stored, and a count past 2^64 - 1
// fails the run with kResourceExhausted instead of wrapping. Cliques
// (every adhesion is the whole prefix) and `collect_tuples` runs
// enumerate exactly as the paper's LFTJ does.

#include <vector>

#include "core/engine.h"
#include "storage/trie.h"

namespace wcoj {

class LftjEngine : public Engine {
 public:
  std::string name() const override { return "lftj"; }
  ExecResult Execute(const BoundQuery& q,
                     const ExecOptions& opts) const override;

  // Like Execute, but reuses caller-owned per-atom trie indexes (aligned
  // with q.atoms; each must be ordered by the atom's GAO positions). Used
  // by callers that issue many LFTJ calls over the same relations — the
  // hybrid engine invokes LFTJ once per junction value and must not
  // re-sort the suffix relations every time.
  ExecResult ExecuteWithIndexes(const BoundQuery& q, const ExecOptions& opts,
                                const std::vector<const TrieIndex*>& indexes)
      const;
};

}  // namespace wcoj

#endif  // WCOJ_CORE_LFTJ_H_
