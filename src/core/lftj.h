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
// Count mode (`collect_tuples == false`) counts without enumerating
// where the query's shape allows. At each search point the unbound
// variables are joined when they share an atom or a filter; when they
// fall into several components, the point's count is the product of the
// components' counts (the d-tree factorisation of Olteanu and Závodný,
// "Size Bounds for Factorised Representations of Query Results", TODS
// 2015), each component counted by the leapfrog search over its own
// variables in GAO order. In 2-comb, c and d are independent once a and
// b are bound, so the count per a is cnt_c(a) * sum over b of cnt_d(b).
//
// Each count is cached on its adhesion (Kalinsky, Etsion, Kimelfeld,
// "Flexible Caching in Trie Joins", EDBT 2017): every bound variable
// that shares an atom or a filter with the point's variables, whose
// values alone decide the count. A point whose adhesion is a strict
// subset of the bound variables keeps a flat open-addressed table from
// those values to that count, so a repeated suffix is solved once (in
// 3-path, |N(c) ∩ v2| once per c instead of once per (a,b) reaching c).
// A table is emptied when the search re-enters the first bound variable
// outside its adhesion, i.e. once no entry can match again; the tables'
// bytes are charged to `ExecOptions::budget`. A count cut short by stop,
// deadline or budget is never stored or multiplied, and a count past
// 2^64 - 1 fails the run with kResourceExhausted instead of wrapping,
// unless another factor of its product is 0. `var0_min`/`var0_max`
// restrict only the component holding variable 0. Cliques (every
// adhesion is the whole prefix) and `collect_tuples` runs enumerate
// exactly as the paper's LFTJ does; so does every run of the
// `lftj-nocache` ablation, which neither caches nor splits.

#include <vector>

#include "core/engine.h"
#include "storage/trie.h"

namespace wcoj {

class LftjEngine : public Engine {
 public:
  // `split_counts` false is the `lftj-nocache` ablation: count mode runs
  // the enumerating search.
  explicit LftjEngine(bool split_counts = true)
      : split_counts_(split_counts) {}

  std::string name() const override {
    return split_counts_ ? "lftj" : "lftj-nocache";
  }
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

 private:
  bool split_counts_;
};

}  // namespace wcoj

#endif  // WCOJ_CORE_LFTJ_H_
