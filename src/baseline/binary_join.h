#ifndef WCOJ_BASELINE_BINARY_JOIN_H_
#define WCOJ_BASELINE_BINARY_JOIN_H_

// Pairwise join executor over a Selinger-style plan: the stand-in for
// the conventional relational systems the paper benchmarks (PostgreSQL /
// MonetDB). Each plan step joins the materialized intermediate with the
// next atom by probing the catalog's sorted trie index on that atom, as
// a LogicBlox pairwise plan probes its resident indexes; no hash join
// remains. On cyclic graph patterns the intermediates blow up by the
// Ω(sqrt(N)) factor the paper attributes to all pairwise optimizers,
// which is exactly the behaviour the comparison needs.

#include "core/engine.h"

namespace wcoj {

enum class BinaryJoinFlavor {
  kRowStore,     // "psql": DP-optimized left-deep plan
  kColumnStore,  // "monetdb": greedy smallest-first plan
};

class BinaryJoinEngine : public Engine {
 public:
  explicit BinaryJoinEngine(BinaryJoinFlavor flavor) : flavor_(flavor) {}

  std::string name() const override {
    return flavor_ == BinaryJoinFlavor::kRowStore ? "psql" : "monetdb";
  }
  ExecResult Execute(const BoundQuery& q,
                     const ExecOptions& opts) const override;
  // Probes catalog indexes permuted by plan step, not by GAO.
  CatalogWarmup catalog_warmup() const override {
    return CatalogWarmup::kByExecution;
  }

 private:
  BinaryJoinFlavor flavor_;
};

}  // namespace wcoj

#endif  // WCOJ_BASELINE_BINARY_JOIN_H_
