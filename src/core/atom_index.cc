#include "core/atom_index.h"

namespace wcoj {

AtomIndexSet::AtomIndexSet(const BoundQuery& q, IndexCatalog* catalog,
                           EngineStats* stats,
                           const std::vector<const TrieIndex*>* prebuilt,
                           MemoryBudget* budget)
    : catalog_(catalog) {
  ptrs_.reserve(q.atoms.size());
  for (size_t a = 0; a < q.atoms.size(); ++a) {
    if (prebuilt != nullptr && (*prebuilt)[a] != nullptr) {
      ptrs_.push_back((*prebuilt)[a]);
      continue;
    }
    const BoundAtom& atom = q.atoms[a];
    Status build_status;
    const TrieIndex* index = catalog_.get()->GetOrBuildCounted(
        *atom.relation, GaoConsistentPerm(atom.vars), &stats->index_builds,
        &stats->index_cache_hits, budget, &build_status);
    if (index == nullptr && build_status.ok()) {
      build_status = Status(StatusCode::kInternal, "index build failed");
    }
    status_.Update(build_status);
    ptrs_.push_back(index);
  }
}

EngineStats WarmQueryIndexes(const BoundQuery& q) {
  EngineStats stats;
  if (q.catalog == nullptr) return stats;
  for (const BoundAtom& atom : q.atoms) {
    q.catalog->GetOrBuildCounted(*atom.relation, GaoConsistentPerm(atom.vars),
                                 &stats.index_builds,
                                 &stats.index_cache_hits);
  }
  return stats;
}

}  // namespace wcoj
