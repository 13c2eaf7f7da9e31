#include <gtest/gtest.h>

#include <vector>

#include "core/engine.h"
#include "core/incremental.h"
#include "graph/generators.h"
#include "graph/sampling.h"
#include "query/parser.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace wcoj {
namespace {

TEST(IncrementalTest, TriangleInsertOneEdge) {
  // Path 0-1-2; inserting (0,2) closes one (ordered) triangle.
  Relation edge = Relation::FromTuples(2, {{0, 1}, {1, 2}});
  Query q = MustParseQuery("e(a,b), e(b,c), e(a,c)");
  BoundQuery bq = Bind(q, {{"e", &edge}}, {"a", "b", "c"});
  IncrementalCountView view = IncrementalCountView::ForRelation(bq, &edge);
  EXPECT_EQ(view.count(), 0u);
  EXPECT_EQ(view.ApplyInserts({{0, 2}}), 1);
  EXPECT_EQ(view.count(), 1u);
  // Deleting it again restores zero.
  EXPECT_EQ(view.ApplyDeletes({{0, 2}}), -1);
  EXPECT_EQ(view.count(), 0u);
}

TEST(IncrementalTest, DuplicateAndAbsentTuplesAreNoOps) {
  Relation edge = Relation::FromTuples(2, {{0, 1}, {1, 2}, {0, 2}});
  Query q = MustParseQuery("e(a,b), e(b,c), e(a,c)");
  BoundQuery bq = Bind(q, {{"e", &edge}}, {"a", "b", "c"});
  IncrementalCountView view = IncrementalCountView::ForRelation(bq, &edge);
  const uint64_t base = view.count();
  EXPECT_EQ(view.ApplyInserts({{0, 1}}), 0);   // already present
  EXPECT_EQ(view.ApplyDeletes({{7, 9}}), 0);   // absent
  EXPECT_EQ(view.count(), base);
}

// An engine failure is the view's status, never a count: the clique
// engine has no program for a 2-path, so the view fails with
// kUnimplemented (an LFTJ view reads 2, then 3) and later updates
// change nothing.
TEST(IncrementalTest, EngineFailureLatchesInsteadOfCountingZero) {
  Relation edge = Relation::FromTuples(2, {{0, 1}, {1, 2}, {2, 3}});
  Query q = MustParseQuery("e(a,b), e(b,c)");
  BoundQuery bq = Bind(q, {{"e", &edge}}, {"a", "b", "c"});
  IncrementalCountView lftj_view = IncrementalCountView::ForRelation(bq, &edge);
  ASSERT_TRUE(lftj_view.status().ok()) << lftj_view.status().ToString();
  EXPECT_EQ(lftj_view.count(), 2u);
  EXPECT_EQ(lftj_view.ApplyInserts({{3, 4}}), 1);
  EXPECT_EQ(lftj_view.count(), 3u);

  IncrementalCountView::Options options;
  options.engine = "clique";
  IncrementalCountView view =
      IncrementalCountView::ForRelation(bq, &edge, options);
  EXPECT_EQ(view.status().code(), StatusCode::kUnimplemented);
  EXPECT_EQ(view.ApplyInserts({{3, 4}}), 0);
  EXPECT_EQ(view.ApplyDeletes({{0, 1}}), 0);
  EXPECT_EQ(view.current().size(), edge.size());  // nothing applied
  EXPECT_EQ(view.status().code(), StatusCode::kUnimplemented);
}

// Property sweep: maintained counts equal recomputation after random
// insert/delete batches, across query shapes (including self-joins with
// 2-4 occurrences of the mutable relation and static side relations).
struct ViewCase {
  const char* query;
  std::vector<std::string> gao;
};

const ViewCase kViewCases[] = {
    {"e(a,b), e(b,c), e(a,c), a<b<c", {"a", "b", "c"}},
    {"e(a,b), e(b,c)", {"a", "b", "c"}},
    {"v1(a), v2(d), e(a,b), e(b,c), e(c,d)", {"a", "b", "c", "d"}},
    {"e(a,b), e(b,c), e(c,d), e(a,d), a<b<c<d", {"a", "b", "c", "d"}},
};

class IncrementalSweepTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(IncrementalSweepTest, MaintainedCountMatchesRecompute) {
  const auto& [case_idx, seed] = GetParam();
  const ViewCase& c = kViewCases[case_idx];
  Rng rng(9000 + seed);
  Graph g = ErdosRenyi(16, 30, 400 + seed);
  Relation edge = g.EdgeRelationSymmetric();
  Relation v1 = SampleNodes(g, 2.0, seed + 1);
  Relation v2 = SampleNodes(g, 2.0, seed + 2);
  Query q = MustParseQuery(c.query);
  BoundQuery bq =
      Bind(q, {{"e", &edge}, {"v1", &v1}, {"v2", &v2}}, c.gao);
  IncrementalCountView view = IncrementalCountView::ForRelation(bq, &edge);

  for (int batch = 0; batch < 6; ++batch) {
    // Random batch of inserts or deletes (symmetric pairs, like the
    // engines' edge relations).
    std::vector<Tuple> tuples;
    for (int i = 0; i < 4; ++i) {
      const Value u = static_cast<Value>(rng.NextBounded(16));
      const Value v = static_cast<Value>(rng.NextBounded(16));
      if (u == v) continue;
      tuples.push_back({u, v});
      tuples.push_back({v, u});
    }
    if (batch % 2 == 0) {
      view.ApplyInserts(tuples);
    } else {
      view.ApplyDeletes(tuples);
    }
    // Recompute from scratch over the view's current relation.
    BoundQuery fresh = bq;
    for (auto& atom : fresh.atoms) {
      if (atom.relation == &edge) atom.relation = &view.current();
    }
    const uint64_t expected =
        CreateEngine("lftj")->Execute(fresh, ExecOptions{}).count;
    ASSERT_EQ(view.count(), expected)
        << c.query << " batch " << batch;
  }
}

INSTANTIATE_TEST_SUITE_P(
    CasesBySeeds, IncrementalSweepTest,
    ::testing::Combine(::testing::Range(0, 4), ::testing::Range(0, 4)),
    [](const auto& info) {
      return "q" + std::to_string(std::get<0>(info.param)) + "_s" +
             std::to_string(std::get<1>(info.param));
    });

TEST(IncrementalTest, MinesweeperEngineOnWarmScratchMatchesDefault) {
  // A view can run its telescoping terms on any engine; with a
  // Minesweeper flavor plus a caller-owned ExecScratch, every
  // maintenance run draws its CDS from one warm arena. Counts must be
  // identical to the default LFTJ view throughout.
  Rng rng(77);
  Graph g = ErdosRenyi(16, 30, 500);
  Relation edge = g.EdgeRelationSymmetric();
  Query q = MustParseQuery("e(a,b), e(b,c), e(a,c), a<b<c");
  BoundQuery bq = Bind(q, {{"e", &edge}}, {"a", "b", "c"});
  IncrementalCountView lftj_view =
      IncrementalCountView::ForRelation(bq, &edge);
  ExecScratch scratch;
  IncrementalCountView::Options options;
  options.engine = "ms";
  options.scratch = &scratch;
  IncrementalCountView ms_view =
      IncrementalCountView::ForRelation(bq, &edge, options);
  EXPECT_EQ(ms_view.count(), lftj_view.count());
  for (int batch = 0; batch < 4; ++batch) {
    std::vector<Tuple> tuples;
    for (int i = 0; i < 4; ++i) {
      const Value u = static_cast<Value>(rng.NextBounded(16));
      const Value v = static_cast<Value>(rng.NextBounded(16));
      if (u != v) {
        tuples.push_back({u, v});
        tuples.push_back({v, u});
      }
    }
    if (batch % 2 == 0) {
      EXPECT_EQ(ms_view.ApplyInserts(tuples), lftj_view.ApplyInserts(tuples));
    } else {
      EXPECT_EQ(ms_view.ApplyDeletes(tuples), lftj_view.ApplyDeletes(tuples));
    }
    EXPECT_EQ(ms_view.count(), lftj_view.count()) << "batch " << batch;
  }
}

}  // namespace
}  // namespace wcoj
