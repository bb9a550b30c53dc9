#include "vadalog/database.h"

#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace kgm::vadalog {
namespace {

Tuple T(std::initializer_list<int64_t> values) {
  Tuple t;
  for (int64_t v : values) t.push_back(Value(v));
  return t;
}

// The rows of one index walk, in walk order.
std::vector<uint32_t> Rows(Relation::RowRange range) {
  std::vector<uint32_t> out;
  for (uint32_t row : range) out.push_back(row);
  return out;
}

// Drains every staged tuple the way the engine does: PrepareStagedShard on
// each shard, then one DrainPrepared.
size_t Drain(Relation& rel) {
  for (size_t s = 0; s < rel.shard_count(); ++s) rel.PrepareStagedShard(s);
  return rel.DrainPrepared();
}

TEST(RelationTest, InsertDeduplicates) {
  Relation rel(2);
  EXPECT_TRUE(rel.Insert(T({1, 2})));
  EXPECT_FALSE(rel.Insert(T({1, 2})));
  EXPECT_TRUE(rel.Insert(T({2, 1})));
  EXPECT_EQ(rel.size(), 2u);
}

TEST(RelationTest, Contains) {
  Relation rel(2);
  rel.Insert(T({1, 2}));
  EXPECT_TRUE(rel.Contains(T({1, 2})));
  EXPECT_FALSE(rel.Contains(T({2, 2})));
}

TEST(RelationTest, MaskedLookup) {
  Relation rel(3);
  rel.Insert(T({1, 10, 100}));
  rel.Insert(T({1, 20, 200}));
  rel.Insert(T({2, 10, 300}));
  // Lookup on first position.
  Tuple probe = T({1, 0, 0});
  const auto& rows = rel.Lookup(0b001, probe);
  size_t matches = 0;
  for (uint32_t r : rows) {
    if (rel.MatchesMasked(r, 0b001, probe)) ++matches;
  }
  EXPECT_EQ(matches, 2u);
}

TEST(RelationTest, IndexMaintainedAcrossInserts) {
  Relation rel(2);
  rel.Insert(T({1, 10}));
  Tuple probe = T({1, 0});
  EXPECT_EQ(Rows(rel.Lookup(0b01, probe)).size(), 1u);
  // Insert after the index is built: index must pick it up.
  rel.Insert(T({1, 20}));
  EXPECT_EQ(Rows(rel.Lookup(0b01, probe)).size(), 2u);
}

TEST(RelationTest, MultiPositionMask) {
  Relation rel(3);
  rel.Insert(T({1, 10, 100}));
  rel.Insert(T({1, 10, 200}));
  rel.Insert(T({1, 20, 300}));
  Tuple probe = T({1, 10, 0});
  const auto& rows = rel.Lookup(0b011, probe);
  size_t matches = 0;
  for (uint32_t r : rows) {
    if (rel.MatchesMasked(r, 0b011, probe)) ++matches;
  }
  EXPECT_EQ(matches, 2u);
}

TEST(FactDbTest, GetOrCreateAndAdd) {
  FactDb db;
  EXPECT_EQ(db.Get("p"), nullptr);
  EXPECT_TRUE(db.Add("p", T({1, 2})));
  EXPECT_FALSE(db.Add("p", T({1, 2})));
  ASSERT_NE(db.Get("p"), nullptr);
  EXPECT_EQ(db.Get("p")->size(), 1u);
  EXPECT_EQ(db.TotalFacts(), 1u);
  EXPECT_EQ(db.Predicates(), (std::vector<std::string>{"p"}));
}

TEST(FactDbTest, DebugStringListsFacts) {
  FactDb db;
  db.Add("edge", {Value("a"), Value("b")});
  std::string s = db.DebugString();
  EXPECT_EQ(s, "edge(\"a\",\"b\")\n");
}

TEST(TupleHashTest, MaskedHashIgnoresUnmaskedPositions) {
  Tuple a = T({1, 999});
  Tuple b = T({1, 123});
  EXPECT_EQ(HashTupleMasked(a, 0b01), HashTupleMasked(b, 0b01));
  EXPECT_NE(HashTuple(a), HashTuple(b));
}

TEST(TupleHashTest, TupleHasherMatchesFreeFunctions) {
  Tuple t;
  t.push_back(Value("alpha"));
  t.push_back(Value(int64_t{42}));
  t.push_back(Value(3.25));
  TupleHasher hasher(t);
  EXPECT_EQ(hasher.full(), HashTuple(t));
  for (uint64_t mask = 0; mask < 8; ++mask) {
    EXPECT_EQ(hasher.Masked(mask), HashTupleMasked(t, mask)) << mask;
  }
  // Arities past the inline buffer take the heap path.
  Tuple wide;
  for (int64_t i = 0; i < 20; ++i) wide.push_back(Value(i));
  TupleHasher wide_hasher(wide);
  EXPECT_EQ(wide_hasher.full(), HashTuple(wide));
  EXPECT_EQ(wide_hasher.Masked(0xFFFFF), HashTupleMasked(wide, 0xFFFFF));
}

TEST(RelationShardTest, ShardCountRoundsUpToPowerOfTwo) {
  Relation rel(2, 5);
  EXPECT_EQ(rel.shard_count(), 8u);
  rel.Reshard(3);
  EXPECT_EQ(rel.shard_count(), 4u);
}

TEST(RelationShardTest, ReshardPreservesDedupAndIndexes) {
  Relation rel(2);
  for (int64_t i = 0; i < 100; ++i) rel.Insert(T({i, i * 10}));
  Tuple probe = T({7, 0});
  EXPECT_EQ(Rows(rel.Lookup(0b01, probe)).size(), 1u);
  rel.Reshard(16);
  EXPECT_EQ(rel.size(), 100u);
  for (int64_t i = 0; i < 100; ++i) {
    EXPECT_FALSE(rel.Insert(T({i, i * 10}))) << i;  // still deduplicated
    EXPECT_TRUE(rel.Contains(T({i, i * 10}))) << i;
  }
  EXPECT_EQ(Rows(rel.Lookup(0b01, probe)).size(), 1u);
}

TEST(RelationShardTest, StageInsertDedupsAgainstCanonicalAndStaged) {
  Relation rel(2, 4);
  rel.Insert(T({1, 2}));
  EXPECT_FALSE(rel.StageInsert({0, 0}, T({1, 2})));  // canonical duplicate
  EXPECT_TRUE(rel.StageInsert({0, 1}, T({3, 4})));
  // Same-barrier duplicates are staged (cheaply) and resolved at drain.
  EXPECT_TRUE(rel.StageInsert({1, 0}, T({3, 4})));
  EXPECT_EQ(rel.StagedCount(), 2u);
  EXPECT_EQ(rel.size(), 1u);  // canonical store untouched until the drain
  EXPECT_EQ(Drain(rel), 1u);
  EXPECT_EQ(rel.size(), 2u);
  EXPECT_EQ(rel.StagedCount(), 0u);
  EXPECT_TRUE(rel.Contains(T({3, 4})));
  EXPECT_FALSE(rel.Insert(T({3, 4})));  // drained rows are deduplicated
}

TEST(RelationShardTest, DrainOrdersByTagWithMinTagMerge) {
  Relation rel(1, 4);
  // Staged out of submission order; tuple 30 is staged both by item 5 and
  // by item 1 — the min-tag copy (1, 0) must win its drain position and
  // the (5, 0) copy must be dropped.
  EXPECT_TRUE(rel.StageInsert({5, 0}, T({30})));
  EXPECT_TRUE(rel.StageInsert({2, 0}, T({20})));
  EXPECT_TRUE(rel.StageInsert({1, 0}, T({30})));
  EXPECT_TRUE(rel.StageInsert({0, 1}, T({10})));
  EXPECT_TRUE(rel.StageInsert({0, 0}, T({5})));
  EXPECT_EQ(Drain(rel), 4u);
  ASSERT_EQ(rel.size(), 4u);
  EXPECT_EQ(rel.tuple(0), T({5}));   // (0, 0)
  EXPECT_EQ(rel.tuple(1), T({10}));  // (0, 1)
  EXPECT_EQ(rel.tuple(2), T({30}));  // (1, 0) beats (5, 0)
  EXPECT_EQ(rel.tuple(3), T({20}));  // (2, 0)
}

TEST(RelationShardTest, DrainMaintainsBuiltIndexes) {
  Relation rel(2, 4);
  rel.Insert(T({1, 10}));
  Tuple probe = T({1, 0});
  EXPECT_EQ(Rows(rel.Lookup(0b01, probe)).size(), 1u);
  EXPECT_TRUE(rel.StageInsert({0, 0}, T({1, 20})));
  Drain(rel);
  EXPECT_EQ(Rows(rel.Lookup(0b01, probe)).size(), 2u);
}

TEST(RelationShardTest, DiscardStagedDropsEverything) {
  Relation rel(1, 2);
  EXPECT_TRUE(rel.StageInsert({0, 0}, T({1})));
  EXPECT_TRUE(rel.StageInsert({0, 1}, T({2})));
  rel.DiscardStaged();
  EXPECT_EQ(rel.StagedCount(), 0u);
  EXPECT_EQ(Drain(rel), 0u);
  EXPECT_EQ(rel.size(), 0u);
}

TEST(RelationShardTest, CountersTrackAcceptedAndDuplicates) {
  Relation rel(1, 2);
  rel.Insert(T({1}));
  EXPECT_FALSE(rel.StageInsert({0, 0}, T({1})));  // canonical duplicate
  EXPECT_TRUE(rel.StageInsert({0, 1}, T({2})));
  EXPECT_TRUE(rel.StageInsert({0, 2}, T({2})));  // same-barrier duplicate
  // The same-barrier duplicate is reclassified when the drain drops it.
  EXPECT_EQ(Drain(rel), 1u);
  std::vector<ShardCounters> by_shard;
  ShardCounters total;
  rel.AccumulateShardCounters(&by_shard, &total);
  EXPECT_EQ(total.accepted, 1u);
  EXPECT_EQ(total.duplicates, 2u);
  EXPECT_EQ(by_shard.size(), 2u);
}

TEST(RelationShardTest, TwoPhaseDrainMaintainsBuiltIndexes) {
  Relation rel(2, 4);
  rel.Insert(T({1, 10}));
  Tuple probe = T({1, 0});
  EXPECT_EQ(Rows(rel.Lookup(0b01, probe)).size(), 1u);
  EXPECT_TRUE(rel.StageInsert({0, 0}, T({1, 20})));
  EXPECT_TRUE(rel.StageInsert({1, 0}, T({1, 30})));
  for (size_t s = 0; s < rel.shard_count(); ++s) rel.PrepareStagedShard(s);
  EXPECT_EQ(rel.DrainPrepared(), 2u);
  EXPECT_EQ(Rows(rel.Lookup(0b01, probe)).size(), 3u);
}

TEST(RelationShardTest, CloneIsDeepAndIndependent) {
  Relation rel(2, 4);
  for (int64_t i = 0; i < 50; ++i) rel.Insert(T({i, i * 2}));
  Tuple probe = T({7, 0});
  EXPECT_EQ(Rows(rel.Lookup(0b01, probe)).size(), 1u);  // build an index first

  Relation copy = rel.Clone();
  EXPECT_EQ(copy.size(), 50u);
  EXPECT_EQ(Rows(copy.Lookup(0b01, probe)).size(), 1u);
  for (int64_t i = 0; i < 50; ++i) {
    EXPECT_FALSE(copy.Insert(T({i, i * 2}))) << i;  // dedup state copied
  }
  // Mutating the clone leaves the original untouched.
  EXPECT_TRUE(copy.Insert(T({100, 200})));
  EXPECT_FALSE(rel.Contains(T({100, 200})));
  EXPECT_EQ(rel.size(), 50u);
}

TEST(FactDbTest, CloneIsCopyOnWriteBothWays) {
  FactDb db;
  db.Add("p", T({1}));
  db.Add("q", T({2}));
  FactDb copy = db.Clone();
  // The clone shares every relation by pointer.
  EXPECT_EQ(copy.Get("p"), db.Get("p"));
  EXPECT_EQ(copy.Get("q"), db.Get("q"));

  // Writing the clone copies only the relation written.
  const Relation* shared_p = db.Get("p");
  copy.Add("p", T({9}));
  EXPECT_NE(copy.Get("p"), shared_p);
  EXPECT_EQ(db.Get("p"), shared_p);
  EXPECT_EQ(db.Get("p")->size(), 1u);
  EXPECT_FALSE(db.Get("p")->Contains(T({9})));
  EXPECT_EQ(copy.Get("p")->size(), 2u);
  EXPECT_EQ(copy.Get("q"), db.Get("q"));
  EXPECT_EQ(copy.cow_copies(), 1u);

  // Writing the source copies too: the clone keeps the old contents.
  const Relation* shared_q = db.Get("q");
  db.Add("q", T({7}));
  EXPECT_NE(db.Get("q"), shared_q);
  EXPECT_EQ(copy.Get("q"), shared_q);
  EXPECT_EQ(copy.Get("q")->size(), 1u);
  EXPECT_FALSE(copy.Get("q")->Contains(T({7})));
  EXPECT_EQ(db.cow_copies(), 1u);

  // Each side now owns its copy and writes it in place.
  db.Add("q", T({8}));
  copy.Add("p", T({10}));
  EXPECT_EQ(db.cow_copies(), 1u);
  EXPECT_EQ(copy.cow_copies(), 1u);
}

TEST(FactDbTest, LastHolderWritesInPlace) {
  FactDb db;
  db.Add("p", T({1}));
  const Relation* before = db.Get("p");
  { FactDb copy = db.Clone(); }
  db.Add("p", T({2}));
  EXPECT_EQ(db.Get("p"), before);
  EXPECT_EQ(db.cow_copies(), 0u);
}

TEST(FactDbTest, AdoptedRelationIsReadInPlaceAndCopiedOnWrite) {
  auto base = std::make_shared<Relation>(1);
  base->Insert(T({1}));
  std::shared_ptr<const Relation> shared = base;
  base.reset();
  FactDb db;
  db.Adopt("p", shared);
  EXPECT_EQ(db.Get("p"), shared.get());
  EXPECT_EQ(db.Share("p"), shared);

  db.Add("p", T({2}));
  EXPECT_NE(db.Get("p"), shared.get());
  EXPECT_EQ(db.cow_copies(), 1u);
  EXPECT_EQ(shared->size(), 1u);
  EXPECT_EQ(db.Get("p")->size(), 2u);

  // An adopted relation is never written in place, even as the last
  // reference: the owner may have made it a const object.
  FactDb other;
  other.Adopt("p", std::move(shared));
  other.Add("p", T({3}));
  EXPECT_EQ(other.cow_copies(), 1u);
}

TEST(FactDbTest, ReshardAllLeavesSharedRelationsUntilWritten) {
  FactDb db;
  db.Add("p", T({1}));
  FactDb copy = db.Clone();
  copy.ReshardAll(4);
  EXPECT_EQ(copy.Get("p"), db.Get("p"));
  EXPECT_EQ(copy.Get("p")->shard_count(), 1u);
  copy.Add("p", T({2}));
  EXPECT_EQ(copy.Get("p")->shard_count(), 4u);
  EXPECT_EQ(db.Get("p")->shard_count(), 1u);
}

TEST(RelationIndexTest, CloneInheritsIndexesWithoutCountingBuilds) {
  Relation rel(2);
  for (int64_t i = 0; i < 20; ++i) rel.Insert(T({i % 4, i}));
  Tuple probe = T({1, 0});
  EXPECT_EQ(Rows(rel.Lookup(0b01, probe)).size(), 5u);
  EXPECT_EQ(Rows(rel.Lookup(0b01, probe)).size(), 5u);
  EXPECT_EQ(rel.index_builds(), 1u);

  Relation copy = rel.Clone();
  EXPECT_EQ(copy.index_builds(), 0u);
  ASSERT_TRUE(copy.TryLookupBuilt(0b01, probe).has_value());
  EXPECT_EQ(Rows(*copy.TryLookupBuilt(0b01, probe)).size(), 5u);
  // The copy's index is its own: inserts into it do not reach the source.
  EXPECT_TRUE(copy.Insert(T({1, 100})));
  EXPECT_EQ(Rows(copy.Lookup(0b01, probe)).size(), 6u);
  EXPECT_EQ(Rows(rel.Lookup(0b01, probe)).size(), 5u);
}

// Concurrent readers of one shared relation race to build each index: every
// mask is built exactly once and every probe sees the complete index.  Run
// under TSan via tools/check.sh.
TEST(RelationIndexTest, ConcurrentLazyBuildsPublishOneIndexPerMask) {
  auto rel = std::make_shared<Relation>(3);
  for (int64_t i = 0; i < 2000; ++i) rel->Insert(T({i % 7, i % 11, i}));
  std::shared_ptr<const Relation> shared = rel;
  const std::vector<uint64_t> masks = {0b001, 0b010, 0b011, 0b101};
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  std::vector<size_t> bad(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 50; ++round) {
        uint64_t mask = masks[(t + round) % masks.size()];
        Tuple probe = T({round % 7, round % 11, round});
        size_t hits = 0;
        for (uint32_t row : shared->Lookup(mask, probe)) {
          if (shared->MatchesMasked(row, mask, probe)) ++hits;
        }
        size_t expect = 0;
        for (size_t row = 0; row < shared->size(); ++row) {
          if (shared->MatchesMasked(row, mask, probe)) ++expect;
        }
        if (hits != expect) ++bad[t];
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(bad[t], 0u) << t;
  EXPECT_EQ(shared->index_builds(), masks.size());
}

// The rows a full scan finds for (mask, probe), in row order: what every
// index walk must yield once MatchesMasked filters hash collisions.
std::vector<uint32_t> ScanRows(const Relation& rel, uint64_t mask,
                               const Tuple& probe) {
  std::vector<uint32_t> out;
  for (size_t row = 0; row < rel.size(); ++row) {
    if (rel.MatchesMasked(row, mask, probe)) {
      out.push_back(static_cast<uint32_t>(row));
    }
  }
  return out;
}

std::vector<uint32_t> MatchingRows(const Relation& rel, uint64_t mask,
                                   const Tuple& probe) {
  std::vector<uint32_t> out;
  for (uint32_t row : rel.Lookup(mask, probe)) {
    if (rel.MatchesMasked(row, mask, probe)) out.push_back(row);
  }
  return out;
}

// The sequential join walks an index chain while head emission appends to
// the same relation: matching rows appended mid-walk must be visited, in
// row order, even when the appends grow the index's arrays.
TEST(RelationIndexTest, WalkVisitsRowsInsertedDuringTheWalk) {
  Relation rel(2);
  rel.Insert(T({1, 0}));
  rel.Insert(T({2, 0}));
  rel.Insert(T({1, 1}));
  const Tuple probe = T({1, 0});
  std::vector<uint32_t> visited;
  int64_t next = 2;
  for (uint32_t row : rel.Lookup(0b01, probe)) {
    if (!rel.MatchesMasked(row, 0b01, probe)) continue;
    visited.push_back(row);
    if (next < 40) {
      // Many fresh keys, so the slot table rehashes mid-walk, then one
      // more row for the walked key.
      for (int64_t k = 0; k < 20; ++k) rel.Insert(T({1000 * next + k, k}));
      rel.Insert(T({1, next++}));
    }
  }
  EXPECT_EQ(visited.size(), 40u);
  EXPECT_EQ(visited, ScanRows(rel, 0b01, probe));
}

// EraseTuples relinks every built index through the row remap: each index
// answers with the compacted row ids in order, keys whose rows are all gone
// answer nothing, and no index is rebuilt.
TEST(RelationIndexTest, EraseRemapsEveryBuiltIndex) {
  Relation rel(3);
  for (int64_t i = 0; i < 300; ++i) rel.Insert(T({i % 10, i % 7, i}));
  const std::vector<uint64_t> masks = {0b001, 0b010, 0b011};
  for (uint64_t mask : masks) rel.EnsureIndex(mask);
  std::vector<Tuple> erase;
  for (int64_t i = 0; i < 300; ++i) {
    if (i % 3 == 0 || i % 10 == 4) erase.push_back(T({i % 10, i % 7, i}));
  }
  EXPECT_EQ(rel.EraseTuples(erase), erase.size());
  EXPECT_EQ(rel.index_builds(), masks.size());
  // Appends after the erase link onto the relinked chains.
  rel.Insert(T({3, 3, 1000}));
  rel.Insert(T({5, 2, 1001}));
  for (uint64_t mask : masks) {
    for (int64_t a = 0; a < 10; ++a) {
      for (int64_t b = 0; b < 7; ++b) {
        const Tuple probe = T({a, b, 0});
        EXPECT_EQ(MatchingRows(rel, mask, probe), ScanRows(rel, mask, probe))
            << mask << " " << a << " " << b;
      }
    }
  }
  EXPECT_TRUE(Rows(rel.Lookup(0b001, T({4, 0, 0}))).empty());
  EXPECT_TRUE(Rows(rel.LookupBuilt(0b011, T({4, 4, 0}))).empty());
  EXPECT_EQ(rel.index_builds(), masks.size());
}

// A clone copies the indexes; appends to either side stay on that side,
// even where both append the same row id.
TEST(RelationIndexTest, CloneAndSourceDoNotSeeEachOthersAppends) {
  Relation rel(2);
  for (int64_t i = 0; i < 20; ++i) rel.Insert(T({i % 4, i}));
  const Tuple probe = T({1, 0});
  ASSERT_EQ(MatchingRows(rel, 0b01, probe).size(), 5u);
  Relation copy = rel.Clone();
  EXPECT_TRUE(rel.Insert(T({1, 100})));
  EXPECT_TRUE(copy.Insert(T({1, 200})));
  EXPECT_TRUE(copy.Insert(T({1, 201})));
  std::vector<uint32_t> in_rel = MatchingRows(rel, 0b01, probe);
  std::vector<uint32_t> in_copy = MatchingRows(copy, 0b01, probe);
  ASSERT_EQ(in_rel.size(), 6u);
  ASSERT_EQ(in_copy.size(), 7u);
  EXPECT_EQ(rel.tuple(in_rel.back()), T({1, 100}));
  EXPECT_EQ(copy.tuple(in_copy[5]), T({1, 200}));
  EXPECT_EQ(copy.tuple(in_copy[6]), T({1, 201}));
  EXPECT_EQ(in_rel, ScanRows(rel, 0b01, probe));
  EXPECT_EQ(in_copy, ScanRows(copy, 0b01, probe));
  EXPECT_EQ(copy.index_builds(), 0u);
}

TEST(FactDbTest, CloneCopiesEveryRelation) {
  FactDb db;
  db.Add("p", T({1}));
  db.Add("p", T({2}));
  db.Add("q", T({3}));
  FactDb copy = db.Clone();
  EXPECT_EQ(copy.TotalFacts(), 3u);
  EXPECT_TRUE(copy.Get("p")->Contains(T({1})));
  copy.Add("p", T({9}));
  EXPECT_EQ(db.Get("p")->size(), 2u);
  EXPECT_EQ(copy.Get("p")->size(), 3u);
}

TEST(FactDbTest, ReshardAllAppliesToExistingAndFutureRelations) {
  FactDb db;
  db.Add("p", T({1}));
  db.ReshardAll(4);
  EXPECT_EQ(db.default_shard_count(), 4u);
  EXPECT_EQ(db.Get("p")->shard_count(), 4u);
  db.Add("q", T({2}));
  EXPECT_EQ(db.Get("q")->shard_count(), 4u);
}

// --- dedup table ------------------------------------------------------------

// A tuple (a2, b2) whose full hash equals that of (a, b), found by
// inverting the last HashCombine of HashTuple and the integer case of
// Value::Hash.
Tuple CollidingTuple(int64_t a, int64_t b, int64_t a2) {
  constexpr size_t kGolden = 0x9e3779b97f4a7c15ULL;
  const size_t target = HashTuple(T({a, b}));
  const size_t prefix = HashTuple(T({a2}));
  const size_t hb2 = (target ^ prefix) - kGolden - (prefix << 6) - (prefix >> 2);
  const size_t seed = static_cast<size_t>(ValueKind::kInt) * kGolden;
  const size_t b2 = (hb2 ^ seed) - kGolden - (seed << 6) - (seed >> 2);
  return T({a2, static_cast<int64_t>(b2)});
}

// Checks the dedup answers of `rel` against the expected canonical rows
// and a list of tuples that must be absent.
void ExpectDedupAnswers(const Relation& rel, const std::vector<Tuple>& rows,
                        const std::vector<Tuple>& absent) {
  ASSERT_EQ(rel.tuples(), rows);
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_TRUE(rel.Contains(rows[i])) << i;
    EXPECT_EQ(rel.RowOf(rows[i]), i);
  }
  for (const Tuple& t : absent) {
    EXPECT_FALSE(rel.Contains(t));
    EXPECT_EQ(rel.RowOf(t), Relation::kNoRow);
  }
}

TEST(RelationDedupTest, SameAnswersThroughEveryMutationAtAnyShardCount) {
  for (size_t shards : {1u, 4u, 16u}) {
    SCOPED_TRACE(shards);
    Relation rel(2, shards);
    std::vector<Tuple> rows;
    std::vector<Tuple> absent = {T({-1, -1}), T({5000, 0})};
    // Enough rows to grow every shard's table several times, each inserted
    // twice, plus rows whose full hash collides with an earlier row.
    for (int64_t i = 0; i < 3000; ++i) {
      Tuple t = T({i, i % 7});
      EXPECT_TRUE(rel.Insert(t));
      EXPECT_FALSE(rel.Insert(t));
      rows.push_back(t);
      if (i % 100 == 0) {
        Tuple twin = CollidingTuple(i, i % 7, i + 100000);
        ASSERT_EQ(HashTuple(twin), HashTuple(t));
        EXPECT_TRUE(rel.Insert(twin));
        EXPECT_FALSE(rel.Insert(twin));
        rows.push_back(twin);
      }
    }
    ExpectDedupAnswers(rel, rows, absent);

    // Erase every third row, including hash twins; row ids compact.
    std::vector<Tuple> erase;
    std::vector<Tuple> kept;
    for (size_t i = 0; i < rows.size(); ++i) {
      (i % 3 == 0 ? erase : kept).push_back(rows[i]);
    }
    erase.push_back(T({-1, -1}));  // absent: ignored
    EXPECT_EQ(rel.EraseTuples(erase), erase.size() - 1);
    erase.pop_back();
    rows = kept;
    absent.insert(absent.end(), erase.begin(), erase.end());
    ExpectDedupAnswers(rel, rows, absent);

    rel.Reshard(shards * 2);
    ExpectDedupAnswers(rel, rows, absent);
    rel.Reshard(shards);
    ExpectDedupAnswers(rel, rows, absent);

    // A clone answers the same and stays independent.
    Relation copy = rel.Clone();
    ExpectDedupAnswers(copy, rows, absent);
    EXPECT_TRUE(copy.Insert(T({-1, -1})));
    EXPECT_FALSE(rel.Contains(T({-1, -1})));
    EXPECT_FALSE(rel.Insert(rows[5]));

    // Staged drains: erased rows come back, canonical duplicates are
    // rejected, same-barrier duplicates resolve to the minimum tag.
    uint32_t item = 0;
    for (size_t i = 0; i < erase.size(); i += 2) {
      EXPECT_TRUE(rel.StageInsert({item, 0}, erase[i]));
      EXPECT_FALSE(rel.StageInsert({item, 1}, rows[i % rows.size()]));
      EXPECT_TRUE(rel.StageInsert({item + 1, 0}, erase[i]));
      item += 2;
    }
    EXPECT_EQ(Drain(rel), (erase.size() + 1) / 2);
    for (size_t i = 0; i < erase.size(); i += 2) rows.push_back(erase[i]);
    std::vector<Tuple> still_absent;
    for (size_t i = 1; i < erase.size(); i += 2) {
      still_absent.push_back(erase[i]);
    }
    ExpectDedupAnswers(rel, rows, still_absent);

    // The two-phase drain leaves the same dedup state.
    for (size_t i = 1; i < erase.size(); i += 2) {
      EXPECT_TRUE(rel.StageInsert({item++, 0}, erase[i]));
    }
    for (size_t s = 0; s < rel.shard_count(); ++s) rel.PrepareStagedShard(s);
    EXPECT_EQ(rel.DrainPrepared(), erase.size() / 2);
    for (size_t i = 1; i < erase.size(); i += 2) rows.push_back(erase[i]);
    ExpectDedupAnswers(rel, rows, {T({-1, -1})});
  }
}

TEST(RelationInputMarkTest, MarkSurvivesCloneAndReshard) {
  Relation rel(1, 4);
  EXPECT_EQ(rel.input_rows(), 0u);
  for (int64_t i = 0; i < 10; ++i) rel.Insert(T({i}));
  rel.MarkInput();
  rel.Insert(T({10}));
  EXPECT_EQ(rel.input_rows(), 10u);
  EXPECT_EQ(rel.size(), 11u);
  Relation copy = rel.Clone();
  EXPECT_EQ(copy.input_rows(), 10u);
  copy.Reshard(16);
  EXPECT_EQ(copy.input_rows(), 10u);
}

TEST(RelationInputMarkTest, ErasingInputRowsLowersTheMark) {
  Relation rel(1);
  for (int64_t i = 0; i < 10; ++i) rel.Insert(T({i}));
  rel.MarkInput();
  for (int64_t i = 10; i < 15; ++i) rel.Insert(T({i}));
  // Two input rows and one derived row go: only the input rows count.
  EXPECT_EQ(rel.EraseTuples({T({0}), T({7}), T({12})}), 3u);
  EXPECT_EQ(rel.input_rows(), 8u);
  EXPECT_EQ(rel.tuple(rel.input_rows()), T({10}));
  EXPECT_EQ(rel.EraseTuples({T({13})}), 1u);
  EXPECT_EQ(rel.input_rows(), 8u);
}

TEST(FactDbTest, CopyOnWriteKeepsTheInputMark) {
  FactDb db;
  db.Add("p", T({1}));
  db.GetMutable("p")->MarkInput();
  FactDb copy = db.Clone();
  copy.Add("p", T({2}));
  EXPECT_EQ(copy.cow_copies(), 1u);
  EXPECT_EQ(copy.Get("p")->input_rows(), 1u);
  EXPECT_EQ(copy.Get("p")->size(), 2u);
}

}  // namespace
}  // namespace kgm::vadalog
