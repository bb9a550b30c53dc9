// KgService behavior: publication, the two cache layers, admission
// control, deadlines and the error taxonomy.

#include "service/service.h"

#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "vadalog/parser.h"

namespace kgm::service {
namespace {

// A chain of `n` Item nodes connected by LINK edges.
pg::PropertyGraph ChainGraph(int n) {
  pg::PropertyGraph g;
  std::vector<pg::NodeId> nodes;
  for (int i = 0; i < n; ++i) {
    nodes.push_back(g.AddNode("Item", {{"n", Value(int64_t{i})}}));
  }
  for (int i = 0; i + 1 < n; ++i) {
    g.AddEdge(nodes[i], nodes[i + 1], "LINK");
  }
  return g;
}

// Copies every LINK edge to a derived LINK2 edge.
const char kCopyLinks[] =
    "(x: Item)[: LINK](y: Item) -> exists e (x)[e: LINK2](y).";

QueryRequest CopyLinksRequest() {
  QueryRequest request;
  request.program = kCopyLinks;
  request.language = QueryLanguage::kMetaLog;
  request.output = "LINK2";
  return request;
}

TEST(ServiceTest, QueryBeforePublishFails) {
  KgService svc;
  auto result = svc.Query(CopyLinksRequest());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST(ServiceTest, PublishAndQuery) {
  KgService svc;
  EXPECT_EQ(svc.CurrentEpoch(), 0u);
  const uint64_t epoch = svc.Publish(ChainGraph(6));
  EXPECT_EQ(epoch, 1u);
  EXPECT_EQ(svc.CurrentEpoch(), 1u);

  auto result = svc.Query(CopyLinksRequest());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->epoch, 1u);
  EXPECT_FALSE(result->result_cache_hit);
  EXPECT_EQ(result->rows->size(), 5u);  // 5 LINK edges copied
  // Edge encoding: oid, from, to (LINK2 has no properties).
  ASSERT_EQ(result->columns.size(), 3u);
  EXPECT_EQ(result->columns[0], "oid");
  EXPECT_EQ(result->columns[1], "from");
  EXPECT_EQ(result->columns[2], "to");
}

TEST(ServiceTest, ResultCacheHitOnRepeat) {
  KgService svc;
  svc.Publish(ChainGraph(5));
  auto first = svc.Query(CopyLinksRequest());
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_FALSE(first->result_cache_hit);

  auto second = svc.Query(CopyLinksRequest());
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_TRUE(second->result_cache_hit);
  // The cached rows are shared, not recomputed.
  EXPECT_EQ(second->rows.get(), first->rows.get());

  StatsSnapshot stats = svc.Stats();
  EXPECT_EQ(stats.result_cache_hits, 1u);
  EXPECT_EQ(stats.result_cache_misses, 1u);
  EXPECT_EQ(stats.queries_ok, 2u);
}

TEST(ServiceTest, ResultCacheCanBeBypassed) {
  KgService svc;
  svc.Publish(ChainGraph(5));
  QueryRequest request = CopyLinksRequest();
  request.use_result_cache = false;
  auto first = svc.Query(request);
  auto second = svc.Query(request);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second->result_cache_hit);
  EXPECT_NE(second->rows.get(), first->rows.get());
}

TEST(ServiceTest, PreparedCacheReusedAcrossEpochs) {
  KgService svc;
  svc.Publish(ChainGraph(4));
  ASSERT_TRUE(svc.Query(CopyLinksRequest()).ok());
  // Same label catalog, so the compiled program is reused even though the
  // result cache was invalidated.
  svc.Publish(ChainGraph(7));
  auto result = svc.Query(CopyLinksRequest());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->epoch, 2u);
  EXPECT_FALSE(result->result_cache_hit);
  EXPECT_EQ(result->rows->size(), 6u);

  StatsSnapshot stats = svc.Stats();
  EXPECT_EQ(stats.prepared_cache_misses, 1u);
  EXPECT_EQ(stats.prepared_cache_hits, 1u);
}

TEST(ServiceTest, PublishInvalidatesResultCache) {
  KgService svc;
  svc.Publish(ChainGraph(5));
  auto before = svc.Query(CopyLinksRequest());
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->rows->size(), 4u);

  svc.Publish(ChainGraph(9));
  auto after = svc.Query(CopyLinksRequest());
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after->result_cache_hit);
  EXPECT_EQ(after->epoch, 2u);
  EXPECT_EQ(after->rows->size(), 8u);
}

TEST(ServiceTest, CompileErrorIsReported) {
  KgService svc;
  svc.Publish(ChainGraph(3));
  QueryRequest request;
  request.program = "this is not metalog";
  request.output = "X";
  auto result = svc.Query(request);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
      << result.status().ToString();

  StatsSnapshot stats = svc.Stats();
  EXPECT_EQ(stats.queries_failed, 1u);
}

TEST(ServiceTest, VadalogQueryRunsOverEncoding) {
  KgService svc;
  svc.Publish(ChainGraph(4));
  QueryRequest request;
  // The encoding exposes LINK edges as LINK(oid, from, to).
  request.program =
      "LINK(e, x, y) -> hop(x, y).\n"
      "hop(x, y), LINK(e, y, z) -> hop(x, z).";
  request.language = QueryLanguage::kVadalog;
  request.output = "hop";
  auto result = svc.Query(request);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Closure of a 3-edge chain: 3 + 2 + 1 pairs.
  EXPECT_EQ(result->rows->size(), 6u);
}

TEST(ServiceTest, ZeroCapacityQueueRejectsDeterministically) {
  KgServiceOptions options;
  options.queue_capacity = 0;
  KgService svc(options);
  svc.Publish(ChainGraph(3));

  auto queued = svc.Query(CopyLinksRequest());
  ASSERT_FALSE(queued.ok());
  EXPECT_EQ(queued.status().code(), StatusCode::kUnavailable);

  // Execute bypasses admission control and still works.
  auto direct = svc.Execute(CopyLinksRequest());
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  EXPECT_EQ(direct->rows->size(), 2u);

  StatsSnapshot stats = svc.Stats();
  EXPECT_EQ(stats.queue_rejected, 1u);
}

TEST(ServiceTest, DeadlineExceededThroughService) {
  KgService svc;
  svc.Publish(ChainGraph(3));
  // A big closure with a 1ms budget: the engine's cooperative checks cut
  // it off mid-fixpoint.
  std::ostringstream program;
  const int n = 400;
  for (int i = 0; i < n; ++i) {
    program << "@fact edge(" << i << ", " << (i + 1) % n << ").\n";
  }
  program << "edge(x, y) -> path(x, y).\n";
  program << "path(x, y), edge(y, z) -> path(x, z).\n";

  QueryRequest request;
  request.program = program.str();
  request.language = QueryLanguage::kVadalog;
  request.output = "path";
  request.timeout_ms = 1;
  auto result = svc.Query(request);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded)
      << result.status().ToString();

  StatsSnapshot stats = svc.Stats();
  EXPECT_EQ(stats.deadline_exceeded, 1u);
}

TEST(ServiceTest, StatsJsonIsWellFormed) {
  KgService svc;
  svc.Publish(ChainGraph(3));
  ASSERT_TRUE(svc.Query(CopyLinksRequest()).ok());
  std::string json = svc.Stats().ToJson();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"queries_ok\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"epoch\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"latency_p50\":"), std::string::npos) << json;
}

// Builds a one-delete + one-insert LINK delta from the snapshot's own
// encoding: the deleted tuple is the first LINK row; the inserted tuple
// recombines existing oids/endpoints into a row the relation doesn't have.
vadalog::EdbDelta OneLinkDelta(const Snapshot& snap,
                               vadalog::Tuple* removed_out = nullptr,
                               vadalog::Tuple* added_out = nullptr) {
  const vadalog::Relation& link = *snap.facts.at("LINK");
  vadalog::Tuple removed = link.tuple(0);
  // (oid of edge 1, source of edge 0, target of edge 1): a fresh row on any
  // chain of >= 3 nodes.
  vadalog::Tuple added = {link.tuple(1)[0], link.tuple(0)[1],
                          link.tuple(1)[2]};
  EXPECT_FALSE(link.Contains(added));
  vadalog::EdbDelta delta;
  delta.deletes["LINK"].push_back(removed);
  delta.inserts["LINK"].push_back(added);
  if (removed_out != nullptr) *removed_out = std::move(removed);
  if (added_out != nullptr) *added_out = std::move(added);
  return delta;
}

TEST(ServiceTest, ApplyDeltaPublishesStructurallySharedSnapshot) {
  KgService svc;
  svc.Publish(ChainGraph(5));
  std::shared_ptr<const Snapshot> snap1 = svc.CurrentSnapshot();
  ASSERT_NE(snap1, nullptr);

  vadalog::Tuple removed, added;
  auto epoch = svc.ApplyDelta(OneLinkDelta(*snap1, &removed, &added));
  ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();
  EXPECT_EQ(*epoch, 2u);

  std::shared_ptr<const Snapshot> snap2 = svc.CurrentSnapshot();
  ASSERT_NE(snap2, nullptr);
  EXPECT_TRUE(snap2->is_delta);
  // Only the touched relation is re-materialized; everything else — the
  // Item relation, the property graph — is shared with epoch 1 by pointer.
  EXPECT_EQ(snap2->facts.at("Item").get(), snap1->facts.at("Item").get());
  EXPECT_NE(snap2->facts.at("LINK").get(), snap1->facts.at("LINK").get());
  EXPECT_EQ(snap2->graph.get(), snap1->graph.get());
  EXPECT_FALSE(snap2->facts.at("LINK")->Contains(removed));
  EXPECT_TRUE(snap2->facts.at("LINK")->Contains(added));
  // The old snapshot is untouched: a pinned reader still sees epoch 1.
  EXPECT_TRUE(snap1->facts.at("LINK")->Contains(removed));

  // Queries run against the delta-applied encoding (4 - 1 + 1 edges).
  auto result = svc.Query(CopyLinksRequest());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->epoch, 2u);
  EXPECT_EQ(result->rows->size(), 4u);

  StatsSnapshot stats = svc.Stats();
  EXPECT_EQ(stats.publishes, 2u);       // full + delta
  EXPECT_EQ(stats.delta_publishes, 1u);
  EXPECT_EQ(stats.epoch, 2u);
}

TEST(ServiceTest, ApplyDeltaCarriesForwardUntouchedResults) {
  KgService svc;
  svc.Publish(ChainGraph(5));

  // One query that reads only Item, one that reads LINK.
  QueryRequest items;
  items.program = "Item(o, n) -> item_copy(o, n).";
  items.language = QueryLanguage::kVadalog;
  items.output = "item_copy";
  auto items_before = svc.Query(items);
  ASSERT_TRUE(items_before.ok()) << items_before.status().ToString();
  EXPECT_FALSE(items_before->result_cache_hit);
  ASSERT_TRUE(svc.Query(CopyLinksRequest()).ok());

  auto epoch = svc.ApplyDelta(OneLinkDelta(*svc.CurrentSnapshot()));
  ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();

  // The Item-only entry was carried to the new epoch: hit, shared rows.
  auto items_after = svc.Query(items);
  ASSERT_TRUE(items_after.ok()) << items_after.status().ToString();
  EXPECT_TRUE(items_after->result_cache_hit);
  EXPECT_EQ(items_after->epoch, 2u);
  EXPECT_EQ(items_after->rows.get(), items_before->rows.get());

  // The LINK-reading entry was not: the delta changed its input relation.
  auto links_after = svc.Query(CopyLinksRequest());
  ASSERT_TRUE(links_after.ok()) << links_after.status().ToString();
  EXPECT_FALSE(links_after->result_cache_hit);
  EXPECT_EQ(links_after->epoch, 2u);
}

TEST(ServiceTest, DeltaSnapshotRejectsEncodingWideningQueries) {
  KgService svc;
  svc.Publish(ChainGraph(4));
  ASSERT_TRUE(svc.ApplyDelta(OneLinkDelta(*svc.CurrentSnapshot())).ok());

  // Mentions an unseen Item property: on a full snapshot this falls back
  // to re-encoding the graph, but a delta snapshot's graph is stale — the
  // service must refuse rather than silently dropping the delta.
  QueryRequest request;
  request.program =
      "(x: Item; extra: v)[: LINK](y: Item) -> exists e (x)[e: LINK3](y).";
  request.output = "LINK3";
  auto result = svc.Query(request);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition)
      << result.status().ToString();

  // Publishing a full graph clears the condition.
  svc.Publish(ChainGraph(4));
  auto retried = svc.Query(request);
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  EXPECT_TRUE(retried->fresh_encoding);
}

TEST(ServiceTest, ApplyDeltaValidatesPredicatesAndArity) {
  KgService svc;

  vadalog::EdbDelta delta;
  delta.inserts["LINK"].push_back({Value(int64_t{1})});
  auto before_publish = svc.ApplyDelta(delta);
  ASSERT_FALSE(before_publish.ok());
  EXPECT_EQ(before_publish.status().code(), StatusCode::kFailedPrecondition);

  svc.Publish(ChainGraph(3));

  vadalog::EdbDelta unknown;
  unknown.inserts["NO_SUCH_RELATION"].push_back({Value(int64_t{1})});
  auto unknown_result = svc.ApplyDelta(unknown);
  ASSERT_FALSE(unknown_result.ok());
  EXPECT_EQ(unknown_result.status().code(), StatusCode::kInvalidArgument);

  vadalog::EdbDelta bad_arity;
  bad_arity.deletes["LINK"].push_back({Value(int64_t{1})});  // LINK is arity 3
  auto arity_result = svc.ApplyDelta(bad_arity);
  ASSERT_FALSE(arity_result.ok());
  EXPECT_EQ(arity_result.status().code(), StatusCode::kInvalidArgument);

  // Rejected deltas publish nothing.
  EXPECT_EQ(svc.CurrentEpoch(), 1u);
  EXPECT_EQ(svc.Stats().delta_publishes, 0u);
}

TEST(ServiceTest, StatsCountRejectionsSeparatelyFromCompletedQueries) {
  KgServiceOptions options;
  options.queue_capacity = 0;  // every Query() is bounced at admission
  KgService svc(options);
  svc.Publish(ChainGraph(4));

  // Two completed-ok, one completed-failed (all via Execute, which bypasses
  // admission), and three admission rejections.
  ASSERT_TRUE(svc.Execute(CopyLinksRequest()).ok());
  QueryRequest uncached = CopyLinksRequest();
  uncached.use_result_cache = false;
  ASSERT_TRUE(svc.Execute(uncached).ok());
  QueryRequest bad;
  bad.program = "this is not metalog";
  bad.output = "X";
  ASSERT_FALSE(svc.Execute(bad).ok());
  for (int i = 0; i < 3; ++i) {
    auto rejected = svc.Query(CopyLinksRequest());
    ASSERT_FALSE(rejected.ok());
    EXPECT_EQ(rejected.status().code(), StatusCode::kUnavailable);
  }

  StatsSnapshot stats = svc.Stats();
  EXPECT_EQ(stats.queries_ok, 2u);
  EXPECT_EQ(stats.queries_failed, 1u);
  EXPECT_EQ(stats.deadline_exceeded, 0u);
  EXPECT_EQ(stats.queue_rejected, 3u);
  // The contract: queries_total counts completed queries only — rejections
  // are reported separately and never inflate throughput.
  EXPECT_EQ(stats.queries_total,
            stats.queries_ok + stats.queries_failed + stats.deadline_exceeded);
  EXPECT_EQ(stats.queries_total, 3u);
  ASSERT_GT(stats.uptime_seconds, 0.0);
  EXPECT_NEAR(stats.qps * stats.uptime_seconds,
              static_cast<double>(stats.queries_total), 1e-6);

  std::string json = stats.ToJson();
  EXPECT_NE(json.find("\"queries_total\":3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"queue_rejected\":3"), std::string::npos) << json;
}

TEST(ServiceTest, WidenedCatalogFallsBackToFreshEncoding) {
  KgService svc;
  svc.Publish(ChainGraph(4));
  // Mentions an Item property the graph never had: the compiled catalog
  // widens Item's property list, so the snapshot encoding is incompatible
  // and the graph is re-encoded for this query.
  QueryRequest request;
  request.program =
      "(x: Item; extra: v)[: LINK](y: Item) -> exists e (x)[e: LINK3](y).";
  request.output = "LINK3";
  auto result = svc.Query(request);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->fresh_encoding);
}

// ------------------------------------------------------------- Point query

// The closure-over-LINK program the point-query tests share.
QueryRequest HopClosureRequest() {
  QueryRequest request;
  request.program =
      "LINK(e, x, y) -> hop(x, y).\n"
      "hop(x, y), LINK(e, y, z) -> hop(x, z).";
  request.language = QueryLanguage::kVadalog;
  request.output = "hop";
  return request;
}

TEST(ServiceTest, PointQueryRoutesThroughMagicAndMatchesMaterialize) {
  KgService svc;
  svc.Publish(ChainGraph(8));
  const Value source = svc.CurrentSnapshot()->facts.at("LINK")->tuple(0)[1];

  QueryRequest request = HopClosureRequest();
  request.use_result_cache = false;
  request.bound_args = {source, std::nullopt};
  auto magic = svc.Query(request);
  ASSERT_TRUE(magic.ok()) << magic.status().ToString();
  EXPECT_EQ(magic->point_mode, vadalog::magic::PointQueryMode::kMagic)
      << magic->point_fallback;
  // Bound on the chain head: the whole 7-hop suffix.
  EXPECT_EQ(magic->rows->size(), 7u);
  for (const vadalog::Tuple& t : *magic->rows) EXPECT_EQ(t[0], source);

  request.use_point_query = false;
  auto baseline = svc.Query(request);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  EXPECT_EQ(baseline->point_mode, vadalog::magic::PointQueryMode::kMaterialize);
  EXPECT_EQ(baseline->rows->size(), magic->rows->size());
  // The rewrite only explores the bound cone; the baseline pays the full
  // closure plus the output filter scan.
  EXPECT_LT(magic->join_probes, baseline->join_probes);

  // An extensional output with a binding is a plain indexed lookup.
  QueryRequest edb = HopClosureRequest();
  edb.output = "LINK";
  edb.use_result_cache = false;
  edb.bound_args = {std::nullopt, source, std::nullopt};
  auto lookup = svc.Query(edb);
  ASSERT_TRUE(lookup.ok()) << lookup.status().ToString();
  EXPECT_EQ(lookup->point_mode, vadalog::magic::PointQueryMode::kEdbLookup);
  EXPECT_EQ(lookup->rows->size(), 1u);

  StatsSnapshot stats = svc.Stats();
  EXPECT_EQ(stats.point_magic, 1u);
  EXPECT_EQ(stats.point_materialize, 1u);
  EXPECT_EQ(stats.point_edb_lookup, 1u);
  EXPECT_EQ(stats.point_queries, 3u);
  EXPECT_GE(stats.magic_rewrites, 1u);
  EXPECT_GT(stats.magic_probes, 0u);
  std::string json = stats.ToJson();
  EXPECT_NE(json.find("\"magic\":{\"point_queries\":3"), std::string::npos)
      << json;
}

TEST(ServiceTest, PointQueryResultCacheKeysOnBindingAndRoute) {
  KgService svc;
  svc.Publish(ChainGraph(6));
  const vadalog::Relation& link = *svc.CurrentSnapshot()->facts.at("LINK");

  QueryRequest request = HopClosureRequest();
  request.bound_args = {link.tuple(0)[1], std::nullopt};
  auto first = svc.Query(request);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_FALSE(first->result_cache_hit);

  // Same binding again: a hit that restores the recorded routing outcome.
  auto repeat = svc.Query(request);
  ASSERT_TRUE(repeat.ok()) << repeat.status().ToString();
  EXPECT_TRUE(repeat->result_cache_hit);
  EXPECT_EQ(repeat->rows.get(), first->rows.get());
  EXPECT_EQ(repeat->point_mode, first->point_mode);
  EXPECT_EQ(repeat->join_probes, first->join_probes);

  // A different binding is a different entry.
  QueryRequest other = request;
  other.bound_args = {link.tuple(1)[1], std::nullopt};
  auto different = svc.Query(other);
  ASSERT_TRUE(different.ok()) << different.status().ToString();
  EXPECT_FALSE(different->result_cache_hit);

  // Same binding, forced-materialize route: the rows agree but the
  // recorded counters don't, so it must not share the magic entry.
  QueryRequest forced = request;
  forced.use_point_query = false;
  auto baseline = svc.Query(forced);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  EXPECT_FALSE(baseline->result_cache_hit);
  EXPECT_EQ(baseline->rows->size(), first->rows->size());

  // Value equality is type-strict, so an int binding and a double
  // binding that render alike have different answer sets; the key
  // serializer must not collapse them (42 vs 42.0 share ToString
  // output).
  QueryRequest as_int = request;
  as_int.bound_args = {Value(int64_t{42}), std::nullopt};
  auto int_bound = svc.Query(as_int);
  ASSERT_TRUE(int_bound.ok()) << int_bound.status().ToString();
  EXPECT_FALSE(int_bound->result_cache_hit);
  QueryRequest as_double = request;
  as_double.bound_args = {Value(42.0), std::nullopt};
  auto double_bound = svc.Query(as_double);
  ASSERT_TRUE(double_bound.ok()) << double_bound.status().ToString();
  EXPECT_FALSE(double_bound->result_cache_hit);

  // A bound request and the unbound request never collide either.
  auto unbound = svc.Query(HopClosureRequest());
  ASSERT_TRUE(unbound.ok()) << unbound.status().ToString();
  EXPECT_FALSE(unbound->result_cache_hit);
  EXPECT_EQ(unbound->point_mode, vadalog::magic::PointQueryMode::kOff);
  EXPECT_GT(unbound->rows->size(), first->rows->size());
}

// ------------------------------------------------- Copy-on-write snapshots

// Pointer, version and content fingerprint of every snapshot relation.
struct RelationState {
  const vadalog::Relation* ptr;
  uint64_t version;
  uint64_t content_hash;
  bool operator==(const RelationState&) const = default;
};

std::map<std::string, RelationState> StateOf(const Snapshot& snap) {
  std::map<std::string, RelationState> out;
  for (const auto& [pred, rel] : snap.facts) {
    out.emplace(pred,
                RelationState{rel.get(), rel->version(), rel->content_hash()});
  }
  return out;
}

TEST(ServiceTest, QueriesReadSnapshotRelationsInPlace) {
  KgService svc;
  svc.Publish(ChainGraph(8));
  std::shared_ptr<const Snapshot> snap = svc.CurrentSnapshot();
  const std::map<std::string, RelationState> before = StateOf(*snap);
  const Value source = snap->facts.at("LINK")->tuple(0)[1];

  // An uncached magic point query: the evaluation's database reads every
  // snapshot relation in place, since no rule writes one.
  auto program = vadalog::ParseProgram(HopClosureRequest().program);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  vadalog::FactDb db = snap->CloneFacts();
  vadalog::magic::PointQueryStats pq_stats;
  auto answers = vadalog::magic::EvalPointQuery(
      *program, {"hop", {source, std::nullopt}}, &db, {}, &pq_stats);
  ASSERT_TRUE(answers.ok()) << answers.status().ToString();
  EXPECT_EQ(pq_stats.mode, vadalog::magic::PointQueryMode::kMagic);
  EXPECT_EQ(answers->size(), 7u);
  for (const auto& [pred, rel] : snap->facts) {
    EXPECT_EQ(db.Get(pred), rel.get()) << pred;
  }
  EXPECT_EQ(db.cow_copies(), 0u);

  // A MetaLog read deriving a new label shares them the same way.
  auto compiled = svc.prepared_cache().Compile(kCopyLinks, snap->catalog);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  vadalog::FactDb meta_db = snap->CloneFacts();
  vadalog::Engine engine((*compiled)->program);
  ASSERT_TRUE(engine.Run(&meta_db).ok());
  for (const auto& [pred, rel] : snap->facts) {
    EXPECT_EQ(meta_db.Get(pred), rel.get()) << pred;
  }
  EXPECT_EQ(meta_db.cow_copies(), 0u);

  // The same two queries through the service leave every snapshot
  // relation as it was: same object, same version, same contents.
  QueryRequest point = HopClosureRequest();
  point.use_result_cache = false;
  point.bound_args = {source, std::nullopt};
  ASSERT_TRUE(svc.Query(point).ok());
  QueryRequest meta = CopyLinksRequest();
  meta.use_result_cache = false;
  ASSERT_TRUE(svc.Query(meta).ok());
  EXPECT_EQ(svc.CurrentSnapshot(), snap);
  EXPECT_TRUE(StateOf(*snap) == before);
}

TEST(ServiceTest, DerivingIntoAnExtensionalLabelCopiesOnlyThatRelation) {
  KgService svc;
  svc.Publish(ChainGraph(5));
  std::shared_ptr<const Snapshot> snap = svc.CurrentSnapshot();
  const std::map<std::string, RelationState> before = StateOf(*snap);

  // Closes LINK over itself: 4 chain edges become all 10 forward pairs.
  QueryRequest request;
  request.program = "LINK(e, x, y), LINK(f, y, z) -> LINK(e, x, z).";
  request.language = QueryLanguage::kVadalog;
  request.output = "LINK";
  request.use_result_cache = false;
  auto closed = svc.Query(request);
  ASSERT_TRUE(closed.ok()) << closed.status().ToString();
  EXPECT_EQ(closed->rows->size(), 10u);
  EXPECT_EQ(svc.Stats().cow_relation_copies, 1u);

  // The snapshot still holds the 4 published edges, and the next query
  // sees exactly those.
  EXPECT_TRUE(StateOf(*snap) == before);
  EXPECT_EQ(snap->facts.at("LINK")->size(), 4u);
  auto copied = svc.Query(CopyLinksRequest());
  ASSERT_TRUE(copied.ok()) << copied.status().ToString();
  EXPECT_EQ(copied->rows->size(), 4u);
  auto again = svc.Query(request);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again->rows->size(), 10u);
  EXPECT_EQ(svc.Stats().cow_relation_copies, 2u);
}

TEST(ServiceTest, CountersShowNoCopiesAndOneIndexBuildPerMask) {
  KgService svc;
  svc.Publish(ChainGraph(10));
  // Publication builds no index; queries build them on first use.
  EXPECT_EQ(svc.Stats().shared_index_builds, 0u);

  // Pinned: the delta below retires epoch 1, whose LINK rows we keep using.
  std::shared_ptr<const Snapshot> first = svc.CurrentSnapshot();
  const vadalog::Relation& link = *first->facts.at("LINK");
  auto reach = [&](size_t row) {
    QueryRequest request = HopClosureRequest();
    request.use_result_cache = false;
    request.bound_args = {link.tuple(row)[1], std::nullopt};
    auto result = svc.Query(request);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->point_mode, vadalog::magic::PointQueryMode::kMagic);
  };
  reach(0);
  const uint64_t builds = svc.Stats().shared_index_builds;
  EXPECT_GE(builds, 1u);
  // Later reach queries, same bound mask, reuse the indexes.
  for (size_t row = 1; row < 5; ++row) reach(row);
  StatsSnapshot stats = svc.Stats();
  EXPECT_EQ(stats.shared_index_builds, builds);
  EXPECT_EQ(stats.cow_relation_copies, 0u);

  // A new mask on LINK (bound target) builds exactly one more index, once.
  QueryRequest lookup;
  lookup.program = HopClosureRequest().program;
  lookup.language = QueryLanguage::kVadalog;
  lookup.output = "LINK";
  lookup.use_result_cache = false;
  lookup.bound_args = {std::nullopt, std::nullopt, link.tuple(3)[2]};
  for (int i = 0; i < 3; ++i) {
    auto result = svc.Query(lookup);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->point_mode, vadalog::magic::PointQueryMode::kEdbLookup);
    EXPECT_EQ(result->rows->size(), 1u);
  }
  stats = svc.Stats();
  EXPECT_EQ(stats.shared_index_builds, builds + 1);
  EXPECT_EQ(stats.cow_relation_copies, 0u);
  std::string json = stats.ToJson();
  EXPECT_NE(json.find("\"cow_relation_copies\":0"), std::string::npos) << json;
  EXPECT_NE(json.find("\"shared_index_builds\":" +
                      std::to_string(builds + 1)),
            std::string::npos)
      << json;

  // A delta epoch's LINK is a clone that inherits the built indexes, so
  // the same queries on it build nothing.
  ASSERT_TRUE(svc.ApplyDelta(OneLinkDelta(*svc.CurrentSnapshot())).ok());
  const uint64_t delta_builds = svc.Stats().shared_index_builds;
  for (size_t row = 1; row < 3; ++row) {
    QueryRequest request = HopClosureRequest();
    request.use_result_cache = false;
    request.bound_args = {link.tuple(row + 3)[1], std::nullopt};
    ASSERT_TRUE(svc.Query(request).ok());
  }
  ASSERT_TRUE(svc.Query(lookup).ok());
  EXPECT_EQ(svc.Stats().shared_index_builds, delta_builds);
  EXPECT_EQ(svc.Stats().cow_relation_copies, 0u);
}

}  // namespace
}  // namespace kgm::service
