// kgbench: one benchmark for the KGModel stack.
//
//   kgbench --workload e2_control|pq_reach|serve_mixed --seed N
//           --seconds S --trace 0|1 [--out-dir DIR] [--git-sha SHA]
//
// Workloads (README.md gives the rationale and the metric map):
//   e2_control   repeated staged instance::Materialize of the control
//                component over a 20k-company ownership graph (the
//                paper's experiment E2);
//   pq_reach     closed-loop bound reach(c, ?) point queries through
//                KgService::Query, result cache off;
//   serve_mixed  closed-loop cached reads beside an open-loop writer that
//                applies UpdateFeed batches with KgService::ApplyDelta.
//
// --trace 0 measures the end-to-end metrics with nothing but the public
// calls a user would make.  --trace 1 runs the same workload with spans
// around each call into a layer's public functions, made from this file
// only, and reports the per-layer metrics.  Every output is checked against
// an oracle computed at set-up; a mismatch sets "correct" to false and the
// exit code to 1.  The last line of stdout is the raw JSON result, every
// measured value by name; run.py picks the metrics BENCHMARK.json declares.
// A readable report goes to stderr, and the result plus the raw spans are
// written under --out-dir.

#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "finkg/company_kg.h"
#include "finkg/generator.h"
#include "finkg/update_feed.h"
#include "instance/loader.h"
#include "instance/pipeline.h"
#include "instance/views.h"
#include "lint/lint.h"
#include "metalog/catalog.h"
#include "metalog/mtv.h"
#include "metalog/parser.h"
#include "metalog/runner.h"
#include "oracle.h"
#include "service/service.h"
#include "stats.h"
#include "trace.h"
#include "vadalog/magic/magic.h"
#include "vadalog/magic/point_query.h"
#include "vadalog/parser.h"

#ifndef KGBENCH_BUILD_TYPE
#define KGBENCH_BUILD_TYPE "unknown"
#endif
#ifndef KGBENCH_COMPILER
#define KGBENCH_COMPILER "unknown"
#endif

namespace kgbench {
namespace {

using Clock = std::chrono::steady_clock;
using kgm::Value;
namespace finkg = kgm::finkg;
namespace magic = kgm::vadalog::magic;
namespace metalog = kgm::metalog;
namespace pg = kgm::pg;
namespace service = kgm::service;
namespace vadalog = kgm::vadalog;

// Input sizes: the ROADMAP's headline sizes (E2 at >= 20k companies, point
// queries at >= 5k companies).
constexpr size_t kE2Companies = 20000;
constexpr size_t kE2Persons = 30000;
constexpr size_t kServeCompanies = 5000;
constexpr size_t kServePersons = 7500;
// Set-up is repeated and its median reported, so set-up cost is steady.
constexpr int kSetupRounds = 25;
// E2 runs at least this many materializations whatever --seconds says.
constexpr size_t kMinMaterializations = 5;
// Bound reach queries draw from this many seeded owner oids.
constexpr size_t kBindings = 64;
// serve_mixed: one round is a delta batch of kDeltaBatchRows rows, then
// kRoundReads reads, exactly one of them (a fixed share) an unbound MetaLog
// control query.
constexpr size_t kDeltaBatchRows = 32;
constexpr size_t kRoundReads = 16;
// Traced runs decompose one read in kDecomposeEvery into the public calls
// the service worker makes; the others go through KgService::Query.
constexpr uint64_t kDecomposeEvery = 4;

// examples/programs/reach.vlog: transitive ownership reach.
constexpr const char kReachProgram[] =
    "@input(\"OWNS\").\n"
    "OWNS(_e, x, y, _w) -> reach(x, y).\n"
    "reach(x, y), OWNS(_e, y, z, _w) -> reach(x, z).\n"
    "@output(\"reach\").\n";

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

size_t Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<size_t>(std::max(1, CPU_COUNT(&set)));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

// Returns freed heap to the system and restarts the kernel's peak-RSS
// count, so that the peak read at the end covers only the timed phase and
// not the set-up rounds or the oracles.  False when /proc refuses.
bool ResetPeakRss() {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  return clear.good();
}

// The process's peak RSS (VmHWM) since the last ResetPeakRss.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Metrics.  Every run reports every metric it measures; a layer a workload
// never calls reads 0.  BENCHMARK.json names the metrics and their units,
// and run.py selects and orders them from this program's output.

// Span name -> per-layer metric: the median over root spans (requests,
// set-up rounds, deltas) that contain the span of the summed self time.
struct SpanMetric {
  const char* span;
  const char* metric;
  double per_ns;  // unit conversion from nanoseconds
};

constexpr SpanMetric kSpanMetrics[] = {
    {"instance.load", "instance.load_s", 1e-9},
    {"instance.views", "instance.views_s", 1e-9},
    {"instance.release", "instance.release_s", 1e-9},
    {"metalog.encode", "metalog.encode_s", 1e-9},
    {"metalog.compile", "metalog.compile_s", 1e-9},
    {"metalog.decode", "metalog.decode_s", 1e-9},
    {"vadalog.parse", "vadalog.parse_ms", 1e-6},
    {"vadalog.init", "vadalog.init_s", 1e-9},
    {"vadalog.fixpoint", "vadalog.fixpoint_s", 1e-9},
    {"magic.rewrite", "magic.rewrite_ms", 1e-6},
    {"magic.eval", "magic.eval_ms", 1e-6},
    {"lint.admission", "lint.admission_ms", 1e-6},
    {"service.pin", "service.pin_ms", 1e-6},
    {"service.clone", "service.clone_ms", 1e-6},
    {"service.copy_out", "service.copy_out_ms", 1e-6},
    {"service.release", "service.release_ms", 1e-6},
    {"service.publish", "service.publish_s", 1e-9},
    {"service.apply_delta", "service.apply_delta_ms", 1e-6},
};

// Root span names.  Only "request" roots are decomposed into layer spans;
// coverage is measured over them.
constexpr const char kRequestRoot[] = "request";
constexpr const char kQueryRoot[] = "query";  // one undecomposed public call
constexpr const char kSetupRoot[] = "setup";
constexpr const char kProbeRoot[] = "probe";  // one call timed apart

// Record of output-check failures.
class Checks {
 public:
  void Fail(const std::string& what) {
    ok_ = false;
    if (messages_.size() < 8) messages_.push_back(what);
  }
  bool ok() const { return ok_; }
  const std::vector<std::string>& messages() const { return messages_; }

 private:
  bool ok_ = true;
  std::vector<std::string> messages_;
};

// Named samples of one run (counts, latencies).
using Samples = std::map<std::string, std::vector<double>>;

double MedianOr0(const Samples& samples, const std::string& name) {
  auto it = samples.find(name);
  return it == samples.end() || it->second.empty() ? 0
                                                   : Median(it->second);
}

double MeanOr0(const Samples& samples, const std::string& name) {
  auto it = samples.find(name);
  if (it == samples.end() || it->second.empty()) return 0;
  double sum = 0;
  for (double v : it->second) sum += v;
  return sum / static_cast<double>(it->second.size());
}

// Engine counters of one evaluation, as per-layer samples.
void RecordEngineStats(const vadalog::EngineStats& stats, Samples* samples) {
  (*samples)["vadalog.join_probes"].push_back(
      static_cast<double>(stats.join_probes));
  (*samples)["vadalog.facts_derived"].push_back(
      static_cast<double>(stats.facts_derived));
  (*samples)["vadalog.iterations"].push_back(
      static_cast<double>(stats.iterations));
  (*samples)["vadalog.threads_used"].push_back(
      static_cast<double>(stats.threads_used));
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir;
  std::string git_sha = "unknown";
};

// Everything one workload run produces.
struct RunOutput {
  size_t attempted = 0;
  size_t failed = 0;
  Samples samples;       // "op_ms", "write_ms", "setup_s", counters...
  double op_per_s = 0;   // completed operations per second
  service::StatsSnapshot service_stats;  // all 0 when no service runs
  size_t snapshot_facts = 0;
  std::vector<std::pair<std::string, std::string>> inputs;
  SpanLog spans;
  size_t engine_threads = 0;
  bool rss_reset = false;  // peak RSS covers the timed phase only
  double peak_rss_mb = 0;  // read when the timed phase ends
};

// ---------------------------------------------------------------------------
// Helpers shared by the workloads.

// Span around `fn` when tracing, a plain call otherwise.
template <typename Fn>
auto InSpan(SpanLog* log, const char* name, int parent, uint64_t request,
            Fn&& fn) {
  if (log == nullptr) return fn();
  ScopedSpan span(*log, name, parent, request);
  return fn();
}

// Deterministic Fisher-Yates (std::shuffle's draw is library-defined).
template <typename T>
void SeededShuffle(std::vector<T>* v, uint64_t seed) {
  std::mt19937_64 rng(seed);
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[rng() % i]);
  }
}

double Uniform01(std::mt19937_64& rng) {
  return static_cast<double>(rng() >> 11) * 0x1.0p-53;
}

// (from, to) of every OWNS row (oid, from, to, percentage...).
bool OwnsEdges(const vadalog::Relation& owns,
               std::vector<std::pair<int64_t, int64_t>>* edges) {
  edges->clear();
  for (const vadalog::Tuple& t : owns.tuples()) {
    if (t.size() < 3 || !t[1].is_int() || !t[2].is_int()) return false;
    edges->emplace_back(t[1].AsInt(), t[2].AsInt());
  }
  return true;
}

const vadalog::Relation* SnapshotOwns(const service::Snapshot& snap) {
  auto it = snap.facts.find("OWNS");
  return it == snap.facts.end() ? nullptr : it->second.get();
}

// `count` distinct owner oids of OWNS, seeded; every one has a non-empty
// reach cone since it owns something.
std::vector<int64_t> PickOwners(const vadalog::Relation& owns, size_t count,
                                uint64_t seed) {
  std::vector<int64_t> owners;
  std::set<int64_t> seen;
  for (const vadalog::Tuple& t : owns.tuples()) {
    if (t[1].is_int() && seen.insert(t[1].AsInt()).second) {
      owners.push_back(t[1].AsInt());
    }
  }
  SeededShuffle(&owners, seed);
  if (owners.size() > count) owners.resize(count);
  return owners;
}

service::QueryRequest ReachRequest(int64_t source, bool use_cache) {
  service::QueryRequest request;
  request.program = kReachProgram;
  request.language = service::QueryLanguage::kVadalog;
  request.output = "reach";
  request.use_result_cache = use_cache;
  request.bound_args = {Value(source), std::nullopt};
  return request;
}

service::QueryRequest ControlRequest() {
  service::QueryRequest request;
  request.program = finkg::kControlProgram;
  request.language = service::QueryLanguage::kMetaLog;
  request.output = "CONTROLS";
  return request;
}

// Checks reach answer rows (x, y) against the oracle's sorted y set.
bool ReachAnswerMatches(const std::vector<vadalog::Tuple>& rows,
                        int64_t source, const std::vector<int64_t>& expect) {
  std::vector<int64_t> got;
  got.reserve(rows.size());
  for (const vadalog::Tuple& t : rows) {
    if (t.size() != 2 || !t[0].is_int() || t[0].AsInt() != source ||
        !t[1].is_int()) {
      return false;
    }
    got.push_back(t[1].AsInt());
  }
  std::sort(got.begin(), got.end());
  return got == expect;
}

// The service set-up shared by pq_reach and serve_mixed: generate the
// network, build the ownership graph with persons, publish it.  Repeated
// kSetupRounds times; the last service is kept.
std::unique_ptr<service::KgService> SetUpService(const Args& args,
                                                 bool result_cache,
                                                 SpanLog* log,
                                                 uint64_t* ids,
                                                 RunOutput* out) {
  service::KgServiceOptions options;
  options.num_workers = Nproc();
  options.queue_capacity = std::max<size_t>(64, 4 * Nproc());
  if (!result_cache) options.result_cache_capacity = 0;
  finkg::GeneratorConfig config;
  config.num_companies = kServeCompanies;
  config.num_persons = kServePersons;
  config.seed = args.seed;

  std::unique_ptr<service::KgService> svc;
  for (int round = 0; round < kSetupRounds; ++round) {
    svc.reset();  // joins the previous round's pool outside the timing
    const uint64_t id = (*ids)++;
    std::optional<ScopedSpan> root;
    if (log != nullptr) root.emplace(*log, kSetupRoot, -1, id);
    const int parent = root ? root->id() : -1;
    const Clock::time_point t0 = Clock::now();
    finkg::ShareholdingNetwork net =
        finkg::ShareholdingNetwork::Generate(config);
    pg::PropertyGraph graph = net.ToOwnershipGraph(/*include_persons=*/true);
    svc = std::make_unique<service::KgService>(options);
    const Clock::time_point p0 = Clock::now();
    InSpan(log, "service.publish", parent, id,
           [&] { return svc->Publish(std::move(graph)); });
    const Clock::time_point t1 = Clock::now();
    out->samples["setup_s"].push_back(Seconds(t0, t1));
    out->samples["publish_ms"].push_back(Seconds(p0, t1) * 1e3);
    if (log != nullptr) {
      // Publish encodes the graph internally; re-encode the published
      // graph beside it so the encoding layer's share of set-up shows.
      std::shared_ptr<const service::Snapshot> snap = svc->CurrentSnapshot();
      vadalog::FactDb encoded =
          InSpan(log, "metalog.encode", parent, id, [&] {
            return metalog::EncodeGraph(*snap->graph, snap->catalog);
          });
    }
  }
  std::shared_ptr<const service::Snapshot> snap = svc->CurrentSnapshot();
  const vadalog::Relation* owns = SnapshotOwns(*snap);
  out->inputs = {{"companies", std::to_string(kServeCompanies)},
                 {"persons", std::to_string(kServePersons)},
                 {"owns_rows", std::to_string(owns ? owns->size() : 0)},
                 {"snapshot_facts", std::to_string(snap->TotalFacts())},
                 {"service_workers", std::to_string(options.num_workers)}};
  out->snapshot_facts = snap->TotalFacts();
  return svc;
}

// One bound reach query decomposed into the public calls
// KgService::EvaluateOnSnapshot makes for an uncached Vadalog point query,
// in its order, each in a span.  EvalPointQuery rewrites the program
// itself; TimeRewrites times the rewrite apart.  Returns the answer rows.
std::optional<std::vector<vadalog::Tuple>> DecomposedReach(
    service::KgService& svc, int64_t source, SpanLog& log, uint64_t id,
    Samples* samples, uint64_t* epoch) {
  ScopedSpan root(log, kRequestRoot, -1, id);
  const int p = root.id();
  std::shared_ptr<const service::Snapshot> snap =
      InSpan(&log, "service.pin", p, id, [&] { return svc.CurrentSnapshot(); });
  *epoch = snap->epoch;
  auto program = InSpan(&log, "vadalog.parse", p, id,
                        [&] { return vadalog::ParseProgram(kReachProgram); });
  if (!program.ok()) return std::nullopt;
  const bool lint_errors = InSpan(&log, "lint.admission", p, id, [&] {
    kgm::lint::LintOptions options;
    for (const std::string& l : snap->catalog.NodeLabels()) {
      options.external_predicates.push_back(l);
    }
    for (const std::string& l : snap->catalog.EdgeLabels()) {
      options.external_predicates.push_back(l);
    }
    return kgm::lint::RunLints(*program, options).has_errors();
  });
  if (lint_errors) return std::nullopt;
  vadalog::FactDb db =
      InSpan(&log, "service.clone", p, id, [&] { return snap->CloneFacts(); });
  const magic::QueryBinding binding{"reach", {Value(source), std::nullopt}};
  magic::PointQueryOptions options;
  options.engine.num_threads = 1;  // as KgServiceOptions configures queries
  magic::PointQueryStats stats;
  auto answers = InSpan(&log, "magic.eval", p, id, [&] {
    return magic::EvalPointQuery(*program, binding, &db, options, &stats);
  });
  InSpan(&log, "service.release", p, id, [&] {
    vadalog::FactDb released = std::move(db);
    return released.Predicates().size();
  });
  if (!answers.ok()) return std::nullopt;
  RecordEngineStats(stats.engine, samples);
  (*samples)["magic.fallback"].push_back(
      stats.mode == magic::PointQueryMode::kMagic ? 0 : 1);
  if (stats.mode == magic::PointQueryMode::kMagic) {
    (*samples)["magic.probes"].push_back(
        static_cast<double>(stats.engine.join_probes));
  }
  return std::move(answers).value();
}

// magic::RewriteForQuery, which EvalPointQuery calls internally, timed once
// per binding at set-up under its own root, outside the requests and their
// coverage.
void TimeRewrites(const service::Snapshot& snap,
                  const std::vector<int64_t>& sources, SpanLog& log,
                  uint64_t* ids) {
  auto program = vadalog::ParseProgram(kReachProgram);
  if (!program.ok()) return;
  std::set<std::string> edb;
  for (const auto& [pred, relation] : snap.facts) edb.insert(pred);
  for (int64_t source : sources) {
    const uint64_t id = (*ids)++;
    ScopedSpan root(log, kProbeRoot, -1, id);
    const magic::QueryBinding binding{"reach", {Value(source), std::nullopt}};
    InSpan(&log, "magic.rewrite", root.id(), id, [&] {
      return magic::RewriteForQuery(*program, binding, edb).magic_rules;
    });
  }
}

// One unbound MetaLog query decomposed like DecomposedReach: pin, compile
// through the service's prepared cache, clone, run, copy rows, release.
std::optional<size_t> DecomposedControl(service::KgService& svc,
                                        SpanLog& log, uint64_t id,
                                        Samples* samples, uint64_t* epoch) {
  ScopedSpan root(log, kRequestRoot, -1, id);
  const int p = root.id();
  std::shared_ptr<const service::Snapshot> snap =
      InSpan(&log, "service.pin", p, id, [&] { return svc.CurrentSnapshot(); });
  *epoch = snap->epoch;
  auto compiled = InSpan(&log, "metalog.compile", p, id, [&] {
    return svc.prepared_cache().Compile(finkg::kControlProgram,
                                        snap->catalog);
  });
  if (!compiled.ok() || (*compiled)->lint.has_errors() ||
      !service::EncodingCompatible(snap->catalog, (*compiled)->catalog)) {
    return std::nullopt;
  }
  vadalog::FactDb db =
      InSpan(&log, "service.clone", p, id, [&] { return snap->CloneFacts(); });
  vadalog::EngineOptions options;
  options.num_threads = 1;
  auto engine = InSpan(&log, "vadalog.init", p, id, [&] {
    return std::make_unique<vadalog::Engine>((*compiled)->program, options);
  });
  const kgm::Status run = InSpan(&log, "vadalog.fixpoint", p, id, [&] {
    return engine->status().ok() ? engine->Run(&db) : engine->status();
  });
  std::vector<vadalog::Tuple> rows = InSpan(&log, "service.copy_out", p, id, [&] {
    const vadalog::Relation* rel = db.Get("CONTROLS");
    return rel == nullptr ? std::vector<vadalog::Tuple>{} : rel->tuples();
  });
  InSpan(&log, "service.release", p, id, [&] {
    vadalog::FactDb released = std::move(db);
    return released.Predicates().size();
  });
  if (!run.ok()) return std::nullopt;
  RecordEngineStats(engine->stats(), samples);
  return rows.size();
}

// ---------------------------------------------------------------------------
// e2_control

// E2 runs the engine on one thread.  The default, nproc threads, was at
// most 7% faster on a quiet 4-CPU host and slower on a busy one, and with
// every vCPU busy the materialization time followed the host's other load:
// over the same 6 seeds the run medians ranged over 27% with 4 threads and
// 11% with 1.
kgm::instance::MaterializeOptions E2Options() {
  kgm::instance::MaterializeOptions options;
  options.engine.num_threads = 1;
  return options;
}

struct StagedOutcome {
  size_t controls = 0;       // CONTROLS edges staged for the flush
  vadalog::EngineStats stats;
};

// The public calls instance::Materialize makes before its flush, in its
// order, each in a span (the flush has no public entry point).
kgm::Result<StagedOutcome> DecomposedMaterialize(
    const kgm::core::SuperSchema& schema, const pg::PropertyGraph& data,
    SpanLog& log, int p, uint64_t id) {
  const kgm::instance::MaterializeOptions options = E2Options();
  const int64_t oid = options.instance_oid;
  auto sigma = InSpan(&log, "instance.views", p, id, [&] {
    return metalog::ParseMetaProgram(finkg::kControlProgram);
  });
  if (!sigma.ok()) return sigma.status();
  auto loaded = InSpan(&log, "instance.load", p, id, [&] {
    return kgm::instance::LoadInstance(schema, data, oid);
  });
  if (!loaded.ok()) return loaded.status();
  metalog::MetaProgram combined;
  metalog::GraphCatalog extra;
  kgm::Status views = InSpan(&log, "instance.views", p, id, [&] {
    auto input = kgm::instance::GenerateInputViews(schema, *sigma, oid);
    if (!input.ok()) return input.status();
    auto output = kgm::instance::GenerateOutputViews(schema, *sigma, oid);
    if (!output.ok()) return output.status();
    extra = kgm::instance::SchemaCatalog(schema);
    auto in_rules = metalog::ParseMetaProgram(*input);
    if (!in_rules.ok()) return in_rules.status();
    auto out_rules = metalog::ParseMetaProgram(*output);
    if (!out_rules.ok()) return out_rules.status();
    for (auto& r : in_rules->rules) combined.rules.push_back(std::move(r));
    for (auto& r : sigma->rules) combined.rules.push_back(std::move(r));
    for (auto& r : out_rules->rules) combined.rules.push_back(std::move(r));
    return kgm::OkStatus();
  });
  if (!views.ok()) return views;
  // metalog::RunMetaLog, call by call.
  pg::PropertyGraph& dict = loaded->dict;
  metalog::GraphCatalog catalog;
  kgm::Status absorbed = InSpan(&log, "metalog.compile", p, id, [&] {
    catalog = metalog::GraphCatalog::FromGraph(dict);
    catalog.Merge(extra);
    return catalog.AbsorbProgram(combined);
  });
  if (!absorbed.ok()) return absorbed;
  vadalog::FactDb db = InSpan(&log, "metalog.encode", p, id, [&] {
    return metalog::EncodeGraph(dict, catalog);
  });
  auto mtv = InSpan(&log, "metalog.compile", p, id, [&] {
    return metalog::TranslateMetaProgram(combined, catalog);
  });
  if (!mtv.ok()) return mtv.status();
  auto engine = InSpan(&log, "vadalog.init", p, id, [&] {
    return std::make_unique<vadalog::Engine>(std::move(mtv->program),
                                             options.engine);
  });
  if (!engine->status().ok()) return engine->status();
  kgm::Status run =
      InSpan(&log, "vadalog.fixpoint", p, id, [&] { return engine->Run(&db); });
  if (!run.ok()) return run;
  auto decoded = InSpan(&log, "metalog.decode", p, id, [&] {
    return metalog::DecodeGraph(db, catalog, &dict);
  });
  if (!decoded.ok()) return decoded.status();
  StagedOutcome out;
  out.stats = engine->stats();
  for (pg::NodeId o : dict.NodesWithLabel(kgm::instance::kOSmEdge)) {
    const Value* type = dict.NodeProperty(o, "edgeType");
    if (type != nullptr && type->is_string() &&
        type->AsString() == "CONTROLS") {
      ++out.controls;
    }
  }
  // Materialize frees the dictionary and the fact database before it
  // returns; time that here too.
  InSpan(&log, "instance.release", p, id, [&] {
    vadalog::FactDb released_db = std::move(db);
    kgm::instance::LoadedInstance released = std::move(loaded).value();
    return released_db.Predicates().size() + released.loaded_nodes;
  });
  return out;
}

RunOutput RunE2Control(const Args& args, Checks& checks) {
  RunOutput out;
  SpanLog log;
  SpanLog* trace = args.trace ? &log : nullptr;
  uint64_t ids = 1;
  const kgm::core::SuperSchema schema = finkg::CompanyKgSchema();
  finkg::GeneratorConfig config;
  config.num_companies = kE2Companies;
  config.num_persons = kE2Persons;
  config.seed = args.seed;

  pg::PropertyGraph graph;
  for (int round = 0; round < kSetupRounds; ++round) {
    const uint64_t id = ids++;
    std::optional<ScopedSpan> root;
    if (trace != nullptr) root.emplace(log, kSetupRoot, -1, id);
    const Clock::time_point t0 = Clock::now();
    finkg::ShareholdingNetwork net =
        finkg::ShareholdingNetwork::Generate(config);
    graph = net.ToOwnershipGraph();
    out.samples["setup_s"].push_back(Seconds(t0, Clock::now()));
  }
  const size_t owns_rows = graph.EdgesWithLabel("OWNS").size();

  // Oracle: the direct MetaLog path (no instance constructs, no views).
  size_t expect_controls = 0;
  {
    pg::PropertyGraph direct = graph.Clone();
    auto direct_run =
        metalog::RunMetaLogSource(finkg::kControlProgram, &direct);
    if (!direct_run.ok()) {
      checks.Fail("direct control run: " + direct_run.status().ToString());
      return out;
    }
    expect_controls = direct.EdgesWithLabel("CONTROLS").size();
  }
  // The staged path also derives the views' staging facts, so its
  // facts_derived differs from the direct path's; every staged run (and
  // the decomposed one) must derive the same count as the first.
  std::optional<size_t> expect_facts;
  out.inputs = {{"companies", std::to_string(kE2Companies)},
                {"persons", std::to_string(kE2Persons)},
                {"graph_nodes", std::to_string(graph.num_nodes())},
                {"owns_rows", std::to_string(owns_rows)},
                {"controls_edges", std::to_string(expect_controls)}};

  auto check = [&](size_t controls, size_t facts, const char* path) {
    if (controls != expect_controls) {
      checks.Fail(std::string(path) + ": " + std::to_string(controls) +
                  " CONTROLS edges, direct path has " +
                  std::to_string(expect_controls));
    }
    if (!expect_facts) expect_facts = facts;
    if (facts != *expect_facts) {
      checks.Fail(std::string(path) + ": facts_derived " +
                  std::to_string(facts) + ", first staged run had " +
                  std::to_string(*expect_facts));
    }
  };

  // One staged materialization through the public entry point.
  auto materialize = [&]() -> bool {
    pg::PropertyGraph data = graph.Clone();
    ++out.attempted;
    const Clock::time_point t0 = Clock::now();
    auto stats = kgm::instance::Materialize(schema, finkg::kControlProgram,
                                            &data, E2Options());
    const double seconds = Seconds(t0, Clock::now());
    if (!stats.ok()) {
      ++out.failed;
      checks.Fail("materialize: " + stats.status().ToString());
      return false;
    }
    out.samples["op_ms"].push_back(seconds * 1e3);
    out.samples["write_ms"].push_back(stats->flush_seconds * 1e3);
    out.samples["instance.flush_s"].push_back(stats->flush_seconds);
    out.engine_threads = stats->engine_stats.threads_used;
    check(data.EdgesWithLabel("CONTROLS").size(), stats->facts_derived,
          "staged");
    return true;
  };

  out.rss_reset = ResetPeakRss();
  const Clock::time_point start = Clock::now();
  if (trace == nullptr) {
    while (out.attempted < kMinMaterializations ||
           Seconds(start, Clock::now()) < args.seconds) {
      if (!materialize()) break;
    }
  } else {
    // Decomposed materializations, then one through Materialize itself for
    // the flush time and the staged-path cross-check.
    while (out.attempted < kMinMaterializations - 1 ||
           Seconds(start, Clock::now()) < args.seconds * 0.75) {
      pg::PropertyGraph data = graph.Clone();
      ++out.attempted;
      const uint64_t id = ids++;
      const Clock::time_point t0 = Clock::now();
      kgm::Result<StagedOutcome> staged = [&] {
        ScopedSpan root(log, kRequestRoot, -1, id);
        return DecomposedMaterialize(schema, data, log, root.id(), id);
      }();
      const double seconds = Seconds(t0, Clock::now());
      if (!staged.ok()) {
        ++out.failed;
        checks.Fail("decomposed materialize: " + staged.status().ToString());
        break;
      }
      out.samples["op_ms"].push_back(seconds * 1e3);
      out.engine_threads = staged->stats.threads_used;
      check(staged->controls, staged->stats.facts_derived, "decomposed");
      RecordEngineStats(staged->stats, &out.samples);
    }
    const uint64_t id = ids++;
    ScopedSpan root(log, kQueryRoot, -1, id);
    materialize();
  }
  out.peak_rss_mb = PeakRssMb();
  const std::vector<double>& ops = out.samples["op_ms"];
  double total_ms = 0;
  for (double v : ops) total_ms += v;
  out.op_per_s = total_ms > 0 ? 1e3 * static_cast<double>(ops.size()) / total_ms
                              : 0;
  out.spans = std::move(log);
  return out;
}

// ---------------------------------------------------------------------------
// pq_reach

// One closed-loop client in the calling thread.  With nproc client threads
// (and as many busy service workers) every vCPU of a shared host is busy,
// and throughput and latency then follow the other tenants' load: read
// throughput spread 18-36% between runs of the same code.
RunOutput RunPqReach(const Args& args, Checks& checks) {
  RunOutput out;
  uint64_t ids = 1;
  SpanLog setup_log;
  std::unique_ptr<service::KgService> svc = SetUpService(
      args, /*result_cache=*/false, args.trace ? &setup_log : nullptr, &ids,
      &out);
  out.spans.Append(setup_log);

  // Oracle: BFS over the published OWNS rows for every binding.
  std::shared_ptr<const service::Snapshot> snap = svc->CurrentSnapshot();
  const vadalog::Relation* owns = SnapshotOwns(*snap);
  std::vector<std::pair<int64_t, int64_t>> edges;
  if (owns == nullptr || !OwnsEdges(*owns, &edges)) {
    checks.Fail("snapshot has no integer OWNS rows");
    return out;
  }
  const std::vector<int64_t> sources = PickOwners(*owns, kBindings, args.seed);
  if (sources.size() < kBindings) {
    checks.Fail("fewer than " + std::to_string(kBindings) + " owners");
    return out;
  }
  const ReachOracle oracle(edges);
  std::vector<std::vector<int64_t>> expect;
  for (int64_t s : sources) {
    expect.push_back(oracle.Reach(s));
    if (expect.back().empty()) checks.Fail("empty reach cone in oracle");
  }
  out.inputs.emplace_back("bindings", std::to_string(sources.size()));
  if (args.trace) TimeRewrites(*snap, sources, out.spans, &ids);
  snap.reset();
  out.rss_reset = ResetPeakRss();

  std::mt19937_64 rng(args.seed * 1000003);
  const Clock::time_point start = Clock::now();
  for (uint64_t n = 0; Seconds(start, Clock::now()) < args.seconds; ++n) {
    const size_t pick = rng() % sources.size();
    const uint64_t id = ids++;
    ++out.attempted;
    const Clock::time_point t0 = Clock::now();
    if (args.trace && n % kDecomposeEvery == 0) {
      uint64_t epoch = 0;
      auto rows = DecomposedReach(*svc, sources[pick], out.spans, id,
                                  &out.samples, &epoch);
      out.samples["op_ms"].push_back(Seconds(t0, Clock::now()) * 1e3);
      if (!rows) {
        ++out.failed;
        checks.Fail("decomposed reach query failed");
      } else if (!ReachAnswerMatches(*rows, sources[pick], expect[pick])) {
        checks.Fail("reach(" + std::to_string(sources[pick]) +
                    ") differs from BFS (decomposed)");
      }
      continue;
    }
    std::optional<ScopedSpan> root;
    if (args.trace) root.emplace(out.spans, kQueryRoot, -1, id);
    auto result = svc->Query(ReachRequest(sources[pick], false));
    const double ms = Seconds(t0, Clock::now()) * 1e3;
    root.reset();
    out.samples["op_ms"].push_back(ms);
    if (!result.ok()) {
      ++out.failed;
      checks.Fail("reach query: " + result.status().ToString());
      continue;
    }
    out.samples["service.outside_eval_ms"].push_back(
        ms - result->eval_seconds * 1e3);
    if (!ReachAnswerMatches(*result->rows, sources[pick], expect[pick])) {
      checks.Fail("reach(" + std::to_string(sources[pick]) +
                  ") differs from BFS");
    }
  }
  const double elapsed = Seconds(start, Clock::now());
  out.peak_rss_mb = PeakRssMb();
  out.op_per_s = static_cast<double>(out.attempted - out.failed) / elapsed;
  out.samples["write_ms"] = out.samples["publish_ms"];
  out.service_stats = svc->Stats();
  out.engine_threads = 1;
  return out;
}

// ---------------------------------------------------------------------------
// serve_mixed

// Zipf(1) ranks over `n` items: P(rank k) proportional to 1/k.
std::vector<double> ZipfCdf(size_t n) {
  std::vector<double> cdf(n);
  double sum = 0;
  for (size_t k = 0; k < n; ++k) sum += 1.0 / static_cast<double>(k + 1);
  double acc = 0;
  for (size_t k = 0; k < n; ++k) {
    acc += 1.0 / static_cast<double>(k + 1) / sum;
    cdf[k] = acc;
  }
  cdf.back() = 1.0;
  return cdf;
}

// One client in the calling thread repeats rounds: an ApplyDelta, then
// kRoundReads cached reads of the new epoch.  The operation is the read.
// Rounds fix the interleaving of writes and reads by the seed.  With a
// writer on a wall-clock schedule beside closed-loop readers, a slower host
// meant fewer reads per epoch and so fewer cache hits, which made every
// host slowdown larger (read throughput spread 33-41% between runs of the
// same code).  A round's wall time, the sum of 16 reads, spread 22% over
// 10 seeds against 9% for the median read of pq_reach, so the round is
// not the operation.
RunOutput RunServeMixed(const Args& args, Checks& checks) {
  RunOutput out;
  uint64_t ids = 1;
  SpanLog setup_log;
  std::unique_ptr<service::KgService> svc = SetUpService(
      args, /*result_cache=*/true, args.trace ? &setup_log : nullptr, &ids,
      &out);
  out.spans.Append(setup_log);

  std::shared_ptr<const service::Snapshot> snap = svc->CurrentSnapshot();
  const vadalog::Relation* owns = SnapshotOwns(*snap);
  if (owns == nullptr) {
    checks.Fail("snapshot has no OWNS relation");
    return out;
  }
  const std::vector<int64_t> hot = PickOwners(*owns, kBindings, args.seed);
  if (hot.size() < kBindings) {
    checks.Fail("fewer than " + std::to_string(kBindings) + " owners");
    return out;
  }
  const std::vector<double> zipf = ZipfCdf(hot.size());
  finkg::UpdateFeedConfig feed_config;
  feed_config.batch_size = kDeltaBatchRows;
  feed_config.seed = args.seed;
  finkg::UpdateFeed feed(owns, feed_config);  // keeps no pointer to `owns`
  out.inputs.emplace_back("hot_bindings", std::to_string(hot.size()));
  out.inputs.emplace_back("reads_per_round", std::to_string(kRoundReads));
  if (args.trace) TimeRewrites(*snap, hot, out.spans, &ids);
  snap.reset();
  out.rss_reset = ResetPeakRss();

  std::mt19937_64 rng(args.seed * 1000003);
  size_t rounds = 0;
  uint64_t reads = 0;
  const Clock::time_point start = Clock::now();
  while (Seconds(start, Clock::now()) < args.seconds) {
    // The batch is drawn before the round's clock starts: the feed is the
    // benchmark's, not the service's.
    const vadalog::EdbDelta delta = feed.NextBatch();
    const Clock::time_point t0 = Clock::now();
    ++out.attempted;
    auto epoch = InSpan(args.trace ? &out.spans : nullptr,
                        "service.apply_delta", -1, ids++,
                        [&] { return svc->ApplyDelta(delta); });
    out.samples["write_ms"].push_back(Seconds(t0, Clock::now()) * 1e3);
    if (!epoch.ok()) {
      ++out.failed;
      checks.Fail("apply delta: " + epoch.status().ToString());
      break;
    }
    const size_t control_at = rng() % kRoundReads;
    for (size_t r = 0; r < kRoundReads; ++r, ++reads) {
      const bool control = r == control_at;
      const double u = Uniform01(rng);
      const size_t rank = static_cast<size_t>(
          std::lower_bound(zipf.begin(), zipf.end(), u) - zipf.begin());
      const int64_t source = hot[std::min(rank, hot.size() - 1)];
      const uint64_t id = ids++;
      ++out.attempted;
      uint64_t read_epoch = 0;
      bool ok = false;
      const Clock::time_point q0 = Clock::now();
      if (args.trace && reads % kDecomposeEvery == 0) {
        ok = control ? DecomposedControl(*svc, out.spans, id, &out.samples,
                                         &read_epoch)
                           .has_value()
                     : DecomposedReach(*svc, source, out.spans, id,
                                       &out.samples, &read_epoch)
                           .has_value();
      } else {
        std::optional<ScopedSpan> root;
        if (args.trace) root.emplace(out.spans, kQueryRoot, -1, id);
        auto result = svc->Query(control ? ControlRequest()
                                         : ReachRequest(source, true));
        const double ms = Seconds(q0, Clock::now()) * 1e3;
        root.reset();
        ok = result.ok();
        if (!ok) {
          checks.Fail(std::string(control ? "control" : "reach") +
                      " query: " + result.status().ToString());
        } else {
          read_epoch = result->epoch;
          if (!result->result_cache_hit) {
            out.samples["service.outside_eval_ms"].push_back(
                ms - result->eval_seconds * 1e3);
          }
          if (control && result->rows->size() < kServeCompanies) {
            checks.Fail("control query returned " +
                        std::to_string(result->rows->size()) + " rows");
          }
        }
      }
      out.samples["op_ms"].push_back(Seconds(q0, Clock::now()) * 1e3);
      if (!ok) {
        ++out.failed;
        checks.Fail("read failed");
      } else if (read_epoch != *epoch) {
        checks.Fail("read after the delta of epoch " +
                    std::to_string(*epoch) + " saw epoch " +
                    std::to_string(read_epoch));
      }
    }
    ++rounds;
  }
  const double elapsed = Seconds(start, Clock::now());
  out.peak_rss_mb = PeakRssMb();
  out.op_per_s = static_cast<double>(reads) / elapsed;
  out.service_stats = svc->Stats();
  out.engine_threads = 1;

  // After the timed phase: the hot bindings, read through the cache as the
  // client read them, must equal a BFS over the final epoch's OWNS.
  snap = svc->CurrentSnapshot();
  std::vector<std::pair<int64_t, int64_t>> edges;
  if (!OwnsEdges(*SnapshotOwns(*snap), &edges)) {
    checks.Fail("final snapshot has non-integer OWNS rows");
    return out;
  }
  const ReachOracle oracle(edges);
  for (int64_t source : hot) {
    auto result = svc->Query(ReachRequest(source, true));
    if (!result.ok() || result->epoch != snap->epoch ||
        !ReachAnswerMatches(*result->rows, source, oracle.Reach(source))) {
      checks.Fail("final reach(" + std::to_string(source) +
                  ") differs from BFS over epoch " +
                  std::to_string(snap->epoch));
    }
  }
  out.inputs.emplace_back("rounds", std::to_string(rounds));
  out.inputs.emplace_back("final_epoch", std::to_string(snap->epoch));
  out.inputs.emplace_back("final_owns_rows", std::to_string(edges.size()));
  return out;
}

// ---------------------------------------------------------------------------
// Reporting

// Per-layer metrics from the spans: for every root, the self time of its
// spans summed by name; each metric is the median over the roots that
// contain its span.  Coverage is the layer spans' share of the
// decomposed requests' time; `layer_self_s` sums their self time by layer.
void SpanMetrics(const SpanLog& log, std::map<std::string, double>* values,
                 std::map<std::string, double>* layer_self_s) {
  const std::vector<Span>& spans = log.spans();
  const std::vector<int64_t> self = SelfTimes(spans);
  std::vector<int> root_of(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    // Parents precede their children in a log.
    root_of[i] = spans[i].parent < 0
                     ? static_cast<int>(i)
                     : root_of[static_cast<size_t>(spans[i].parent)];
  }
  std::map<int, std::map<std::string, int64_t>> by_root;
  int64_t request_ns = 0;
  int64_t layer_ns = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    by_root[root_of[i]][spans[i].name] += self[i];
    const Span& root = spans[static_cast<size_t>(root_of[i])];
    if (root.name != kRequestRoot) continue;
    if (spans[i].parent < 0) {
      request_ns += spans[i].end_ns - spans[i].start_ns;
    } else if (!LayerOf(spans[i].name).empty()) {
      layer_ns += self[i];
      (*layer_self_s)[std::string(LayerOf(spans[i].name))] +=
          static_cast<double>(self[i]) * 1e-9;
    }
  }
  for (const SpanMetric& m : kSpanMetrics) {
    std::vector<double> per_root;
    for (const auto& [root, names] : by_root) {
      auto it = names.find(m.span);
      if (it != names.end()) {
        per_root.push_back(static_cast<double>(it->second) * m.per_ns);
      }
    }
    (*values)[m.metric] = per_root.empty() ? 0 : Median(per_root);
  }
  (*values)["trace.coverage"] =
      request_ns > 0 ? static_cast<double>(layer_ns) /
                           static_cast<double>(request_ns)
                     : 0;
}

std::string Num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return ec == std::errc() ? std::string(buf, end) : std::string("0");
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

// Writes the spans as JSON lines with their self time.
void WriteSpans(const std::string& path, const SpanLog& log) {
  std::ofstream f(path);
  const std::vector<int64_t> self = SelfTimes(log.spans());
  for (size_t i = 0; i < log.spans().size(); ++i) {
    const Span& s = log.spans()[i];
    f << "{\"request\": " << s.request << ", \"name\": " << Quote(s.name)
      << ", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
      << ", \"parent\": " << s.parent << ", \"self_ns\": " << self[i]
      << "}\n";
  }
}

int Main(int argc, char** argv) {
  Args args;
  if (argc % 2 == 0) {
    std::fprintf(stderr, "kgbench: every flag takes a value\n");
    return 2;
  }
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--out-dir") {
      args.out_dir = value;
    } else if (key == "--git-sha") {
      args.git_sha = value;
    } else {
      std::fprintf(stderr, "kgbench: unknown flag %s\n", key.c_str());
      return 2;
    }
  }
  if (!(args.seconds > 0 && args.seconds <= 600)) {
    std::fprintf(stderr, "kgbench: --seconds must be in (0, 600]\n");
    return 2;
  }

  Checks checks;
  RunOutput run;
  const Clock::time_point t0 = Clock::now();
  if (args.workload == "e2_control") {
    run = RunE2Control(args, checks);
  } else if (args.workload == "pq_reach") {
    run = RunPqReach(args, checks);
  } else if (args.workload == "serve_mixed") {
    run = RunServeMixed(args, checks);
  } else {
    std::fprintf(stderr,
                 "usage: kgbench --workload e2_control|pq_reach|serve_mixed "
                 "--seed N --seconds S --trace 0|1\n");
    return 2;
  }
  const double wall = Seconds(t0, Clock::now());
  if (run.attempted == 0) {
    checks.Fail("no operation was attempted");
    run.attempted = 1;
  }

  // End-to-end values (from this run: untraced numbers when --trace 0,
  // the traced run's own numbers beside the per-layer ones otherwise).
  std::map<std::string, double> e2e;
  e2e["setup_s"] = MedianOr0(run.samples, "setup_s");
  e2e["peak_rss_mb"] = run.peak_rss_mb;
  e2e["op.p50_ms"] = MedianOr0(run.samples, "op_ms");

  // Per-layer values.  The service counters, tails and write latencies
  // come from every run; the span and engine figures only from the traced
  // run.
  auto ratio = [](uint64_t hits, uint64_t misses) {
    return hits + misses == 0 ? 0.0
                              : static_cast<double>(hits) /
                                    static_cast<double>(hits + misses);
  };
  std::map<std::string, double> layer;
  layer["service.snapshot_facts"] = static_cast<double>(run.snapshot_facts);
  layer["service.result_cache_hit_ratio"] =
      ratio(run.service_stats.result_cache_hits,
            run.service_stats.result_cache_misses);
  layer["metalog.prepared_hit_ratio"] =
      ratio(run.service_stats.prepared_cache_hits,
            run.service_stats.prepared_cache_misses);
  const auto op_tail = TailPercentile(run.samples["op_ms"], 99);
  layer["op.per_s"] = run.op_per_s;
  layer["op.p99_ms"] = op_tail.value_or(0);
  layer["write.p50_ms"] = MedianOr0(run.samples, "write_ms");
  std::map<std::string, double> layer_self_s;
  if (args.trace) {
    SpanMetrics(run.spans, &layer, &layer_self_s);
    for (const char* name :
         {"vadalog.join_probes", "vadalog.facts_derived", "vadalog.iterations",
          "vadalog.threads_used", "service.outside_eval_ms"}) {
      layer[name] = MedianOr0(run.samples, name);
    }
    layer["instance.flush_s"] = MedianOr0(run.samples, "instance.flush_s");
    layer["magic.probes_per_query"] = MeanOr0(run.samples, "magic.probes");
    layer["magic.fallback_ratio"] = MeanOr0(run.samples, "magic.fallback");
  }

  // Readable report on stderr; run.py prints the metrics with their units.
  const std::vector<std::string> errors = checks.messages();
  std::fprintf(stderr, "kgbench %s seed=%llu trace=%d seconds=%g wall=%.1fs\n",
               args.workload.c_str(),
               static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0,
               args.seconds, wall);
  std::fprintf(stderr, "  host: nproc=%zu build=%s compiler=%s git=%s "
               "engine_threads=%zu\n", Nproc(), KGBENCH_BUILD_TYPE,
               KGBENCH_COMPILER, args.git_sha.c_str(), run.engine_threads);
  std::fprintf(stderr, "  inputs:");
  for (const auto& [k, v] : run.inputs) {
    std::fprintf(stderr, " %s=%s", k.c_str(), v.c_str());
  }
  std::fprintf(stderr, "\n  operations: attempted=%zu failed=%zu "
               "op_samples=%zu write_samples=%zu\n", run.attempted,
               run.failed, run.samples["op_ms"].size(),
               run.samples["write_ms"].size());
  std::fprintf(stderr, "  setup rounds (s):");
  for (double v : run.samples["setup_s"]) std::fprintf(stderr, " %.4f", v);
  std::fprintf(stderr, "\n");
  if (!run.rss_reset) {
    std::fprintf(stderr, "  peak RSS could not be reset: it includes set-up\n");
  }
  if (!op_tail) std::fprintf(stderr, "  op.p99_ms refused: reads 0\n");
  if (args.trace) {
    for (const auto& [name, seconds] : layer_self_s) {
      std::fprintf(stderr, "  layer self time %-10s %14.6g s\n", name.c_str(),
                   seconds);
    }
  }
  for (const std::string& e : errors) {
    std::fprintf(stderr, "  CHECK FAILED: %s\n", e.c_str());
  }

  // The raw result line: every measured value by name, without units.
  auto json_map = [](const std::map<std::string, double>& m) {
    std::string out = "{";
    for (const auto& [k, v] : m) {
      if (out.size() > 1) out += ", ";
      out += Quote(k) + ": " + Num(v);
    }
    return out + "}";
  };
  const std::string result =
      std::string("{\"correct\": ") + (checks.ok() ? "true" : "false") +
      ", \"attempted\": " + std::to_string(run.attempted) +
      ", \"failed\": " + std::to_string(run.failed) +
      ", \"end_to_end\": " + json_map(e2e) +
      ", \"per_layer\": " + json_map(layer) + "}";

  if (!args.out_dir.empty()) {
    const std::string stem = args.out_dir + "/" + args.workload + "-seed" +
                             std::to_string(args.seed) + "-trace" +
                             (args.trace ? "1" : "0");
    std::string meta = "{\"workload\": " + Quote(args.workload) +
                       ", \"seed\": " + std::to_string(args.seed) +
                       ", \"seconds\": " + Num(args.seconds) +
                       ", \"trace\": " + (args.trace ? "1" : "0") +
                       ", \"nproc\": " + std::to_string(Nproc()) +
                       ", \"build_type\": " + Quote(KGBENCH_BUILD_TYPE) +
                       ", \"compiler\": " + Quote(KGBENCH_COMPILER) +
                       ", \"git_sha\": " + Quote(args.git_sha) +
                       ", \"engine_threads\": " +
                       std::to_string(run.engine_threads) +
                       ", \"peak_rss_reset\": " +
                       (run.rss_reset ? "true" : "false") +
                       ", \"wall_s\": " + Num(wall) + ", \"inputs\": {";
    for (size_t i = 0; i < run.inputs.size(); ++i) {
      meta += (i ? ", " : "") + Quote(run.inputs[i].first) + ": " +
              Quote(run.inputs[i].second);
    }
    meta += "}, \"layer_self_s\": " + json_map(layer_self_s) +
            ", \"check_failures\": [";
    for (size_t i = 0; i < errors.size(); ++i) {
      meta += (i ? ", " : "") + Quote(errors[i]);
    }
    meta += "], \"result\": " + result + "}\n";
    std::ofstream(stem + ".json") << meta;
    if (args.trace) WriteSpans(stem + ".spans.jsonl", run.spans);
  }

  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  return checks.ok() ? 0 : 1;
}

}  // namespace
}  // namespace kgbench

int main(int argc, char** argv) { return kgbench::Main(argc, argv); }
