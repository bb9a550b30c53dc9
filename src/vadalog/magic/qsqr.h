// QSQR-style on-demand (top-down) evaluation for point queries.
//
// The fallback companion to the magic-sets rewrite (vadalog/magic/magic.h):
// where the rewrite pre-generates one guarded rule set per adornment — and
// gives up past RewriteOptions::max_adorned_predicates — QSQR generates
// subqueries lazily at runtime, so the number of *distinct* binding
// patterns actually reached bounds the work, not the number expressible.
//
// The evaluator memoizes answers per predicate in reserved relations
// (`ans@<pred>`) inside the caller's FactDb, so the existing hash-index
// machinery serves subquery probes; rule bodies are joined in written
// order.
// Evaluation runs recursive solve passes to a global fixpoint: within a
// pass each (predicate, adornment, bound-values) subquery is entered once
// (recursive re-entry reads the partial memo), and passes repeat until no
// relation gains an answer — the standard QSQR iteration.
//
// Supported fragment: positive literals, assignments and conditions —
// no negation, no aggregates, no existentials (Supports() checks the
// query's cone).  Deadline/cancel options are polled at every subquery
// entry and every few thousand probes, like the bottom-up engine.

#ifndef KGM_VADALOG_MAGIC_QSQR_H_
#define KGM_VADALOG_MAGIC_QSQR_H_

#include <memory>
#include <string>
#include <vector>

#include "base/status.h"
#include "vadalog/database.h"
#include "vadalog/engine.h"
#include "vadalog/magic/magic.h"

namespace kgm::vadalog::magic {

class QsqrEvaluator {
 public:
  struct Stats {
    size_t subqueries = 0;  // (pred, adornment, bound-values) solves entered
    size_t probes = 0;      // candidate rows examined
    size_t passes = 0;      // global fixpoint restarts
    size_t answers = 0;     // answer tuples memoized across all predicates
  };

  // `db` holds the EDB and receives the `ans@` memo relations; it must
  // outlive the evaluator.  Honors options.deadline / options.cancel;
  // evaluation itself is sequential.
  QsqrEvaluator(const Program& program, FactDb* db, EngineOptions options);
  ~QsqrEvaluator();

  QsqrEvaluator(const QsqrEvaluator&) = delete;
  QsqrEvaluator& operator=(const QsqrEvaluator&) = delete;

  // Construction-time validation outcome.
  const Status& status() const;

  // True when every rule in `query_pred`'s cone is inside the supported
  // fragment (positive literals + assignments + conditions only).
  static bool Supports(const Program& program, const std::string& query_pred);

  // Answers for `query` (each tuple agrees with every bound position).
  // Repeatable: later queries reuse the memo tables.
  Result<std::vector<Tuple>> Query(const QueryBinding& query);

  const Stats& stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace kgm::vadalog::magic

#endif  // KGM_VADALOG_MAGIC_QSQR_H_
