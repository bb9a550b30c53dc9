#include "vadalog/magic/qsqr.h"

#include <algorithm>
#include <deque>
#include <map>
#include <optional>
#include <set>
#include <unordered_map>
#include <utility>

namespace kgm::vadalog::magic {

namespace {

constexpr size_t kProbePollInterval = 8192;
constexpr size_t kIndexMinRows = 8;

std::string AnsName(const std::string& pred) { return "ans@" + pred; }

// One compiled body literal: predicate plus the constant/slot shape.
struct CLit {
  std::string pred;
  bool intensional = false;
  std::vector<char> is_const;
  std::vector<Value> consts;  // parallel; valid where is_const
  std::vector<int> slots;     // parallel; -1 = anonymous
};

struct CRule {
  std::string head_pred;
  std::vector<CLit> body;
  std::vector<char> head_is_const;
  std::vector<Value> head_consts;
  std::vector<int> head_slots;
  // Written order; applied greedily as inputs become bound (binding when
  // the target is free, equality check when it is already bound — the
  // firing-level semantics of the bottom-up engine).
  std::vector<std::pair<int, ExprPtr>> assigns;  // target slot, expr
  std::vector<std::vector<int>> assign_inputs;   // expr var slots
  std::vector<ExprPtr> conds;
  std::vector<std::vector<int>> cond_inputs;
  std::vector<std::string> slot_names;
};

using Env = std::vector<std::optional<Value>>;

struct SubqueryKey {
  std::string pred;
  uint64_t mask;
  Tuple bound;

  bool operator<(const SubqueryKey& o) const {
    if (pred != o.pred) return pred < o.pred;
    if (mask != o.mask) return mask < o.mask;
    return std::lexicographical_compare(bound.begin(), bound.end(),
                                        o.bound.begin(), o.bound.end());
  }
};

}  // namespace

struct QsqrEvaluator::Impl {
  const Program* program;
  FactDb* db;
  EngineOptions options;
  Status init_status = OkStatus();
  Stats stats;

  std::map<std::string, std::vector<CRule>> defs;
  std::set<std::string> intensional;

  bool changed = false;
  std::set<SubqueryKey> seen;  // per-pass
  size_t probes_since_poll = 0;

  Status Compile();
  Status CheckLimits() {
    if (options.deadline != std::chrono::steady_clock::time_point{} &&
        std::chrono::steady_clock::now() >= options.deadline) {
      return DeadlineExceeded("qsqr evaluation deadline exceeded");
    }
    if (options.cancel != nullptr &&
        options.cancel->load(std::memory_order_relaxed)) {
      return DeadlineExceeded("qsqr evaluation cancelled");
    }
    return OkStatus();
  }
  Status PollProbe() {
    if (++probes_since_poll >= kProbePollInterval) {
      probes_since_poll = 0;
      return CheckLimits();
    }
    return OkStatus();
  }

  Status Solve(const std::string& pred, uint64_t mask, const Tuple& bound);
  Status JoinRec(const CRule& r, size_t depth, Env env,
                 std::vector<char> assign_done, std::vector<char> cond_done);
  // Greedy assignment application + early condition checks; returns false
  // when a check failed (the branch is pruned).
  bool ApplyBound(const CRule& r, Env* env, std::vector<char>* assign_done,
                  std::vector<char>* cond_done, Status* error);
  Status Emit(const CRule& r, const Env& env);
};

Status QsqrEvaluator::Impl::Compile() {
  for (const Rule& rule : program->rules) {
    for (const Atom& h : rule.head) intensional.insert(h.predicate);
  }
  for (const Rule& rule : program->rules) {
    if (!rule.aggregates.empty() || !rule.existentials.empty()) {
      return FailedPrecondition("qsqr: aggregates/existentials unsupported");
    }
    for (const Literal& l : rule.body) {
      if (l.negated) {
        return FailedPrecondition("qsqr: negation unsupported");
      }
    }
    for (const Atom& h : rule.head) {
      CRule cr;
      cr.head_pred = h.predicate;
      std::unordered_map<std::string, int> varmap;
      auto slot_of = [&](const std::string& v) {
        auto [it, inserted] =
            varmap.emplace(v, static_cast<int>(cr.slot_names.size()));
        if (inserted) cr.slot_names.push_back(v);
        return it->second;
      };
      for (const Literal& l : rule.body) {
        CLit cl;
        cl.pred = l.atom.predicate;
        cl.intensional = intensional.count(l.atom.predicate) > 0;
        for (const Term& t : l.atom.args) {
          if (t.is_var()) {
            cl.is_const.push_back(0);
            cl.consts.emplace_back();
            cl.slots.push_back(t.is_anonymous() ? -1 : slot_of(t.var));
          } else {
            cl.is_const.push_back(1);
            cl.consts.push_back(t.constant);
            cl.slots.push_back(-1);
          }
        }
        cr.body.push_back(std::move(cl));
      }
      for (const Assignment& a : rule.assignments) {
        std::vector<std::string> vars;
        a.expr->CollectVars(&vars);
        std::vector<int> inputs;
        for (const std::string& v : vars) inputs.push_back(slot_of(v));
        cr.assigns.emplace_back(slot_of(a.var), a.expr);
        cr.assign_inputs.push_back(std::move(inputs));
      }
      for (const Condition& c : rule.conditions) {
        std::vector<std::string> vars;
        c.expr->CollectVars(&vars);
        std::vector<int> inputs;
        for (const std::string& v : vars) inputs.push_back(slot_of(v));
        cr.conds.push_back(c.expr);
        cr.cond_inputs.push_back(std::move(inputs));
      }
      for (const Term& t : h.args) {
        if (t.is_var()) {
          if (t.is_anonymous()) {
            return FailedPrecondition("qsqr: anonymous variable in head");
          }
          cr.head_is_const.push_back(0);
          cr.head_consts.emplace_back();
          cr.head_slots.push_back(slot_of(t.var));
        } else {
          cr.head_is_const.push_back(1);
          cr.head_consts.push_back(t.constant);
          cr.head_slots.push_back(-1);
        }
      }
      defs[h.predicate].push_back(std::move(cr));
    }
  }
  return OkStatus();
}

bool QsqrEvaluator::Impl::ApplyBound(const CRule& r, Env* env,
                                     std::vector<char>* assign_done,
                                     std::vector<char>* cond_done,
                                     Status* error) {
  auto lookup = [&](const std::string& name) -> const Value* {
    auto it = std::find(r.slot_names.begin(), r.slot_names.end(), name);
    if (it == r.slot_names.end()) return nullptr;
    const auto& v = (*env)[it - r.slot_names.begin()];
    return v.has_value() ? &*v : nullptr;
  };
  bool progress = true;
  while (progress) {
    progress = false;
    for (size_t i = 0; i < r.assigns.size(); ++i) {
      if ((*assign_done)[i]) continue;
      bool ready = true;
      for (int s : r.assign_inputs[i]) {
        if (!(*env)[s].has_value()) ready = false;
      }
      if (!ready) continue;
      (*assign_done)[i] = 1;
      progress = true;
      Result<Value> v = EvalExpr(*r.assigns[i].second, lookup);
      if (!v.ok()) {
        *error = v.status();
        return false;
      }
      auto& target = (*env)[r.assigns[i].first];
      if (target.has_value()) {
        if (!(*target == *v)) return false;  // equality-check semantics
      } else {
        target = *v;
      }
    }
    for (size_t i = 0; i < r.conds.size(); ++i) {
      if ((*cond_done)[i]) continue;
      bool ready = true;
      for (int s : r.cond_inputs[i]) {
        if (!(*env)[s].has_value()) ready = false;
      }
      if (!ready) continue;
      (*cond_done)[i] = 1;
      progress = true;
      Result<Value> v = EvalExpr(*r.conds[i], lookup);
      if (!v.ok()) {
        *error = v.status();
        return false;
      }
      if (!v->is_bool() || !v->AsBool()) return false;
    }
  }
  return true;
}

Status QsqrEvaluator::Impl::Emit(const CRule& r, const Env& env) {
  Tuple t;
  t.reserve(r.head_slots.size());
  for (size_t i = 0; i < r.head_slots.size(); ++i) {
    if (r.head_is_const[i]) {
      t.push_back(r.head_consts[i]);
    } else {
      const auto& v = env[r.head_slots[i]];
      if (!v.has_value()) {
        return Internal("qsqr: unbound head variable " +
                        r.slot_names[r.head_slots[i]]);
      }
      t.push_back(*v);
    }
  }
  Relation& ans = db->GetOrCreate(AnsName(r.head_pred), t.size());
  if (ans.Insert(std::move(t))) {
    changed = true;
    ++stats.answers;
  }
  return OkStatus();
}

Status QsqrEvaluator::Impl::JoinRec(const CRule& r, size_t depth, Env env,
                                    std::vector<char> assign_done,
                                    std::vector<char> cond_done) {
  Status err = OkStatus();
  if (!ApplyBound(r, &env, &assign_done, &cond_done, &err)) return err;
  if (depth == r.body.size()) {
    for (char done : cond_done) {
      if (!done) {
        return Internal("qsqr: condition with unbound variables at emit");
      }
    }
    return Emit(r, env);
  }

  const CLit& lit = r.body[depth];
  const size_t arity = lit.slots.size();
  uint64_t pmask = 0;
  Tuple probe(arity);
  for (size_t i = 0; i < arity && i < 60; ++i) {
    if (lit.is_const[i]) {
      pmask |= 1ULL << i;
      probe[i] = lit.consts[i];
    } else if (lit.slots[i] >= 0 && env[lit.slots[i]].has_value()) {
      pmask |= 1ULL << i;
      probe[i] = *env[lit.slots[i]];
    }
  }

  std::string rel_name = lit.pred;
  if (lit.intensional) {
    Tuple bound;
    for (size_t i = 0; i < arity; ++i) {
      if (pmask & (1ULL << i)) bound.push_back(probe[i]);
    }
    KGM_RETURN_IF_ERROR(Solve(lit.pred, pmask, bound));
    rel_name = AnsName(lit.pred);
  }
  const Relation* rel = db->Get(rel_name);
  if (rel == nullptr) return OkStatus();

  // Snapshot the candidate row ids: deeper recursion may insert into this
  // very relation (self-recursive rules), growing/rehashing live storage.
  std::vector<uint32_t> rows;
  if (pmask != 0 && rel->size() >= kIndexMinRows) {
    rows = rel->Lookup(pmask, probe);
  } else {
    rows.resize(rel->size());
    for (size_t i = 0; i < rows.size(); ++i) rows[i] = i;
  }

  for (uint32_t row : rows) {
    ++stats.probes;
    KGM_RETURN_IF_ERROR(PollProbe());
    if (pmask != 0 && !rel->MatchesMasked(row, pmask, probe)) continue;
    Tuple t = rel->tuple(row);  // copy: storage may move during recursion
    Env next = env;
    bool ok = true;
    for (size_t i = 0; i < arity && ok; ++i) {
      int slot = lit.slots[i];
      if (lit.is_const[i]) {
        if (!(t[i] == lit.consts[i])) ok = false;
      } else if (slot >= 0) {
        auto& v = next[slot];
        if (v.has_value()) {
          if (!(*v == t[i])) ok = false;
        } else {
          v = t[i];
        }
      }
    }
    if (!ok) continue;
    KGM_RETURN_IF_ERROR(
        JoinRec(r, depth + 1, std::move(next), assign_done, cond_done));
  }
  return OkStatus();
}

Status QsqrEvaluator::Impl::Solve(const std::string& pred, uint64_t mask,
                                  const Tuple& bound) {
  KGM_RETURN_IF_ERROR(CheckLimits());
  SubqueryKey key{pred, mask, bound};
  if (!seen.insert(std::move(key)).second) return OkStatus();
  ++stats.subqueries;

  auto it = defs.find(pred);
  if (it == defs.end()) return OkStatus();
  for (const CRule& r : it->second) {
    Env env(r.slot_names.size());
    bool ok = true;
    size_t bi = 0;
    for (size_t pos = 0; pos < r.head_slots.size() && ok; ++pos) {
      if (!(mask & (1ULL << pos))) continue;
      const Value& v = bound[bi++];
      if (r.head_is_const[pos]) {
        if (!(r.head_consts[pos] == v)) ok = false;
      } else {
        auto& e = env[r.head_slots[pos]];
        if (e.has_value()) {
          if (!(*e == v)) ok = false;
        } else {
          e = v;
        }
      }
    }
    if (!ok) continue;
    KGM_RETURN_IF_ERROR(JoinRec(r, 0, std::move(env),
                                std::vector<char>(r.assigns.size(), 0),
                                std::vector<char>(r.conds.size(), 0)));
  }
  return OkStatus();
}

QsqrEvaluator::QsqrEvaluator(const Program& program, FactDb* db,
                             EngineOptions options)
    : impl_(std::make_unique<Impl>()) {
  impl_->program = &program;
  impl_->db = db;
  impl_->options = std::move(options);
  impl_->init_status = impl_->Compile();
}

QsqrEvaluator::~QsqrEvaluator() = default;

const Status& QsqrEvaluator::status() const { return impl_->init_status; }

const QsqrEvaluator::Stats& QsqrEvaluator::stats() const {
  return impl_->stats;
}

bool QsqrEvaluator::Supports(const Program& program,
                             const std::string& query_pred) {
  std::map<std::string, std::vector<size_t>> defs;
  for (size_t i = 0; i < program.rules.size(); ++i) {
    for (const Atom& h : program.rules[i].head) {
      defs[h.predicate].push_back(i);
    }
  }
  std::set<std::string> cone{query_pred};
  std::deque<std::string> work{query_pred};
  while (!work.empty()) {
    std::string p = work.front();
    work.pop_front();
    auto it = defs.find(p);
    if (it == defs.end()) continue;
    for (size_t idx : it->second) {
      const Rule& r = program.rules[idx];
      if (!r.aggregates.empty() || !r.existentials.empty()) return false;
      for (const Literal& l : r.body) {
        if (l.negated) return false;
        if (cone.insert(l.atom.predicate).second) {
          work.push_back(l.atom.predicate);
        }
      }
    }
  }
  return true;
}

Result<std::vector<Tuple>> QsqrEvaluator::Query(const QueryBinding& query) {
  KGM_RETURN_IF_ERROR(impl_->init_status);
  // Program facts are part of the EDB, exactly as in Engine::Run.
  for (const FactDecl& f : impl_->program->facts) {
    impl_->db->GetOrCreate(f.predicate, f.values.size()).Insert(f.values);
  }
  uint64_t qmask = 0;
  Tuple bound;
  for (size_t i = 0; i < query.args.size() && i < 60; ++i) {
    if (query.args[i].has_value()) {
      qmask |= 1ULL << i;
      bound.push_back(*query.args[i]);
    }
  }
  std::vector<Tuple> out;
  if (impl_->defs.count(query.predicate) == 0) {
    // Extensional query predicate: the memo machinery has nothing to do.
    const Relation* rel = impl_->db->Get(query.predicate);
    if (rel != nullptr) {
      for (const Tuple& t : rel->tuples()) {
        ++impl_->stats.probes;
        if (query.Matches(t)) out.push_back(t);
      }
    }
    return out;
  }
  do {
    impl_->changed = false;
    impl_->seen.clear();
    ++impl_->stats.passes;
    KGM_RETURN_IF_ERROR(impl_->Solve(query.predicate, qmask, bound));
  } while (impl_->changed);

  const Relation* ans = impl_->db->Get(AnsName(query.predicate));
  if (ans != nullptr) {
    for (const Tuple& t : ans->tuples()) {
      if (query.Matches(t)) out.push_back(t);
    }
  }
  return out;
}

}  // namespace kgm::vadalog::magic
