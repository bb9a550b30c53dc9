#include "service/snapshot.h"

#include <utility>

namespace kgm::service {

vadalog::FactDb Snapshot::CloneFacts() const {
  vadalog::FactDb db;
  for (const auto& [pred, rel] : facts) db.Adopt(pred, rel);
  return db;
}

size_t Snapshot::IndexBuilds() const {
  size_t builds = 0;
  for (const auto& [pred, rel] : facts) builds += rel->index_builds();
  return builds;
}

size_t Snapshot::TotalFacts() const {
  size_t total = 0;
  for (const auto& [pred, rel] : facts) total += rel->size();
  return total;
}

std::shared_ptr<const Snapshot> BuildSnapshot(pg::PropertyGraph graph,
                                              uint64_t epoch) {
  auto snap = std::make_shared<Snapshot>();
  snap->epoch = epoch;
  snap->published_at = std::chrono::steady_clock::now();
  snap->graph = std::make_shared<const pg::PropertyGraph>(std::move(graph));
  snap->catalog = metalog::GraphCatalog::FromGraph(*snap->graph);
  snap->catalog_fingerprint = snap->catalog.Fingerprint();
  vadalog::FactDb encoded = metalog::EncodeGraph(*snap->graph, snap->catalog);
  for (const std::string& pred : encoded.Predicates()) {
    snap->facts.emplace(pred, encoded.Share(pred));
  }
  snap->num_nodes = snap->graph->num_nodes();
  snap->num_edges = snap->graph->num_edges();
  return snap;
}

bool EncodingCompatible(const metalog::GraphCatalog& base,
                        const metalog::GraphCatalog& extended) {
  for (const std::string& label : base.NodeLabels()) {
    if (extended.NodeProps(label) != base.NodeProps(label)) return false;
  }
  for (const std::string& label : base.EdgeLabels()) {
    if (extended.EdgeProps(label) != base.EdgeProps(label)) return false;
  }
  return true;
}

}  // namespace kgm::service
