#include "src/data/serialize.h"

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/util/binary_io.h"
#include "src/util/check.h"

namespace mariusgnn {

namespace {

constexpr uint64_t kMagic = 0x4D47474E31ULL;  // "MGGN1"

struct Meta {
  uint64_t magic = kMagic;
  int64_t num_nodes = 0;
  int64_t num_edges = 0;
  int32_t num_relations = 1;
  int32_t has_features = 0;
  int64_t feature_dim = 0;
  int64_t num_classes = 0;
  int64_t n_train_nodes = 0, n_valid_nodes = 0, n_test_nodes = 0;
  int64_t n_train_edges = 0, n_valid_edges = 0, n_test_edges = 0;
  int32_t has_labels = 0;
};

}  // namespace

void SaveGraph(const Graph& graph, const std::string& prefix) {
  Meta meta;
  meta.num_nodes = graph.num_nodes();
  meta.num_edges = graph.num_edges();
  meta.num_relations = graph.num_relations();
  meta.has_features = graph.has_features() ? 1 : 0;
  meta.feature_dim = graph.has_features() ? graph.features().cols() : 0;
  meta.num_classes = graph.num_classes();
  meta.has_labels = graph.labels().empty() ? 0 : 1;
  meta.n_train_nodes = static_cast<int64_t>(graph.train_nodes().size());
  meta.n_valid_nodes = static_cast<int64_t>(graph.valid_nodes().size());
  meta.n_test_nodes = static_cast<int64_t>(graph.test_nodes().size());
  meta.n_train_edges = static_cast<int64_t>(graph.train_edges().size());
  meta.n_valid_edges = static_cast<int64_t>(graph.valid_edges().size());
  meta.n_test_edges = static_cast<int64_t>(graph.test_edges().size());
  // Each component file is replaced atomically (tmp → fsync → rename), so no
  // individual file can ever be torn. All payloads are staged first and the
  // renames happen together at the end, with .meta — the file LoadGraph trusts
  // for every count — committed last: a crash anywhere before the final rename
  // leaves the previous snapshot fully intact. (A crash inside the brief rename
  // sequence can still mix generations across component files; true multi-file
  // atomicity would need the checkpoint layer's single-file manifest format.)
  std::vector<std::unique_ptr<AtomicFile>> staged;
  auto stage = [&staged](const std::string& path) -> AtomicFile& {
    staged.push_back(std::make_unique<AtomicFile>(path));
    return *staged.back();
  };
  {
    AtomicFile& f = stage(prefix + ".edges");
    if (!graph.edges().empty()) {
      f.WriteAt(graph.edges().data(), graph.edges().size() * sizeof(Edge), 0);
    }
  }
  if (graph.has_features()) {
    AtomicFile& f = stage(prefix + ".feat");
    f.WriteAt(graph.features().data(),
              static_cast<size_t>(graph.features().size()) * sizeof(float), 0);
  }
  if (!graph.labels().empty()) {
    AtomicFile& f = stage(prefix + ".labels");
    const uint64_t count = graph.labels().size();
    f.WriteAt(&count, sizeof(count), 0);
    f.WriteAt(graph.labels().data(), count * sizeof(int64_t), sizeof(count));
  }
  {
    AtomicFile& f = stage(prefix + ".splits");
    uint64_t offset = 0;
    auto write_split = [&](const std::vector<int64_t>& split) {
      if (!split.empty()) {
        f.WriteAt(split.data(), split.size() * sizeof(int64_t), offset);
        offset += split.size() * sizeof(int64_t);
      }
    };
    write_split(graph.train_nodes());
    write_split(graph.valid_nodes());
    write_split(graph.test_nodes());
    write_split(graph.train_edges());
    write_split(graph.valid_edges());
    write_split(graph.test_edges());
  }
  stage(prefix + ".meta").WriteAt(&meta, sizeof(meta), 0);
  for (auto& f : staged) {
    f->Commit();
  }
}

namespace {

// Every count in .meta is untrusted: `count` elements of `elem_bytes` must fit in
// the `available` bytes left in their file before anything is allocated for them.
void CheckCountFits(int64_t count, uint64_t elem_bytes, uint64_t available,
                    const char* message) {
  MG_CHECK_MSG(count >= 0 && static_cast<uint64_t>(count) <= available / elem_bytes,
               message);
}

std::string BadEdgeMessage(size_t i, const Edge& e) {
  return "edge " + std::to_string(i) + " (src " + std::to_string(e.src) + ", dst " +
         std::to_string(e.dst) + ", rel " + std::to_string(e.rel) +
         ") is outside the graph's node or relation range";
}

}  // namespace

Graph LoadGraph(const std::string& prefix) {
  Meta meta;
  File::OpenReadOnly(prefix + ".meta")->ReadAt(&meta, sizeof(meta), 0);
  MG_CHECK_MSG(meta.magic == kMagic, "bad graph file magic");
  MG_CHECK_MSG(meta.num_nodes >= 0, "corrupt graph meta: negative node count");

  std::vector<Edge> edges;
  if (meta.num_edges != 0) {
    const std::unique_ptr<File> f = File::OpenReadOnly(prefix + ".edges");
    CheckCountFits(meta.num_edges, sizeof(Edge), f->Size(),
                   "corrupt graph: edge count exceeds the .edges file size");
    edges.resize(static_cast<size_t>(meta.num_edges));
    f->ReadAt(edges.data(), edges.size() * sizeof(Edge), 0);
  }
  // The index and bucket builds index arrays by endpoint, so check them all here.
  for (size_t i = 0; i < edges.size(); ++i) {
    const Edge& e = edges[i];
    MG_CHECK_MSG(e.src >= 0 && e.src < meta.num_nodes && e.dst >= 0 &&
                     e.dst < meta.num_nodes && e.rel >= 0 && e.rel < meta.num_relations,
                 BadEdgeMessage(i, e).c_str());
  }
  Graph graph(meta.num_nodes, std::move(edges), meta.num_relations);

  if (meta.has_features != 0) {
    const std::unique_ptr<File> f = File::OpenReadOnly(prefix + ".feat");
    const uint64_t feat_bytes = f->Size();
    const char* too_many = "corrupt graph: feature count exceeds the .feat file size";
    MG_CHECK_MSG(meta.feature_dim > 0, "corrupt graph meta: feature_dim");
    CheckCountFits(meta.feature_dim, sizeof(float), feat_bytes, too_many);
    CheckCountFits(meta.num_nodes, static_cast<uint64_t>(meta.feature_dim) * sizeof(float),
                   feat_bytes, too_many);
    std::vector<float> data(static_cast<size_t>(meta.num_nodes * meta.feature_dim));
    f->ReadAt(data.data(), data.size() * sizeof(float), 0);
    graph.set_features(Tensor(meta.num_nodes, meta.feature_dim, std::move(data)));
  }
  if (meta.has_labels != 0) {
    graph.set_labels(ReadVector<int64_t>(prefix + ".labels"));
    graph.set_num_classes(meta.num_classes);
  }
  {
    const std::unique_ptr<File> f = File::OpenReadOnly(prefix + ".splits");
    uint64_t available = f->Size();
    uint64_t offset = 0;
    auto read_split = [&](int64_t count) {
      CheckCountFits(count, sizeof(int64_t), available,
                     "corrupt graph: split counts exceed the .splits file size");
      std::vector<int64_t> split(static_cast<size_t>(count));
      if (count > 0) {
        f->ReadAt(split.data(), split.size() * sizeof(int64_t), offset);
        offset += split.size() * sizeof(int64_t);
        available -= split.size() * sizeof(int64_t);
      }
      return split;
    };
    std::vector<int64_t> train_nodes = read_split(meta.n_train_nodes);
    std::vector<int64_t> valid_nodes = read_split(meta.n_valid_nodes);
    std::vector<int64_t> test_nodes = read_split(meta.n_test_nodes);
    graph.set_node_splits(std::move(train_nodes), std::move(valid_nodes),
                          std::move(test_nodes));
    std::vector<int64_t> train_edges = read_split(meta.n_train_edges);
    std::vector<int64_t> valid_edges = read_split(meta.n_valid_edges);
    std::vector<int64_t> test_edges = read_split(meta.n_test_edges);
    graph.set_edge_splits(std::move(train_edges), std::move(valid_edges),
                          std::move(test_edges));
  }
  return graph;
}

void RemoveGraphFiles(const std::string& prefix) {
  for (const char* suffix : {".meta", ".edges", ".feat", ".labels", ".splits"}) {
    std::remove((prefix + suffix).c_str());
  }
}

}  // namespace mariusgnn
