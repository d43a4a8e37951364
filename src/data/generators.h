// Synthetic graph generators.
//
// The paper's benchmark graphs (Papers100M, Mag240M-Cites, Freebase86M, WikiKG90Mv2,
// FB15k-237, LiveJournal) are replaced by generators that match the *statistics the
// experiments depend on*: power-law degree distributions (preferential attachment),
// Zipf-distributed relation types for knowledge graphs, and community structure with
// separable features/labels for node classification (so accuracy differences between
// training regimes are meaningful). See README.md, "Datasets".
#ifndef SRC_DATA_GENERATORS_H_
#define SRC_DATA_GENERATORS_H_

#include <cstdint>
#include <vector>

#include "src/graph/graph.h"
#include "src/util/rng.h"

namespace mariusgnn {

// Barabási–Albert preferential attachment: each new node attaches to
// `edges_per_node` existing nodes chosen proportionally to degree. Produces a
// power-law degree distribution.
std::vector<Edge> BarabasiAlbertEdges(int64_t num_nodes, int64_t edges_per_node,
                                      Rng& rng);

// Uniformly random directed edges (no self loops).
std::vector<Edge> ErdosRenyiEdges(int64_t num_nodes, int64_t num_edges, Rng& rng);

// Assigns each edge a relation id drawn from a Zipf(s=1) distribution over
// [0, num_relations) — matching the long-tailed relation frequencies of Freebase-like
// knowledge graphs.
void AssignZipfRelations(std::vector<Edge>& edges, int32_t num_relations, Rng& rng);

struct CommunityGraphConfig {
  int64_t num_nodes = 10000;
  int64_t edges_per_node = 10;
  int64_t num_communities = 16;
  double intra_community_prob = 0.8;  // probability an edge stays within community
  int64_t feature_dim = 32;
  float feature_noise = 1.0f;  // stddev of per-node noise around the community centroid
  double train_fraction = 0.05;
  double valid_fraction = 0.05;
  double test_fraction = 0.10;
};

// Community-planted node-classification graph: labels are community ids, features are
// community centroids plus Gaussian noise, and edges are mostly intra-community —
// giving a GNN a genuine signal to learn.
Graph MakeCommunityGraph(const CommunityGraphConfig& config, Rng& rng);

// Knowledge graph for link prediction with edge splits.
//
// Structure is *planted* so held-out edges are predictable (as they are in real KGs):
// nodes belong to latent clusters, each relation deterministically connects a
// (source-cluster, destination-cluster) pair, and node popularity within a cluster is
// Zipf-distributed (long-tailed degrees). A noise fraction of edges is fully random.
// A trained model can thus place held-out true edges above random negatives, making
// MRR a meaningful quality signal for comparing training regimes.
struct KnowledgeGraphConfig {
  int64_t num_nodes = 15000;
  int64_t edges_per_node = 18;
  int32_t num_relations = 237;
  int64_t num_clusters = 32;
  double noise_fraction = 0.05;  // fraction of edges ignoring cluster structure
  double valid_fraction = 0.02;
  double test_fraction = 0.02;
};

Graph MakeKnowledgeGraph(const KnowledgeGraphConfig& config, Rng& rng);

}  // namespace mariusgnn

#endif  // SRC_DATA_GENERATORS_H_
