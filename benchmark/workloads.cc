// Benchmark driver: runs ONE workload in this process, timing every call into
// the library's public API with steady_clock, and prints the run's record as
// one JSON line on stdout (progress goes to stderr). benchmark/run.py builds
// and runs it; benchmark/README.md describes the workloads and metrics.
//
//   mgnn_workloads --workload NAME --seed N --seconds S --trace 0|1 --work DIR
//                  [--trace-out FILE] [--smoke]
//
// Every workload has the life cycle a user of the system sees: load a graph
// and build a trainer, then train in blocks of epochs, where each block ends
// by checkpointing the model, deploying the checkpoint to a fresh
// InferenceServer and serving one pass of a fixed open-loop request schedule;
// finally evaluate. The blocks interleave training and serving, so every
// metric samples the whole run rather than one stretch of it. The inputs are
// generated from --seed before anything is timed and reach the program only
// as files written by SaveGraph. With --trace 1 the same phases run with a
// span around every call, followed by a serial replay (benchmark/replay.h)
// that splits one epoch and a sample of requests into per-layer spans; the
// spans are written as Chrome trace-event JSON to --trace-out.
//
// Timings are read with estimators that a shared virtual host moves least
// (benchmark/README.md, "Estimators"): the lower quartile of the warm epochs,
// and for each request its fastest latency over the passes. The host's speed
// wanders by a third within seconds; the fastest of many identical pieces of
// work reads steadily only when each piece is short, as a request is and an
// epoch is not.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <malloc.h>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "benchmark/replay.h"
#include "benchmark/trace.h"
#include "src/core/mariusgnn.h"
#include "src/data/serialize.h"
#include "src/storage/io_engine.h"
#include "src/util/rv_monitor.h"

using namespace mariusgnn;
using namespace mgbench;

namespace {

// Training set-ups after each serving pass, beside the one that trains; the
// median of all of them is reported.
constexpr int kSetupsPerPass = 1;
// Passes over the request schedule, one after each block of epochs; a
// request's latency is its fastest over the passes. The more passes, the
// likelier every request meets a moment when the host runs at full speed:
// going from 20 to 40 passes about halved the run-to-run spread of the
// latency percentiles on the disk workloads.
constexpr int kServePasses = 40;
constexpr std::chrono::microseconds kSpinBeforeSend{300};
constexpr double kWarmupShare = 0.1;  // of each pass's requests, not counted
constexpr int kCandidates = 100;       // candidates per link query
constexpr size_t kOracleStride = 16;   // every 16th answer is checked bitwise
constexpr int64_t kEvalNegatives = 100;
constexpr int64_t kEvalEdges = 5000;   // test edges ranked for MRR
constexpr int64_t kEvalNodes = 1000;   // test nodes classified for accuracy
constexpr size_t kReplayRequests = 1000;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  bool smoke = false;
  std::string work_dir;
  std::string trace_out;
};

struct WorkloadSpec {
  const char* name;
  TaskKind task;
  Graph (*dataset)(double scale, uint64_t seed);
  double scale;
  double smoke_scale;
  // The epoch count is fixed by --seconds, not by the clock, so every run of
  // a seed does the same work and reaches the same model: train_share of
  // --seconds over the epoch time measured on the 4-core reference host.
  double reference_epoch_s;
  double train_share;
  double serve_share;  // share of --seconds spent serving, over all passes
  double serve_qps;    // open-loop request rate
  void (*configure)(TrainingConfig* config);
};

// WikiMini's shape (7 edges per node, 200 relations) with 128 latent clusters
// rather than 32: on a graph this small, MRR over the coarser structure swings
// with the sizes of the few clusters the seed's most frequent relations land
// in (about 12% between seeds, against 4-6% here).
Graph WikiMiniFine(double scale, uint64_t seed) {
  Rng rng(seed);
  KnowledgeGraphConfig config;
  config.num_nodes = std::lround(scale * 40000);
  config.edges_per_node = 7;
  config.num_relations = 200;
  config.num_clusters = 128;
  return MakeKnowledgeGraph(config, rng);
}

// GraphSage link prediction, in memory.
void ConfigureLpMem(TrainingConfig* c) {
  c->fanouts = {10};
  c->dims = {32, 32};
  c->batch_size = 1000;
  c->num_negatives = 50;
}

// Decoder-only DistMult over the COMET partition buffer.
void ConfigureKgeDisk(TrainingConfig* c) {
  c->fanouts = {};
  c->dims = {128};
  c->decoder = "distmult";
  c->batch_size = 10000;
  c->num_negatives = 16;
  c->storage.use_disk = true;
  c->storage.num_physical = 16;
  c->storage.num_logical = 8;
  c->storage.buffer_capacity = 4;
  c->storage.policy = "comet";
}

// 3-layer GraphSage node classification over read-only disk features, in the
// cached regime (all training partitions resident: one set per epoch).
void ConfigureNcDisk(TrainingConfig* c) {
  c->fanouts = {15, 10, 5};
  c->dims = {64, 64, 64, 32};
  c->batch_size = 1000;
  c->storage.use_disk = true;
  c->storage.num_physical = 16;
  c->storage.buffer_capacity = 4;
}

// name, task, dataset, scale, smoke scale, reference epoch s, train share,
// serve share, qps, model/storage configuration.
const WorkloadSpec kWorkloads[] = {
    {"lp_mem", TaskKind::kLinkPrediction, Fb15k237Like, 0.1, 0.03, 0.36, 0.45, 0.30, 500.0,
     ConfigureLpMem},
    {"kge_disk", TaskKind::kLinkPrediction, WikiMiniFine, 0.1, 0.05, 0.33, 0.45, 0.30, 500.0,
     ConfigureKgeDisk},
    {"nc_disk", TaskKind::kNodeClassification, PapersMini, 0.5, 0.2, 0.11, 0.30, 0.45, 200.0,
     ConfigureNcDisk},
};

[[noreturn]] void Usage(const char* message) {
  std::fprintf(stderr,
               "error: %s\nusage: mgnn_workloads --workload NAME --seed N --seconds S "
               "--trace 0|1 --work DIR [--trace-out FILE] [--smoke]\n",
               message);
  std::exit(2);
}

Options ParseOptions(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      opt.smoke = true;
      continue;
    }
    if (i + 1 >= argc) {
      Usage(("missing value for " + arg).c_str());
    }
    const std::string value = argv[++i];
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::atof(value.c_str());
    } else if (arg == "--trace") {
      opt.trace = value == "1";
    } else if (arg == "--work") {
      opt.work_dir = value;
    } else if (arg == "--trace-out") {
      opt.trace_out = value;
    } else {
      Usage(("unknown option " + arg).c_str());
    }
  }
  if (opt.work_dir.empty() || !(opt.seconds > 0.0)) {
    Usage("--work and a positive --seconds are required");
  }
  if (opt.trace && opt.trace_out.empty()) {
    Usage("--trace 1 needs --trace-out");
  }
  return opt;
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile (p in (0, 1]).
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  return v[std::max<size_t>(rank, 1) - 1];
}

// Peak resident set size of this process (VmHWM), in MB.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) * 1024.0 / 1e6;  // the kernel reports kB
    }
  }
  return 0.0;
}

// Returns freed heap to the kernel, then resets VmHWM to the current RSS
// (Linux clear_refs "5"), so the next PeakRssMb() reads the peak of what ran
// in between, not of memory the allocator merely kept cached.
bool ResetPeakRss() {
  malloc_trim(0);
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
  clear_refs.flush();
  return clear_refs.good();
}

// Zipf(1.0) over [0, n) through a seeded permutation, so the popular ids
// differ between seeds.
class ZipfSampler {
 public:
  ZipfSampler(int64_t n, Rng& rng) : ids_(static_cast<size_t>(n)), cdf_(static_cast<size_t>(n)) {
    double total = 0.0;
    for (int64_t k = 0; k < n; ++k) {
      ids_[static_cast<size_t>(k)] = k;
      total += 1.0 / static_cast<double>(k + 1);
      cdf_[static_cast<size_t>(k)] = total;
    }
    rng.Shuffle(ids_);
  }
  int64_t Sample(Rng& rng) const {
    const double u = rng.UniformDouble() * cdf_.back();
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    return ids_[std::min(static_cast<size_t>(it - cdf_.begin()), ids_.size() - 1)];
  }

 private:
  std::vector<int64_t> ids_;
  std::vector<double> cdf_;
};

// `count` requests. Link queries draw their source and relation Zipf(1.0)
// and their candidates uniformly; classified nodes are uniform. The
// candidates (or the classified node's neighborhood) are most of a request's
// work, and no cache sits in the serving path: skewed candidates would only
// make a run's cost depend on the degrees of the few nodes its seed happens
// to make popular.
std::vector<Query> MakeRequests(const Graph& graph, TaskKind task, size_t count, uint64_t seed) {
  Rng rng(MixSeed(seed, 0x4C4F4144ULL));  // "LOAD"
  const ZipfSampler sources(graph.num_nodes(), rng);
  const ZipfSampler rels(graph.num_relations(), rng);
  const uint64_t n = static_cast<uint64_t>(graph.num_nodes());
  std::vector<Query> queries(count);
  for (Query& q : queries) {
    if (task == TaskKind::kLinkPrediction) {
      q.src = sources.Sample(rng);
      q.rel = static_cast<int32_t>(rels.Sample(rng));
      for (int j = 0; j < kCandidates; ++j) {
        q.candidates.push_back(static_cast<int64_t>(rng.UniformInt(n)));
      }
    } else {
      q.src = static_cast<int64_t>(rng.UniformInt(n));
    }
  }
  return queries;
}

struct PassResult {
  std::vector<double> latency_ms;           // per request, from its scheduled time
  std::vector<double> lag_ms;               // how late the generator sent it
  std::vector<std::vector<float>> checked;  // answers of requests 0, 16, 32, ...
  int64_t wrong_size = 0;
};

// Serves the requests once, open loop at a fixed rate, from the calling
// thread: request i is due `i + 1` intervals after the start and is sent then
// unless the previous one is still being answered, in which case it goes out
// as soon as that one returns; latency is timed from the due time, so that
// wait counts. The rates leave the server idle most of the time, so a request
// waits only when the one before it ran long. Poisson arrivals at these rates
// put the 90th percentile on the edge between requests that queued behind a
// burst and requests that did not, and with a few hundred requests it jumped
// between the two from seed to seed (spreads of 25-40%). One sender keeps the
// serving path on one core, and every batch holds one request.
PassResult ServePass(InferenceServer* server, TaskKind task, size_t expected_size,
                     const std::vector<Query>& queries, double qps, Tracer* tracer) {
  const size_t n = queries.size();
  PassResult out;
  out.latency_ms.resize(n);
  out.lag_ms.resize(n);
  out.checked.resize((n + kOracleStride - 1) / kOracleStride);
  const Clock::time_point start = Clock::now();
  for (size_t i = 0; i < n; ++i) {
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(static_cast<double>(i + 1) / qps));
    // Sleep, then spin the last stretch: a timed sleep on a virtual machine
    // wakes up to a few hundred microseconds late, which would otherwise
    // dominate the latency of sub-millisecond requests.
    std::this_thread::sleep_until(due - kSpinBeforeSend);
    while (Clock::now() < due) {
    }
    const Clock::time_point sent = Clock::now();
    const Query& q = queries[i];
    ServeResult r = task == TaskKind::kNodeClassification
                        ? server->Classify(q.src)
                        : server->ScoreLinks(q.src, q.rel, q.candidates);
    const Clock::time_point done = Clock::now();
    out.latency_ms[i] = SecondsBetween(due, done) * 1e3;
    out.lag_ms[i] = SecondsBetween(due, sent) * 1e3;
    out.wrong_size += r.values.size() == expected_size ? 0 : 1;
    tracer->Record("serve.request", 0, due, done, {{"lag_ms", out.lag_ms[i]}});
    if (i % kOracleStride == 0) {
      out.checked[i / kOracleStride] = std::move(r.values);
    }
  }
  return out;
}

// The run's record: what run.py turns into its result line.
struct Record {
  std::map<std::string, double> metrics;
  std::vector<std::string> errors;
  std::vector<uint64_t> epoch_hashes;
  int64_t attempted = 0;
  int64_t failed = 0;
  bool direct_io = false;

  void Fail(const std::string& what) {
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
    errors.push_back(what);
  }

  void Print(const Options& opt) const {
    std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, \"smoke\": %d, ",
                opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
                opt.trace ? 1 : 0, opt.smoke ? 1 : 0);
    std::printf("\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"direct_io\": %s, ",
                errors.empty() && failed == 0 ? "true" : "false",
                static_cast<long long>(attempted), static_cast<long long>(failed),
                direct_io ? "true" : "false");
    std::printf("\"errors\": [");
    for (size_t i = 0; i < errors.size(); ++i) {
      std::string escaped;
      for (char c : errors[i]) {
        if (c == '"' || c == '\\') {
          escaped += '\\';
        }
        escaped += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
      }
      std::printf("%s\"%s\"", i == 0 ? "" : ", ", escaped.c_str());
    }
    std::printf("], \"epoch_hashes\": [");
    for (size_t i = 0; i < epoch_hashes.size(); ++i) {
      std::printf("%s\"%016llx\"", i == 0 ? "" : ", ",
                  static_cast<unsigned long long>(epoch_hashes[i]));
    }
    std::printf("], \"metrics\": {");
    bool first = true;
    for (const auto& [name, value] : metrics) {
      std::printf("%s\"%s\": %.17g", first ? "" : ", ", name.c_str(), value);
      first = false;
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }
};

// Every epoch but the cold first one.
std::vector<double> Warm(const std::vector<double>& per_epoch) {
  return std::vector<double>(per_epoch.begin() + (per_epoch.size() > 1 ? 1 : 0),
                             per_epoch.end());
}

double WarmMedian(const std::vector<double>& per_epoch) { return Median(Warm(per_epoch)); }

// WarmMedian of one EpochStats field.
template <typename F>
double WarmMedian(const std::vector<EpochStats>& epochs, F&& field) {
  std::vector<double> v;
  for (const EpochStats& s : epochs) {
    v.push_back(static_cast<double>(field(s)));
  }
  return WarmMedian(v);
}

// A graph and the trainer over it.
struct SetUp {
  std::unique_ptr<Graph> graph;
  std::unique_ptr<LinkPredictionTrainer> lp;
  std::unique_ptr<NodeClassificationTrainer> nc;
};

// The training set-up, LoadGraph plus the trainer constructor; appends its
// time to `seconds`.
SetUp TimedSetUp(const std::string& graph_prefix, TaskKind task, const TrainingConfig& config,
                 Tracer* tracer, std::vector<double>* seconds) {
  SetUp s;
  const Clock::time_point t0 = Clock::now();
  s.graph = std::make_unique<Graph>(LoadGraph(graph_prefix));
  const Clock::time_point t1 = Clock::now();
  if (task == TaskKind::kLinkPrediction) {
    s.lp = std::make_unique<LinkPredictionTrainer>(s.graph.get(), config);
  } else {
    s.nc = std::make_unique<NodeClassificationTrainer>(s.graph.get(), config);
  }
  const Clock::time_point t2 = Clock::now();
  tracer->Record("core.load_graph", 0, t0, t1);
  tracer->Record("core.trainer_ctor", 0, t1, t2);
  seconds->push_back(SecondsBetween(t0, t2));
  return s;
}

void RunWorkload(const WorkloadSpec& spec, const Options& opt, Tracer* tracer, Record* rec) {
  const bool lp_task = spec.task == TaskKind::kLinkPrediction;
  TrainingConfig config;
  spec.configure(&config);
  // Training runs on one thread: no sampling workers and serial kernels, which
  // train the same model bit for bit. A parallel epoch waits for all of the
  // host's cores at once, and its fastest time drifts 15-30% between runs.
  config.pipeline.enabled = false;
  config.pipeline.parallel_compute = false;
  config.seed = opt.seed;
  config.storage.dir = opt.work_dir;
  const std::string graph_prefix = opt.work_dir + "/graph";
  const std::string checkpoint = opt.work_dir + "/model.ckpt";
  rec->direct_io = ProbeDirectIo(opt.work_dir);
  const uint64_t rv_before = RvRuntime::Global().TotalViolations();

  // Inputs, untimed: the program sees only the files SaveGraph writes.
  {
    const Graph generated = spec.dataset(opt.smoke ? spec.smoke_scale : spec.scale, opt.seed);
    SaveGraph(generated, graph_prefix);
    std::fprintf(stderr, "%s: %lld nodes, %lld edges (seed %llu)\n", spec.name,
                 static_cast<long long>(generated.num_nodes()),
                 static_cast<long long>(generated.num_edges()),
                 static_cast<unsigned long long>(opt.seed));
  }

  // 1. Training set-up. The first one's trainer is the one that trains; more
  //    follow every serving pass (see below), so the median samples the run.
  std::vector<double> train_setup_s;
  const SetUp trained = TimedSetUp(graph_prefix, spec.task, config, tracer, &train_setup_s);
  Graph* graph = trained.graph.get();
  LinkPredictionTrainer* lp = trained.lp.get();
  NodeClassificationTrainer* nc = trained.nc.get();
  TrainerBase* trainer = lp_task ? static_cast<TrainerBase*>(lp) : nc;
  TrainingConfig spare_config = config;  // the extra set-ups' storage stays apart
  spare_config.storage.dir = opt.work_dir + "/spare";
  std::filesystem::create_directories(spare_config.storage.dir);

  // 2. Epochs, a fixed number for this --seconds (see WorkloadSpec), in
  //    blocks. Each block ends by checkpointing the model, deploying the
  //    checkpoint to a fresh server (constructor + LoadSnapshot: the serving
  //    set-up) and serving one pass of the request schedule, the same schedule
  //    every pass.
  const size_t passes = opt.smoke ? 2 : kServePasses;
  const size_t num_epochs = static_cast<size_t>(std::max<long>(
      static_cast<long>(passes),
      std::lround(spec.train_share * opt.seconds / spec.reference_epoch_s)));
  const std::vector<Query> queries = MakeRequests(
      *graph, spec.task,
      static_cast<size_t>(spec.serve_qps * spec.serve_share * opt.seconds / passes), opt.seed);
  const size_t answer_size =
      lp_task ? static_cast<size_t>(kCandidates) : static_cast<size_t>(graph->num_classes());
  const size_t warmup =
      static_cast<size_t>(std::ceil(kWarmupShare * static_cast<double>(queries.size())));
  // Per counted request, its fastest latency over the passes.
  std::vector<double> best_ms(queries.size() - warmup, INFINITY);
  std::vector<double> lag_ms;
  std::vector<EpochStats> epochs;
  std::vector<double> epoch_s, epoch_peak_mb, checkpoint_s, serve_setup_s, load_snapshot_s;
  std::unique_ptr<InferenceServer> server;
  bool rss_reset = true;
  int64_t wrong_size = 0;
  int64_t mismatched = 0;
  for (size_t pass = 0; pass < passes; ++pass) {
    // Peak memory is the epoch's own: the spare set-ups' and the previous
    // server's allocations are gone before the peak is reset.
    server.reset();
    while (epochs.size() < num_epochs * (pass + 1) / passes) {
      rss_reset = ResetPeakRss() && rss_reset;
      const Clock::time_point b = Clock::now();
      const EpochStats s = trainer->TrainEpoch();
      const Clock::time_point e = Clock::now();
      epoch_peak_mb.push_back(PeakRssMb());
      if (tracer->enabled()) {
        tracer->Record("core.train_epoch", 0, b, e,
                       {{"loss", s.loss},
                        {"examples", static_cast<double>(s.num_examples)},
                        {"pipeline_sample_s", s.sample_seconds},
                        {"pipeline_compute_s", s.compute_seconds},
                        {"io_read_mb", static_cast<double>(s.io_read_bytes) / 1e6},
                        {"io_write_mb", static_cast<double>(s.io_write_bytes) / 1e6},
                        {"io_modeled_s", s.io_seconds},
                        {"sets", static_cast<double>(s.num_partition_sets)}});
      }
      epoch_s.push_back(SecondsBetween(b, e));
      epochs.push_back(s);
      rec->epoch_hashes.push_back(s.determinism_hash);
      ++rec->attempted;
      if (!std::isfinite(s.loss) || s.rv_violations != 0) {
        ++rec->failed;
        rec->Fail("epoch " + std::to_string(epochs.size()) + ": non-finite loss or RV violation");
      }
    }

    Clock::time_point b = Clock::now();
    trainer->SaveCheckpoint(checkpoint);
    Clock::time_point e = Clock::now();
    tracer->Record("core.checkpoint", 0, b, e);
    checkpoint_s.push_back(SecondsBetween(b, e));

    b = Clock::now();
    server = std::make_unique<InferenceServer>(graph, spec.task, config.model_config(),
                                               ServeOptions());
    const Clock::time_point ctor_done = Clock::now();
    std::string error;
    const bool loaded = server->LoadSnapshot(checkpoint, &error);
    e = Clock::now();
    tracer->Record("serve.ctor", 0, b, ctor_done);
    tracer->Record("serve.load_snapshot", 0, ctor_done, e);
    if (!loaded) {
      rec->Fail("LoadSnapshot: " + error);
      return;
    }
    serve_setup_s.push_back(SecondsBetween(b, e));
    load_snapshot_s.push_back(SecondsBetween(ctor_done, e));

    const PassResult r =
        ServePass(server.get(), spec.task, answer_size, queries, spec.serve_qps, tracer);
    for (size_t i = warmup; i < queries.size(); ++i) {
      best_ms[i - warmup] = std::min(best_ms[i - warmup], r.latency_ms[i]);
      lag_ms.push_back(r.lag_ms[i]);
    }
    rec->attempted += static_cast<int64_t>(queries.size());
    wrong_size += r.wrong_size;
    // Bitwise oracle check of every 16th answer, outside the timed pass.
    for (size_t i = 0; i < queries.size(); i += kOracleStride) {
      const Query& q = queries[i];
      const ServeResult want = lp_task ? server->ScoreLinksUnbatched(q.src, q.rel, q.candidates)
                                       : server->ClassifyUnbatched(q.src);
      mismatched += BitwiseEqual(r.checked[i / kOracleStride], want.values) ? 0 : 1;
    }
    for (int k = 0; k < kSetupsPerPass; ++k) {
      TimedSetUp(graph_prefix, spec.task, spare_config, tracer, &train_setup_s);
    }
  }
  if (!rss_reset) {
    rec->Fail("could not reset the peak RSS through /proc/self/clear_refs");
  }
  rec->failed += wrong_size + mismatched;
  if (wrong_size != 0) {
    rec->Fail(std::to_string(wrong_size) + " answers of the wrong size");
  }
  if (mismatched != 0) {
    rec->Fail(std::to_string(mismatched) + " served answers differ from the unbatched oracle");
  }

  // 3. Evaluation of the final model.
  const Clock::time_point b = Clock::now();
  double quality = 0.0;
  double chance = 0.0;
  if (lp_task) {
    quality = lp->EvaluateMrr(kEvalNegatives, kEvalEdges);
    // Expected MRR of a random ranking among kEvalNegatives + 1 candidates.
    for (int64_t r = 1; r <= kEvalNegatives + 1; ++r) {
      chance += 1.0 / static_cast<double>(r);
    }
    chance /= static_cast<double>(kEvalNegatives + 1);
  } else {
    const std::vector<int64_t>& test = graph->test_nodes();
    const size_t count = std::min(static_cast<size_t>(kEvalNodes), test.size());
    quality = nc->EvaluateAccuracy(std::vector<int64_t>(test.begin(), test.begin() + count));
    chance = 1.0 / static_cast<double>(graph->num_classes());
  }
  const Clock::time_point e = Clock::now();
  tracer->Record("core.eval", 0, b, e, {{"score", quality}});
  const double eval_s = SecondsBetween(b, e);
  if (!(quality > 2.0 * chance)) {
    rec->Fail("evaluation score " + std::to_string(quality) + " is not above twice chance (" +
              std::to_string(chance) + ")");
  }

  // End-to-end metrics (reported from untraced runs).
  auto& m = rec->metrics;
  m["setup_s"] = Median(train_setup_s) + Median(serve_setup_s);
  m["epoch_s"] = Percentile(Warm(epoch_s), 0.25);
  m["eval_score"] = quality;
  m["peak_rss_mb"] = WarmMedian(epoch_peak_mb);
  m["serve_p50_ms"] = Percentile(best_ms, 0.50);
  m["serve_p90_ms"] = Percentile(best_ms, 0.90);

  if (opt.trace) {
    // Per-layer metrics: the timed phases' tails and counters, then the
    // serial replays.
    using S = const EpochStats&;
    const CheckpointSaveStats save = trainer->last_checkpoint_stats();
    m["core.checkpoint_s"] = Median(checkpoint_s);
    m["serve.p99_ms"] = Percentile(best_ms, 0.99);
    m["storage.read_mb"] = WarmMedian(epochs, [](S s) { return s.io_read_bytes / 1e6; });
    m["storage.write_mb"] = WarmMedian(epochs, [](S s) { return s.io_write_bytes / 1e6; });
    m["storage.queue_depth_mean"] = WarmMedian(epochs, [](S s) { return s.io_queue_depth_mean; });
    m["storage.inflight_peak"] = WarmMedian(epochs, [](S s) { return s.io_inflight_peak; });
    m["storage.io_modeled_s"] = WarmMedian(epochs, [](S s) { return s.io_seconds; });
    m["pipeline.sample_s"] = WarmMedian(epochs, [](S s) { return s.sample_seconds; });
    m["pipeline.batches"] = WarmMedian(epochs, [](S s) { return s.num_batches; });
    m["pipeline.compute_s"] = WarmMedian(epochs, [](S s) { return s.compute_seconds; });
    m["core.train_setup_s"] = Median(train_setup_s);
    m["core.first_epoch_s"] = epoch_s.front();
    m["core.eval_s"] = eval_s;
    m["core.checkpoint_mb"] = static_cast<double>(save.bytes_written) / 1e6;
    m["core.checkpoint_peak_mb"] = static_cast<double>(save.peak_bytes) / 1e6;
    m["serve.load_snapshot_s"] = Median(load_snapshot_s);
    m["serve.send_lag_p99_ms"] = Percentile(lag_ms, 0.99);

    std::fprintf(stderr, "%s: replaying one epoch serially\n", spec.name);
    const TrainingReplay replay =
        ReplayTrainingEpoch(*graph, config, spec.task, opt.work_dir, tracer);
    if (replay.determinism_hash != epochs.front().determinism_hash) {
      char hashes[64];
      std::snprintf(hashes, sizeof(hashes), " (%016llx vs %016llx)",
                    static_cast<unsigned long long>(replay.determinism_hash),
                    static_cast<unsigned long long>(epochs.front().determinism_hash));
      rec->Fail(std::string("the replayed epoch's determinism hash differs from the "
                            "trainer's first epoch") + hashes);
    }
    for (const char* stage : kTrainingStages) {
      m[std::string(stage) + "_s"] = tracer->TotalSeconds(stage);
    }
    m["policy.sets"] = static_cast<double>(replay.sets);
    m["policy.partition_loads"] = static_cast<double>(replay.partition_loads);
    m["graph.index_edges"] = static_cast<double>(replay.index_edges);
    m["sampler.nodes_per_batch"] = replay.nodes_per_batch;
    m["sampler.edges_per_batch"] = replay.edges_per_batch;
    m["core.replay_s"] = replay.epoch_seconds;
    m["core.replay_other_s"] = replay.epoch_seconds - replay.spans_seconds;

    const std::vector<Query> sample(
        queries.begin(), queries.begin() + std::min(queries.size(), kReplayRequests));
    const ServingReplay serving = ReplayServing(*graph, spec.task, config.model_config(),
                                                checkpoint, sample, *server, tracer);
    if (!serving.error.empty()) {
      rec->Fail("serving replay: " + serving.error);
    } else if (serving.mismatches != 0) {
      rec->Fail(std::to_string(serving.mismatches) +
                " replayed serving answers differ from the unbatched oracle");
    }
    m["serve.execute_p50_ms"] = Percentile(serving.execute_ms, 0.50);
    m["serve.execute_p99_ms"] = Percentile(serving.execute_ms, 0.99);
    for (const char* stage : {"serve.sample", "serve.gather", "serve.forward", "serve.score"}) {
      m[std::string(stage) + "_s"] = tracer->TotalSeconds(stage);
    }
  }

  const uint64_t rv = RvRuntime::Global().TotalViolations() - rv_before;
  if (rv != 0) {
    rec->Fail(std::to_string(rv) + " runtime-verification violations");
  }
  std::fprintf(stderr,
               "%s: %zu epochs (lower quartile %.3f s, median %.3f s), score %.4f, %zu passes "
               "of %zu requests (p50 %.3f ms, p90 %.3f ms)\n",
               spec.name, epochs.size(), m["epoch_s"], WarmMedian(epoch_s), quality, passes,
               queries.size(), m["serve_p50_ms"], m["serve_p90_ms"]);
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = ParseOptions(argc, argv);
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : kWorkloads) {
    if (opt.workload == w.name) {
      spec = &w;
    }
  }
  if (spec == nullptr) {
    Usage(("unknown workload '" + opt.workload + "'").c_str());
  }
  Tracer tracer(opt.trace);
  Record rec;
  RunWorkload(*spec, opt, &tracer, &rec);
  if (opt.trace && !tracer.WriteChromeJson(opt.trace_out)) {
    rec.Fail("could not write " + opt.trace_out);
  }
  rec.Print(opt);
  return 0;
}
