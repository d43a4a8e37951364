// Tests for the simulated disk, IO engine, partition buffer, and embedding stores.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <thread>

#include <unistd.h>

#include "src/data/datasets.h"
#include "src/storage/disk.h"
#include "src/storage/embedding_store.h"
#include "src/storage/io_arena.h"
#include "src/storage/io_engine.h"
#include "src/storage/partition_buffer.h"
#include "src/util/binary_io.h"
#include "src/util/compute.h"

namespace mariusgnn {
namespace {

// IO-engine settings for the async buffer fixtures. Every buffer runs the
// runtime O_DIRECT probe (tmpfs and most CI filesystems reject it, taking the
// buffered-fallback path).
IoEngineOptions AsyncIo(int queue_depth = 4) {
  IoEngineOptions io;
  io.queue_depth = queue_depth;
  return io;
}

// Bytes of one whole-partition transfer of a learnable buffer: the values
// stream at its padded stride, then the state stream's rows rounded up to
// kIoAlignment.
size_t ExtentTransferBytes(const Partitioning& partitioning, int64_t dim,
                           int32_t partition) {
  int64_t max_rows = 0;
  for (int32_t p = 0; p < partitioning.num_partitions(); ++p) {
    max_rows = std::max(max_rows, partitioning.PartitionSize(p));
  }
  const size_t row_bytes = static_cast<size_t>(dim) * sizeof(float);
  return AlignUpIo(static_cast<size_t>(max_rows) * row_bytes) +
         AlignUpIo(static_cast<size_t>(partitioning.PartitionSize(partition)) * row_bytes);
}

TEST(DiskModel, SecondsCombineLatencyAndBandwidth) {
  DiskModel model;
  model.bandwidth_bytes_per_sec = 1e9;
  model.iops = 10000;
  // 1 op + 1 MB: 0.1 ms latency + ~1 ms transfer.
  EXPECT_NEAR(model.SecondsFor(1 << 20, 1), 1e-4 + 1048576.0 / 1e9, 1e-9);
}

TEST(SimulatedDisk, ReadWriteRoundTripAndStats) {
  const std::string path = TempPath("disk_test");
  SimulatedDisk disk(path);
  disk.Resize(4096);
  std::vector<float> out = {1.5f, -2.5f, 3.5f};
  disk.Write(out.data(), out.size() * sizeof(float), 128);
  std::vector<float> in(3);
  disk.Read(in.data(), in.size() * sizeof(float), 128);
  EXPECT_EQ(in, out);
  const size_t bytes = out.size() * sizeof(float);
  EXPECT_EQ(disk.stats().bytes_written, bytes);
  EXPECT_EQ(disk.stats().bytes_read, bytes);
  EXPECT_EQ(disk.stats().write_ops, 1u);
  EXPECT_EQ(disk.stats().read_ops, 1u);
  EXPECT_GT(disk.model().SecondsFor(bytes, disk.OpsFor(bytes)), 0.0);
  disk.ResetStats();
  EXPECT_EQ(disk.stats().bytes_read, 0u);
  ::remove(path.c_str());
}

TEST(SimulatedDisk, SmallReadsCostMoreOpsPerByte) {
  const std::string path = TempPath("disk_test_ops");
  DiskModel model;
  SimulatedDisk disk(path, model);
  disk.Resize(8 << 20);
  std::vector<char> buf(1 << 20);
  // One large read: one device op per 512 KiB block.
  disk.Read(buf.data(), buf.size(), 0);
  EXPECT_EQ(disk.stats().read_ops, 2u);
  const double large = model.SecondsFor(buf.size(), disk.OpsFor(buf.size()));
  disk.ResetStats();
  // Same bytes as 4096 small reads, one device op each.
  for (int i = 0; i < 4096; ++i) {
    disk.Read(buf.data(), 256, static_cast<uint64_t>(i) * 256);
  }
  EXPECT_EQ(disk.stats().read_ops, 4096u);
  EXPECT_EQ(disk.stats().bytes_read, buf.size());
  const double small = 4096 * model.SecondsFor(256, disk.OpsFor(256));
  EXPECT_GT(small, large * 10);
  ::remove(path.c_str());
}

class PartitionBufferTest : public ::testing::Test {
 protected:
  void SetUp() override {
    graph_ = LiveJournalMini(0.01);
    Rng rng(1);
    partitioning_ = std::make_unique<Partitioning>(graph_, 8,
                                                   PartitionAssignment::kRandom, rng);
    Rng rng2(2);
    init_ = Tensor::Uniform(graph_.num_nodes(), 4, 1.0f, rng2);
    path_ = TempPath("pb_test");
    buffer_ = std::make_unique<PartitionBuffer>(partitioning_.get(), 4, 3, path_,
                                                DiskModel(), /*learnable=*/true, &init_);
  }

  void TearDown() override {
    buffer_.reset();
    ::remove(path_.c_str());
  }

  Graph graph_;
  std::unique_ptr<Partitioning> partitioning_;
  Tensor init_;
  std::string path_;
  std::unique_ptr<PartitionBuffer> buffer_;
};

TEST_F(PartitionBufferTest, LoadMakesPartitionsResident) {
  buffer_->SetResident({0, 1, 2});
  EXPECT_TRUE(buffer_->IsResident(0));
  EXPECT_TRUE(buffer_->IsResident(2));
  EXPECT_FALSE(buffer_->IsResident(3));
  EXPECT_EQ(buffer_->ResidentPartitions().size(), 3u);
}

TEST_F(PartitionBufferTest, ValuesMatchInit) {
  buffer_->SetResident({0, 5});
  for (int64_t v : partitioning_->NodesIn(5)) {
    const float* row = buffer_->ValueRow(v);
    for (int64_t d = 0; d < 4; ++d) {
      EXPECT_FLOAT_EQ(row[d], init_(v, d));
    }
  }
}

TEST_F(PartitionBufferTest, DirtyWriteBackPersists) {
  buffer_->SetResident({0, 1});
  const int64_t node = partitioning_->NodesIn(1).front();
  buffer_->ValueRow(node)[0] = 123.0f;
  buffer_->MarkDirty(node);
  buffer_->SetResident({2, 3});  // evicts 1 (dirty -> write back)
  buffer_->SetResident({1});
  EXPECT_FLOAT_EQ(buffer_->ValueRow(node)[0], 123.0f);
}

TEST_F(PartitionBufferTest, AttachedBufferReadsTheCreatorsFileWithoutTruncating) {
  buffer_->SetResident({0, 1});
  const int64_t node = partitioning_->NodesIn(1).front();
  buffer_->ValueRow(node)[0] = 123.0f;
  buffer_->MarkDirty(node);
  buffer_->SetResident({2, 3});  // evicts 1 (dirty -> write back)
  // The write-back is asynchronous: drain it before another replica reads the
  // file, as TrainerBase::SharedWritebackBarrier does.
  buffer_->DrainIo();
  // A second replica over the same file: it neither truncates nor re-seeds, so
  // it sees the creator's write-back and the creator's seed alike.
  PartitionBuffer attached(partitioning_.get(), 4, 3, path_, DiskModel(),
                           /*learnable=*/true, /*init=*/nullptr, IoEngineOptions(),
                           BackingFile::kAttach);
  EXPECT_EQ(attached.disk_stats().bytes_written, 0u);
  attached.SetResident({1, 5});
  EXPECT_FLOAT_EQ(attached.ValueRow(node)[0], 123.0f);
  for (int64_t v : partitioning_->NodesIn(5)) {
    EXPECT_FLOAT_EQ(attached.ValueRow(v)[1], init_(v, 1));
  }
  buffer_->SetResident({1});
  EXPECT_FLOAT_EQ(buffer_->ValueRow(node)[0], 123.0f);
}

TEST_F(PartitionBufferTest, CleanEvictionDoesNotWrite) {
  buffer_->SetResident({0, 1, 2});
  buffer_->ResetDiskStats();
  buffer_->SetResident({3, 4, 5});
  EXPECT_EQ(buffer_->disk_stats().bytes_written, 0u);
  EXPECT_GT(buffer_->disk_stats().bytes_read, 0u);
}

TEST_F(PartitionBufferTest, SwapIoIsIncremental) {
  buffer_->SetResident({0, 1, 2});
  buffer_->ResetDiskStats();
  // One-partition swap reads one partition only, values and Adagrad state in
  // one whole-extent transfer.
  buffer_->SetResident({0, 1, 3});
  EXPECT_EQ(buffer_->disk_stats().bytes_read, ExtentTransferBytes(*partitioning_, 4, 3));
}

TEST_F(PartitionBufferTest, ResidentNodesMatchesPartitions) {
  buffer_->SetResident({2, 4});
  auto nodes = buffer_->ResidentNodes();
  EXPECT_EQ(static_cast<int64_t>(nodes.size()),
            partitioning_->PartitionSize(2) + partitioning_->PartitionSize(4));
}

TEST_F(PartitionBufferTest, ExportAllRoundTrips) {
  buffer_->SetResident({0, 1});
  const int64_t node = partitioning_->NodesIn(0).front();
  buffer_->ValueRow(node)[2] = -77.0f;
  buffer_->MarkDirty(node);
  Tensor all = buffer_->ExportAll();
  ASSERT_EQ(all.rows(), graph_.num_nodes());
  EXPECT_FLOAT_EQ(all(node, 2), -77.0f);
  // Untouched rows match init.
  const int64_t other = partitioning_->NodesIn(7).back();
  EXPECT_FLOAT_EQ(all(other, 0), init_(other, 0));
}

TEST_F(PartitionBufferTest, ExportPartitionMatchesExportAll) {
  // The streaming checkpoint writer's building block: per-partition export must
  // agree row-for-row with the whole-table export, through both the resident
  // flush-through path and the evicted read-from-disk path.
  buffer_->SetResident({0, 1, 2});
  const int64_t node = partitioning_->NodesIn(1).front();
  buffer_->ValueRow(node)[3] = 31.0f;
  buffer_->StateRow(node)[0] = 7.5f;
  buffer_->MarkDirty(node);
  Tensor values = buffer_->ExportAll();
  Tensor state = buffer_->ExportAllState();

  for (int32_t part = 0; part < 8; ++part) {
    const std::vector<int64_t>& nodes = partitioning_->NodesIn(part);
    std::vector<float> v(nodes.size() * 4);
    std::vector<float> s(nodes.size() * 4);
    buffer_->ExportPartition(part, v.data(), s.data());
    for (size_t k = 0; k < nodes.size(); ++k) {
      for (int64_t d = 0; d < 4; ++d) {
        EXPECT_FLOAT_EQ(v[k * 4 + d], values(nodes[k], d))
            << "partition " << part << " resident=" << buffer_->IsResident(part);
        EXPECT_FLOAT_EQ(s[k * 4 + d], state(nodes[k], d));
      }
    }
  }
  // A values-only export (null state_out) is allowed and touches nothing else.
  std::vector<float> v_only(partitioning_->NodesIn(5).size() * 4);
  buffer_->ExportPartition(5, v_only.data(), nullptr);
  EXPECT_FLOAT_EQ(v_only[0], values(partitioning_->NodesIn(5)[0], 0));
}

TEST_F(PartitionBufferTest, BeginImportImportPartitionRoundTrips) {
  // Streaming restore: BeginImport flushes/evicts everything, then each
  // partition is overwritten from partition-local rows. Wiping the table with
  // zeros and re-importing a snapshot must round-trip values and state.
  buffer_->SetResident({0, 1});
  const int64_t node = partitioning_->NodesIn(1).front();
  buffer_->ValueRow(node)[2] = 11.0f;
  buffer_->StateRow(node)[2] = 3.5f;
  buffer_->MarkDirty(node);
  Tensor values = buffer_->ExportAll();
  Tensor state = buffer_->ExportAllState();

  auto import_table = [&](const Tensor& v_all, const Tensor& s_all) {
    buffer_->BeginImport();
    for (int32_t part = 0; part < 8; ++part) {
      const std::vector<int64_t>& nodes = partitioning_->NodesIn(part);
      std::vector<float> v(nodes.size() * 4);
      std::vector<float> s(nodes.size() * 4);
      for (size_t k = 0; k < nodes.size(); ++k) {
        for (int64_t d = 0; d < 4; ++d) {
          v[k * 4 + d] = v_all(nodes[k], d);
          s[k * 4 + d] = s_all(nodes[k], d);
        }
      }
      buffer_->ImportPartition(part, v.data(), s.data());
    }
  };

  import_table(Tensor(values.rows(), values.cols()),
               Tensor(state.rows(), state.cols()));  // wipe with zeros
  buffer_->SetResident({1});
  EXPECT_FLOAT_EQ(buffer_->ValueRow(node)[2], 0.0f);

  import_table(values, state);
  buffer_->SetResident({1, 3});
  EXPECT_FLOAT_EQ(buffer_->ValueRow(node)[2], 11.0f);
  EXPECT_FLOAT_EQ(buffer_->StateRow(node)[2], 3.5f);
  const int64_t other = partitioning_->NodesIn(3).back();
  EXPECT_FLOAT_EQ(buffer_->ValueRow(other)[0], init_(other, 0));
}

// Parameterized sweep: round-trips hold for any (partitions, capacity) geometry.
class BufferGeometryTest
    : public ::testing::TestWithParam<std::pair<int32_t, int32_t>> {};

TEST_P(BufferGeometryTest, RoundTripAcrossFullRotation) {
  const auto [p, c] = GetParam();
  Graph graph = LiveJournalMini(0.01);
  Rng rng(42);
  Partitioning partitioning(graph, p, PartitionAssignment::kRandom, rng);
  Rng rng2(43);
  Tensor init = Tensor::Uniform(graph.num_nodes(), 3, 1.0f, rng2);
  const std::string path = TempPath("pb_geom");
  PartitionBuffer buffer(&partitioning, 3, c, path, DiskModel(), true, &init);

  // Touch every partition once, mutating one node in each.
  std::vector<int64_t> touched;
  for (int32_t part = 0; part < p; ++part) {
    buffer.SetResident({part});
    const int64_t node = partitioning.NodesIn(part).front();
    buffer.ValueRow(node)[0] += 1.0f;
    buffer.MarkDirty(node);
    touched.push_back(node);
  }
  Tensor all = buffer.ExportAll();
  for (int64_t node : touched) {
    EXPECT_NEAR(all(node, 0), init(node, 0) + 1.0f, 1e-6);
  }
  // Untouched values intact.
  for (int32_t part = 0; part < p; ++part) {
    const int64_t other = partitioning.NodesIn(part).back();
    if (other != partitioning.NodesIn(part).front()) {
      EXPECT_FLOAT_EQ(all(other, 1), init(other, 1));
    }
  }
  ::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Geometries, BufferGeometryTest,
                         ::testing::Values(std::make_pair(2, 1), std::make_pair(4, 2),
                                           std::make_pair(8, 3), std::make_pair(8, 8),
                                           std::make_pair(16, 5)));

TEST_F(PartitionBufferTest, MarkDirtyOnNonResidentPartitionAborts) {
  buffer_->SetResident({0, 1});
  const int64_t node = partitioning_->NodesIn(5).front();  // partition 5 not resident
  EXPECT_DEATH(buffer_->MarkDirty(node), "not resident");
}

class AsyncPartitionBufferTest : public ::testing::Test {
 protected:
  void SetUp() override {
    graph_ = LiveJournalMini(0.01);
    Rng rng(1);
    partitioning_ = std::make_unique<Partitioning>(graph_, 8,
                                                   PartitionAssignment::kRandom, rng);
    Rng rng2(2);
    init_ = Tensor::Uniform(graph_.num_nodes(), 4, 1.0f, rng2);
    path_ = TempPath("pb_async_test");
    buffer_ = std::make_unique<PartitionBuffer>(partitioning_.get(), 4, 3, path_,
                                                DiskModel(), /*learnable=*/true, &init_,
                                                AsyncIo());
  }

  void TearDown() override {
    buffer_.reset();
    ::remove(path_.c_str());
  }

  Graph graph_;
  std::unique_ptr<Partitioning> partitioning_;
  Tensor init_;
  std::string path_;
  std::unique_ptr<PartitionBuffer> buffer_;
};

TEST_F(AsyncPartitionBufferTest, PrefetchedInstallMatchesInit) {
  buffer_->SetResident({0, 1, 2});
  buffer_->Prefetch({3, 4});
  const double sync_io = buffer_->SetResident({3, 4});
  // Both partitions were staged: installation needs no synchronous disk reads.
  EXPECT_DOUBLE_EQ(sync_io, 0.0);
  EXPECT_GT(buffer_->ConsumeBackgroundIoSeconds(), 0.0);
  for (int32_t part : {3, 4}) {
    for (int64_t v : partitioning_->NodesIn(part)) {
      const float* row = buffer_->ValueRow(v);
      for (int64_t d = 0; d < 4; ++d) {
        EXPECT_FLOAT_EQ(row[d], init_(v, d));
      }
    }
  }
}

TEST_F(AsyncPartitionBufferTest, PrefetchSkipsResidentPartitions) {
  buffer_->SetResident({0, 1});
  buffer_->ConsumeBackgroundIoSeconds();
  buffer_->Prefetch({0, 1});  // already resident: nothing to stage
  buffer_->FlushAll();        // drain so any staged reads would have landed
  EXPECT_DOUBLE_EQ(buffer_->ConsumeBackgroundIoSeconds(), 0.0);
}

TEST_F(AsyncPartitionBufferTest, AsyncWriteBackPersistsDirtyEvictions) {
  buffer_->SetResident({0, 1, 2});
  const int64_t node = partitioning_->NodesIn(1).front();
  buffer_->ValueRow(node)[0] = 321.0f;
  buffer_->MarkDirty(node);
  buffer_->SetResident({3, 4, 5});  // evicts 1 (write-back happens in the background)
  buffer_->SetResident({1});        // reload queues behind the write (FIFO)
  EXPECT_FLOAT_EQ(buffer_->ValueRow(node)[0], 321.0f);
}

TEST_F(AsyncPartitionBufferTest, EvictThenPrefetchSamePartitionSeesWrittenData) {
  buffer_->SetResident({0, 1, 2});
  const int64_t node = partitioning_->NodesIn(2).front();
  buffer_->ValueRow(node)[3] = -9.0f;
  buffer_->MarkDirty(node);
  buffer_->SetResident({3, 4, 5});  // async write-back of 2
  buffer_->Prefetch({2});           // read queued after the write
  buffer_->SetResident({2});
  EXPECT_FLOAT_EQ(buffer_->ValueRow(node)[3], -9.0f);
}

TEST_F(AsyncPartitionBufferTest, ExportAllSeesBackgroundWrites) {
  buffer_->SetResident({0, 1});
  const int64_t node = partitioning_->NodesIn(0).front();
  buffer_->ValueRow(node)[1] = 55.0f;
  buffer_->MarkDirty(node);
  buffer_->SetResident({2, 3});  // async write-back of 0 and 1
  Tensor all = buffer_->ExportAll();
  EXPECT_FLOAT_EQ(all(node, 1), 55.0f);
}

TEST_F(AsyncPartitionBufferTest, ResidentLayoutMatchesUnprefetchedBuffer) {
  // The slot-assignment order must not depend on prefetching, or negative-sampling
  // universes (ResidentNodes order) would diverge between prefetch on/off.
  const std::string twin_path = TempPath("pb_unprefetched_twin");
  PartitionBuffer twin(partitioning_.get(), 4, 3, twin_path, DiskModel(),
                       /*learnable=*/true, &init_);
  const std::vector<std::vector<int32_t>> schedule = {
      {0, 1, 2}, {1, 2, 3}, {3, 4, 5}, {0, 5, 6}};
  for (const auto& set : schedule) {
    buffer_->Prefetch(set);
    buffer_->SetResident(set);
    twin.SetResident(set);
    EXPECT_EQ(buffer_->ResidentPartitions(), twin.ResidentPartitions());
    EXPECT_EQ(buffer_->ResidentNodes(), twin.ResidentNodes());
  }
  ::remove(twin_path.c_str());
}

TEST_F(AsyncPartitionBufferTest, ColdSetResidentReadsEachPartitionAsOneTransfer) {
  // Misses go through the engine as one whole-extent read each, and are charged
  // as blocking: one undepthed transfer per partition.
  const std::vector<int32_t> set = {0, 3, 5};
  const double sync_io = buffer_->SetResident(set);
  const IoEngineStats stats = buffer_->ConsumeIoStats();
  EXPECT_EQ(stats.read_requests, set.size());
  EXPECT_EQ(stats.write_requests, 0u);
  // Each extent is under one 512 KiB block, so one device op.
  EXPECT_EQ(buffer_->disk_stats().read_ops, set.size());
  uint64_t bytes = 0;
  double expected_io = 0.0;
  for (int32_t part : set) {
    const size_t extent = ExtentTransferBytes(*partitioning_, 4, part);
    bytes += extent;
    expected_io += DiskModel().SecondsFor(extent, 1);
  }
  EXPECT_EQ(stats.read_bytes, bytes);
  EXPECT_DOUBLE_EQ(sync_io, expected_io);
  EXPECT_DOUBLE_EQ(buffer_->ConsumeBackgroundIoSeconds(), 0.0);
}

TEST_F(AsyncPartitionBufferTest, HeldWriteBackKeepsItsExtent) {
  // A dirty eviction writes from the slot's own extent, so that extent must
  // not be handed out again until the write completes. Hold partition 1's
  // write-back at the engine and keep loading partitions that need fresh
  // extents: each must install its own rows, in an extent other than the held
  // one, and once the write runs the reloaded partition shows the written row.
  const std::string path = TempPath("pb_held_write");
  std::mutex gate_mu;
  std::condition_variable gate_cv;
  bool gate_open = false;
  IoEngineOptions io = AsyncIo(4);
  io.before_io = [&](const IoRequest& req) {
    if (req.kind == IoRequest::Kind::kWrite && req.tag == 1) {
      std::unique_lock<std::mutex> lock(gate_mu);
      gate_cv.wait(lock, [&] { return gate_open; });
    }
  };
  PartitionBuffer buffer(partitioning_.get(), 4, 3, path, DiskModel(),
                         /*learnable=*/true, &init_, io);
  const auto extent_of = [&](int32_t part) {
    const int64_t node = partitioning_->NodesIn(part).front();
    return buffer.ValueRow(node) - partitioning_->LocalIndexOf(node) * 4;
  };
  buffer.SetResident({0, 1, 2});
  const int64_t node = partitioning_->NodesIn(1).front();
  buffer.ValueRow(node)[0] = 123.0f;
  buffer.MarkDirty(node);
  const float* held = extent_of(1);
  for (const std::vector<int32_t>& set :
       std::vector<std::vector<int32_t>>{{3, 4, 5}, {6, 7, 0}, {2, 3, 4}}) {
    buffer.SetResident(set);
    for (int32_t part : set) {
      EXPECT_NE(extent_of(part), held) << "partition " << part;
      for (int64_t v : partitioning_->NodesIn(part)) {
        for (int64_t d = 0; d < 4; ++d) {
          EXPECT_EQ(buffer.ValueRow(v)[d], init_(v, d)) << "partition " << part;
        }
      }
    }
  }
  // The write-back was held through every load above.
  EXPECT_EQ(buffer.disk_stats().bytes_written, 0u);
  {
    std::lock_guard<std::mutex> lock(gate_mu);
    gate_open = true;
  }
  gate_cv.notify_all();
  buffer.SetResident({1});  // queued behind the write-back (per-tag order)
  EXPECT_EQ(buffer.ValueRow(node)[0], 123.0f);
  for (int64_t v : partitioning_->NodesIn(1)) {
    for (int64_t d = v == node ? 1 : 0; d < 4; ++d) {
      EXPECT_EQ(buffer.ValueRow(v)[d], init_(v, d));
    }
  }
  ::remove(path.c_str());
}

TEST(InMemoryEmbeddingStore, GatherAndUpdate) {
  Rng rng(3);
  InMemoryEmbeddingStore store(10, 4, 0.5f, rng);
  std::vector<int64_t> nodes = {1, 3, 1};
  Tensor out;
  store.Gather(nodes, &out);
  ASSERT_EQ(out.rows(), 3);
  EXPECT_FLOAT_EQ(out(0, 0), out(2, 0));  // duplicate gather identical

  Tensor before;
  store.Gather({5}, &before);
  Tensor grads(1, 4);
  grads.Fill(1.0f);
  store.ApplyGradients({5}, grads, 0.1f);
  Tensor after;
  store.Gather({5}, &after);
  for (int64_t d = 0; d < 4; ++d) {
    EXPECT_LT(after(0, d), before(0, d));  // moved against positive gradient
  }
}

TEST(InMemoryEmbeddingStore, FixedFeaturesIgnoreGradients) {
  Tensor features = Tensor::Full(4, 2, 3.0f);
  InMemoryEmbeddingStore store(std::move(features), /*trainable=*/false);
  Tensor grads = Tensor::Full(1, 2, 1.0f);
  store.ApplyGradients({0}, grads, 0.5f);
  Tensor out;
  store.Gather({0}, &out);
  EXPECT_FLOAT_EQ(out(0, 0), 3.0f);
}

TEST(BufferedEmbeddingStore, UpdateMarksDirtyAndPersists) {
  Graph graph = LiveJournalMini(0.01);
  Rng rng(4);
  Partitioning partitioning(graph, 4, PartitionAssignment::kRandom, rng);
  Tensor init(graph.num_nodes(), 2);
  const std::string path = TempPath("bes_test");
  PartitionBuffer buffer(&partitioning, 2, 2, path, DiskModel(), true, &init);
  BufferedEmbeddingStore store(&buffer, true);

  buffer.SetResident({0, 1});
  const int64_t node = partitioning.NodesIn(0).front();
  Tensor grads = Tensor::Full(1, 2, 1.0f);
  store.ApplyGradients({node}, grads, 0.5f);
  Tensor row;
  store.Gather({node}, &row);
  EXPECT_LT(row(0, 0), 0.0f);

  buffer.SetResident({2, 3});
  buffer.SetResident({0, 1});
  Tensor back;
  store.Gather({node}, &back);
  EXPECT_FLOAT_EQ(back(0, 0), row(0, 0));
  ::remove(path.c_str());
}

TEST_F(PartitionBufferTest, ConcurrentMarkDirtyFromWorkerThreads) {
  // The dirty flags are per-slot relaxed atomic bytes, so marking from many pool
  // workers at once — including collisions on the same slot — is race-free (TSan
  // exercises this) and every mark must still be observed by the next eviction.
  buffer_->SetResident({0, 1, 2});
  std::vector<int64_t> probes;
  for (int32_t p : {0, 1, 2}) {
    const int64_t node = partitioning_->NodesIn(p).front();
    buffer_->ValueRow(node)[0] = 1000.0f + static_cast<float>(p);
    probes.push_back(node);
  }
  const std::vector<int64_t> nodes = buffer_->ResidentNodes();
  ThreadPool pool(4);
  ComputeContext ctx;
  ctx.pool = &pool;
  ForEachChunk(&ctx, static_cast<int64_t>(nodes.size()), /*grain=*/8,
               [&](int64_t, int64_t begin, int64_t end) {
                 for (int64_t i = begin; i < end; ++i) {
                   buffer_->MarkDirty(nodes[static_cast<size_t>(i)]);
                 }
               });
  buffer_->SetResident({3, 4, 5});  // evicts all three dirty slots -> write back
  buffer_->SetResident({0, 1, 2});
  for (size_t k = 0; k < probes.size(); ++k) {
    EXPECT_FLOAT_EQ(buffer_->ValueRow(probes[k])[0], 1000.0f + static_cast<float>(k));
  }
}

TEST(BufferedEmbeddingStore, ParallelApplyGradientsMarksDirtyFromWorkers) {
  // The sharded sparse Adagrad marks dirty inside its parallel chunks (worker
  // threads), not in a serial pass afterwards; the updates must still persist
  // across eviction exactly as the in-memory copy shows them.
  Graph graph = LiveJournalMini(0.01);
  Rng rng(6);
  Partitioning partitioning(graph, 4, PartitionAssignment::kRandom, rng);
  Tensor init(graph.num_nodes(), 2);
  const std::string path = TempPath("bes_par_dirty_test");
  PartitionBuffer buffer(&partitioning, 2, 2, path, DiskModel(), true, &init);
  BufferedEmbeddingStore store(&buffer, true);
  ThreadPool pool(8);
  ComputeContext ctx;
  ctx.pool = &pool;
  store.set_compute(&ctx);

  buffer.SetResident({0, 1});
  const std::vector<int64_t> nodes = buffer.ResidentNodes();
  ASSERT_GT(static_cast<int64_t>(nodes.size()), kComputeGrainRows);  // spans chunks
  Tensor grads = Tensor::Full(static_cast<int64_t>(nodes.size()), 2, 1.0f);
  store.ApplyGradients(nodes, grads, 0.5f);
  Tensor updated;
  store.Gather(nodes, &updated);

  buffer.SetResident({2, 3});  // evicts both dirty slots
  buffer.SetResident({0, 1});
  Tensor back;
  store.Gather(nodes, &back);
  for (int64_t i = 0; i < back.size(); ++i) {
    ASSERT_EQ(back.data()[i], updated.data()[i]);
  }
  ::remove(path.c_str());
}

TEST(BufferedEmbeddingStore, AdagradStatePersistsAcrossEviction) {
  // Two equal gradients: second effective step must be smaller even if an
  // eviction+reload happens in between (state stream round-trips through disk).
  Graph graph = LiveJournalMini(0.01);
  Rng rng(5);
  Partitioning partitioning(graph, 4, PartitionAssignment::kRandom, rng);
  Tensor init(graph.num_nodes(), 2);
  const std::string path = TempPath("bes_state_test");
  PartitionBuffer buffer(&partitioning, 2, 2, path, DiskModel(), true, &init);
  BufferedEmbeddingStore store(&buffer, true);

  buffer.SetResident({0, 1});
  const int64_t node = partitioning.NodesIn(0).front();
  Tensor grads = Tensor::Full(1, 2, 1.0f);
  store.ApplyGradients({node}, grads, 1.0f);
  Tensor after1;
  store.Gather({node}, &after1);
  const float step1 = -after1(0, 0);

  buffer.SetResident({2, 3});
  buffer.SetResident({0, 1});
  store.ApplyGradients({node}, grads, 1.0f);
  Tensor after2;
  store.Gather({node}, &after2);
  const float step2 = -after2(0, 0) - step1;
  EXPECT_GT(step1, 0.0f);
  EXPECT_LT(step2, step1);
  ::remove(path.c_str());
}

TEST(IoArena, ReleasedExtentIsHandedOutFirst) {
  // The free list is LIFO, which keeps the set of extents ever touched (and so
  // the buffer's resident memory) near its working set rather than the pool.
  IoArena arena(100, 4);
  EXPECT_EQ(arena.slot_bytes(), kIoAlignment);
  float* a = arena.Acquire();
  float* b = arena.Acquire();
  EXPECT_EQ(reinterpret_cast<uintptr_t>(a) % kIoAlignment, 0u);
  EXPECT_EQ(reinterpret_cast<char*>(b) - reinterpret_cast<char*>(a),
            static_cast<ptrdiff_t>(kIoAlignment));
  arena.Release(a);
  EXPECT_EQ(arena.Acquire(), a);
  arena.Release(a);
  arena.Release(b);
}

#if defined(__SANITIZE_ADDRESS__)
TEST(IoArenaDeathTest, ReleasedExtentIsPoisonedUnderAsan) {
  IoArena arena(kIoAlignment, 2);
  float* extent = arena.Acquire();
  extent[0] = 1.0f;
  arena.Release(extent);
  EXPECT_DEATH(
      {
        volatile float* row = extent;
        row[0] = 2.0f;
      },
      "use-after-poison");
  extent = arena.Acquire();
  extent[0] = 3.0f;  // acquired again: addressable
  arena.Release(extent);
}
#endif

TEST(DiskModel, DepthAmortisesLatencyOnly) {
  DiskModel model;
  const uint64_t bytes = 1 << 20;
  const uint64_t ops = 4;
  // Latency shrinks with depth, bandwidth does not; depth <= 1 degenerates.
  EXPECT_DOUBLE_EQ(model.SecondsForAtDepth(bytes, ops, 1), model.SecondsFor(bytes, ops));
  EXPECT_LT(model.SecondsForAtDepth(bytes, ops, 16), model.SecondsFor(bytes, ops));
  EXPECT_GE(model.SecondsForAtDepth(bytes, ops, 16),
            static_cast<double>(bytes) / model.bandwidth_bytes_per_sec);
}

class IoEngineTest : public ::testing::Test {
 protected:
  static constexpr size_t kBlock = kIoAlignment;  // one aligned slot per tag
  static constexpr int kBlocks = 32;

  void SetUp() override {
    path_ = TempPath("io_engine_test");
    disk_ = std::make_unique<SimulatedDisk>(path_);
    disk_->Resize(static_cast<uint64_t>(kBlocks) * kBlock);
  }

  void TearDown() override {
    disk_.reset();
    ::remove(path_.c_str());
  }

  // Fills a block-sized float pattern derived from `seed`.
  static std::vector<float> Pattern(float seed) {
    std::vector<float> v(kBlock / sizeof(float));
    for (size_t i = 0; i < v.size(); ++i) {
      v[i] = seed + static_cast<float>(i % 17);
    }
    return v;
  }

  std::string path_;
  std::unique_ptr<SimulatedDisk> disk_;
};

TEST_F(IoEngineTest, CompletionsArriveOutOfSubmissionOrder) {
  // Tag 0's transfer is delayed far beyond the others: with queue_depth > 1 the
  // later submissions must complete first — a slow partition no longer
  // head-of-line-blocks the rest of the lookahead window.
  IoEngineOptions opt;
  opt.queue_depth = 4;
  opt.before_io = [](const IoRequest& req) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(req.tag == 0 ? 150 : 1));
  };
  IoEngine engine(disk_.get(), opt);
  std::mutex mu;
  std::vector<int32_t> completion_order;
  std::vector<std::vector<float>> dst(4, std::vector<float>(kBlock / sizeof(float)));
  for (int32_t tag = 0; tag < 4; ++tag) {
    engine.SubmitRead(tag, dst[static_cast<size_t>(tag)].data(), kBlock,
                      static_cast<uint64_t>(tag) * kBlock, [&, tag](double) {
                        std::lock_guard<std::mutex> lock(mu);
                        completion_order.push_back(tag);
                      });
  }
  engine.Drain();
  ASSERT_EQ(completion_order.size(), 4u);
  EXPECT_NE(completion_order.front(), 0);  // the slow first submission came in late
  EXPECT_EQ(completion_order.back(), 0);
}

TEST_F(IoEngineTest, SameTagPreservesReadAfterWriteOrder) {
  // A read submitted after a write of the same tag must observe the written
  // data even while transfers for other tags run concurrently. The write is
  // slowed down to widen any reordering window.
  IoEngineOptions opt;
  opt.queue_depth = 8;
  opt.before_io = [](const IoRequest& req) {
    if (req.kind == IoRequest::Kind::kWrite) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  };
  IoEngine engine(disk_.get(), opt);
  const std::vector<float> written = Pattern(500.0f);
  std::vector<float> readback(written.size(), 0.0f);
  engine.SubmitWrite(7, written.data(), kBlock, 7 * kBlock, [](double) {});
  engine.SubmitRead(7, readback.data(), kBlock, 7 * kBlock, [](double) {});
  // Unrelated tags churn concurrently.
  std::vector<std::vector<float>> noise(6, std::vector<float>(written.size()));
  for (int32_t tag = 0; tag < 6; ++tag) {
    engine.SubmitRead(tag, noise[static_cast<size_t>(tag)].data(), kBlock,
                      static_cast<uint64_t>(tag) * kBlock, [](double) {});
  }
  engine.Drain();
  EXPECT_EQ(readback, written);
}

TEST_F(IoEngineTest, SameTagPreservesWriteAfterReadOrder) {
  // A write submitted after a read of the same tag must not overtake it: the
  // read sees the original bytes. The read is slowed down so an unordered
  // engine would run the write first.
  const std::vector<float> original = Pattern(1.0f);
  disk_->Write(original.data(), kBlock, 3 * kBlock);
  IoEngineOptions opt;
  opt.queue_depth = 8;
  opt.before_io = [](const IoRequest& req) {
    if (req.kind == IoRequest::Kind::kRead) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  };
  IoEngine engine(disk_.get(), opt);
  const std::vector<float> overwrite = Pattern(900.0f);
  std::vector<float> readback(original.size(), 0.0f);
  engine.SubmitRead(3, readback.data(), kBlock, 3 * kBlock, [](double) {});
  engine.SubmitWrite(3, overwrite.data(), kBlock, 3 * kBlock, [](double) {});
  engine.Drain();
  EXPECT_EQ(readback, original);
}

TEST_F(IoEngineTest, RequestsStartInSubmissionOrderAsOneTransferEach) {
  // Gate the single worker on a decoy read, queue a write, a read and a
  // byte-adjacent write on three tags, then release: the engine starts them in
  // submission order (reads do not jump writes) and issues each as its own
  // device transfer (adjacent writes do not merge).
  const std::vector<float> original = Pattern(7.0f);
  disk_->Write(original.data(), kBlock, 5 * kBlock);
  IoEngineOptions opt;
  opt.queue_depth = 1;
  std::mutex gate_mu;
  std::condition_variable gate_cv;
  bool gate_open = false;
  std::vector<int32_t> started;  // appended by the engine's one worker
  opt.before_io = [&](const IoRequest& req) {
    if (req.tag == 99) {
      std::unique_lock<std::mutex> lock(gate_mu);
      gate_cv.wait(lock, [&] { return gate_open; });
      return;
    }
    started.push_back(req.tag);
  };
  IoEngine engine(disk_.get(), opt);
  std::vector<float> decoy(kBlock / sizeof(float));
  engine.SubmitRead(99, decoy.data(), kBlock, 20 * kBlock, [](double) {});
  disk_->ResetStats();
  const std::vector<float> first = Pattern(100.0f);
  const std::vector<float> second = Pattern(200.0f);
  std::vector<float> readback(original.size(), 0.0f);
  double first_seconds = -1.0;
  double second_seconds = -1.0;
  engine.SubmitWrite(0, first.data(), kBlock, 0,
                     [&](double s) { first_seconds = s; });
  engine.SubmitRead(5, readback.data(), kBlock, 5 * kBlock, [](double) {});
  engine.SubmitWrite(1, second.data(), kBlock, kBlock,
                     [&](double s) { second_seconds = s; });
  {
    std::lock_guard<std::mutex> lock(gate_mu);
    gate_open = true;
  }
  gate_cv.notify_all();
  engine.Drain();
  EXPECT_EQ(started, (std::vector<int32_t>{0, 5, 1}));
  const DiskStats ds = disk_->stats();
  EXPECT_EQ(ds.write_ops, 2u);  // one device op per write request
  EXPECT_EQ(ds.bytes_written, 2 * kBlock);
  const double one_block = disk_->model().SecondsForAtDepth(kBlock, 1, 1);
  EXPECT_EQ(first_seconds, one_block);
  EXPECT_EQ(second_seconds, one_block);
  // Every request's bytes landed at (or came from) its own offset.
  EXPECT_EQ(readback, original);
  std::vector<float> on_disk(kBlock / sizeof(float));
  disk_->Read(on_disk.data(), kBlock, 0);
  EXPECT_EQ(on_disk, first);
  disk_->Read(on_disk.data(), kBlock, kBlock);
  EXPECT_EQ(on_disk, second);
}

TEST_F(IoEngineTest, QueueDepthStatsTrackOutstandingRequests) {
  IoEngineOptions opt;
  opt.queue_depth = 2;
  std::mutex gate_mu;
  std::condition_variable gate_cv;
  bool gate_open = false;
  opt.before_io = [&](const IoRequest&) {
    std::unique_lock<std::mutex> lock(gate_mu);
    gate_cv.wait(lock, [&] { return gate_open; });
  };
  IoEngine engine(disk_.get(), opt);
  std::vector<std::vector<float>> dst(6, std::vector<float>(kBlock / sizeof(float)));
  for (int32_t tag = 0; tag < 6; ++tag) {
    engine.SubmitRead(tag, dst[static_cast<size_t>(tag)].data(), kBlock,
                      static_cast<uint64_t>(tag) * kBlock, [](double) {});
  }
  {
    std::lock_guard<std::mutex> lock(gate_mu);
    gate_open = true;
  }
  gate_cv.notify_all();
  engine.Drain();
  const IoEngineStats stats = engine.ConsumeStats();
  EXPECT_EQ(stats.read_requests, 6u);
  EXPECT_EQ(stats.read_bytes, 6 * kBlock);
  EXPECT_EQ(stats.inflight_peak, 6);       // all six were outstanding at once
  EXPECT_GT(stats.queue_depth_mean, 1.0);  // busy interval held multiple requests
  // Counters reset on consume.
  EXPECT_EQ(engine.ConsumeStats().read_requests, 0u);
}

TEST_F(IoEngineTest, ShortReadThroughEngineAborts) {
  // A read past end-of-file comes back short; the transfer loop must abort with
  // the short-read diagnostic, not spin or return garbage. The engine (and its
  // worker threads) live entirely inside the death-test child.
  const std::string path = path_;  // capture for the child
  EXPECT_DEATH(
      {
        SimulatedDisk disk(path + ".short");
        disk.Resize(kBlock);
        IoEngineOptions opt;
        opt.queue_depth = 2;
        IoEngine engine(&disk, opt);
        std::vector<float> dst(2 * kBlock / sizeof(float));
        engine.ReadSync(0, dst.data(), 2 * kBlock, 0);  // file is only kBlock long
      },
      "short read");
}

TEST(ProbeDirectIo, MissingDirectoryIsRejected) {
  EXPECT_FALSE(ProbeDirectIo("/nonexistent_mgnn_probe_dir"));
}

TEST(ProbeDirectIo, ProbeLeavesNoFilesBehind) {
  // Whether or not the filesystem supports O_DIRECT, the probe must clean up
  // after itself and agree with the disk's view when a buffer requests direct IO.
  const std::string dir = TempPath("probe_dir_marker");
  // TempPath returns a file path; use its parent (the temp dir) for probing.
  const std::string parent = dir.substr(0, dir.rfind('/'));
  const bool supported = ProbeDirectIo(parent);
  // Probe again: result is stable, and no leftover probe file breaks reruns.
  EXPECT_EQ(ProbeDirectIo(parent), supported);
  const std::string probe_prefix = ".direct_probe." + std::to_string(::getpid()) + ".";
  for (const auto& entry : std::filesystem::directory_iterator(parent)) {
    EXPECT_NE(entry.path().filename().string().rfind(probe_prefix, 0), 0u)
        << "leftover probe file " << entry.path();
  }
}

// Runs one fixed request sequence through a depth-4 engine over `disk` and
// returns the bytes of every read, in submission order, followed by the whole
// file. Four gated reads of never-written blocks hold every worker while the
// rest queues, so the byte-adjacent writes all run once the gate opens.
std::vector<std::vector<float>> RunMixedIoSequence(SimulatedDisk* disk) {
  constexpr size_t kBlock = kIoAlignment;
  constexpr size_t kFloats = kBlock / sizeof(float);
  constexpr int kBlocks = 12;  // blocks 10 and 11 are only read by the gated reads
  disk->Resize(kBlocks * kBlock);
  // Every buffer is an aligned arena extent of the whole file's size.
  IoArena arena(kBlocks * kBlock, 5);
  float* src = arena.Acquire();
  for (size_t i = 0; i < 10 * kFloats; ++i) {
    src[i] = static_cast<float>(i % 1013) * 0.25f + static_cast<float>(i / kFloats);
  }
  float* rewrite = arena.Acquire();
  for (size_t i = 0; i < kFloats; ++i) {
    rewrite[i] = -static_cast<float>(i);
  }

  IoEngineOptions opt;
  opt.queue_depth = 4;
  std::mutex gate_mu;
  std::condition_variable gate_cv;
  bool gate_open = false;
  opt.before_io = [&](const IoRequest& req) {
    if (req.tag >= 100) {
      std::unique_lock<std::mutex> lock(gate_mu);
      gate_cv.wait(lock, [&] { return gate_open; });
    }
  };
  IoEngine engine(disk, opt);
  const auto none = [](double) {};
  float* gated = arena.Acquire();
  for (int32_t w = 0; w < 4; ++w) {
    engine.SubmitRead(100 + w, gated + w * kFloats, kBlock,
                      static_cast<uint64_t>(10 + w % 2) * kBlock, none);
  }
  // The reads land one block apart in one extent, in submission order.
  float* reads = arena.Acquire();
  int num_reads = 0;
  const auto read = [&](int32_t tag, uint64_t block) {
    engine.SubmitRead(tag, reads + num_reads++ * kFloats, kBlock, block * kBlock, none);
  };
  for (int32_t b = 0; b < 6; ++b) {
    engine.SubmitWrite(b, src + b * kFloats, kBlock, b * kBlock, none);
  }
  read(1, 1);  // read-after-write on one of the adjacent writes
  engine.SubmitWrite(6, src + 6 * kFloats, kBlock, 6 * kBlock, none);
  engine.SubmitWrite(7, src + 7 * kFloats, kBlock, 7 * kBlock, none);
  engine.SubmitWrite(2, rewrite, kBlock, 2 * kBlock, none);
  read(2, 2);
  // A sub-block write at an unaligned offset takes the buffered descriptor
  // even on a direct disk.
  engine.SubmitWrite(9, src + 9 * kFloats, 1000, 9 * kBlock + 64, none);
  read(9, 9);
  read(7, 7);
  {
    std::lock_guard<std::mutex> lock(gate_mu);
    gate_open = true;
  }
  gate_cv.notify_all();
  engine.Drain();

  std::vector<std::vector<float>> out;
  for (int r = 0; r < num_reads; ++r) {
    out.emplace_back(reads + r * kFloats, reads + (r + 1) * kFloats);
  }
  float* whole = arena.Acquire();
  engine.ReadSync(0, whole, kBlocks * kBlock, 0);
  out.emplace_back(whole, whole + kBlocks * kFloats);
  for (float* extent : {src, rewrite, gated, reads, whole}) {
    arena.Release(extent);
  }
  return out;
}

TEST(IoEngineDirectIo, BufferedAndDirectDisksReadBackTheSameBytes) {
  const std::string buffered_path = TempPath("io_mixed_buffered");
  const std::string direct_path = TempPath("io_mixed_direct");
  if (!ProbeDirectIo(direct_path.substr(0, direct_path.rfind('/')))) {
    GTEST_SKIP() << "temp directory refuses O_DIRECT";
  }
  std::vector<std::vector<float>> buffered_reads, direct_reads;
  DiskStats buffered_disk, direct_disk;
  {
    SimulatedDisk disk(buffered_path, DiskModel(), /*direct_io=*/false);
    buffered_reads = RunMixedIoSequence(&disk);
    buffered_disk = disk.stats();
  }
  {
    SimulatedDisk disk(direct_path, DiskModel(), /*direct_io=*/true);
    ASSERT_TRUE(disk.direct_io());
    direct_reads = RunMixedIoSequence(&disk);
    direct_disk = disk.stats();
  }
  ::remove(buffered_path.c_str());
  ::remove(direct_path.c_str());

  EXPECT_EQ(buffered_disk.direct_ops, 0u);
  EXPECT_GT(direct_disk.direct_ops, 0u);
  ASSERT_EQ(buffered_reads.size(), direct_reads.size());
  for (size_t i = 0; i < buffered_reads.size(); ++i) {
    EXPECT_EQ(std::memcmp(buffered_reads[i].data(), direct_reads[i].data(),
                          buffered_reads[i].size() * sizeof(float)),
              0)
        << "read " << i;
  }
  // The read-after-write saw its write, and the rewrite replaced block 2.
  EXPECT_EQ(direct_reads[0][5], direct_reads.back()[1024 + 5]);
  EXPECT_EQ(direct_reads[1][7], -7.0f);
}

// Concurrent submit/complete stress across queue depths (the CI TSan job runs
// this at depths 1, 4, and 16). Each submitter thread owns disjoint tags and
// issues interleaved write->read sequences; per-tag program order requires each
// read to observe exactly the value of its preceding write.
class IoEngineDepthTest : public ::testing::TestWithParam<int> {};

TEST_P(IoEngineDepthTest, ConcurrentSubmitStressPreservesPerTagOrder) {
  constexpr int kThreads = 4;
  constexpr int kTagsPerThread = 2;
  constexpr int kIters = 12;
  constexpr size_t kBlock = kIoAlignment;
  const std::string path = TempPath("io_engine_stress");
  SimulatedDisk disk(path);
  disk.Resize(kThreads * kTagsPerThread * kBlock);
  IoEngineOptions opt;
  opt.queue_depth = GetParam();
  opt.before_io = [](const IoRequest& req) {
    // Deterministic per-request jitter so completions shuffle across tags.
    std::this_thread::sleep_for(
        std::chrono::microseconds((req.offset / 64 + req.bytes) % 300));
  };
  IoEngine engine(&disk, opt);

  const size_t floats = kBlock / sizeof(float);
  // [thread][tag][iter] pinned storage: requests reference it while in flight.
  std::vector<std::vector<float>> writes(
      static_cast<size_t>(kThreads * kTagsPerThread * kIters));
  std::vector<std::vector<float>> reads(writes.size());
  const auto slot = [&](int t, int g, int i) {
    return static_cast<size_t>((t * kTagsPerThread + g) * kIters + i);
  };
  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        for (int g = 0; g < kTagsPerThread; ++g) {
          const int32_t tag = t * kTagsPerThread + g;
          const uint64_t offset = static_cast<uint64_t>(tag) * kBlock;
          const float value = static_cast<float>(tag * 1000 + i);
          writes[slot(t, g, i)].assign(floats, value);
          reads[slot(t, g, i)].assign(floats, -1.0f);
          engine.SubmitWrite(tag, writes[slot(t, g, i)].data(), kBlock, offset,
                             [](double) {});
          engine.SubmitRead(tag, reads[slot(t, g, i)].data(), kBlock, offset,
                            [](double) {});
        }
      }
    });
  }
  for (std::thread& t : submitters) {
    t.join();
  }
  engine.Drain();
  for (int t = 0; t < kThreads; ++t) {
    for (int g = 0; g < kTagsPerThread; ++g) {
      for (int i = 0; i < kIters; ++i) {
        const float expected = static_cast<float>((t * kTagsPerThread + g) * 1000 + i);
        EXPECT_FLOAT_EQ(reads[slot(t, g, i)].front(), expected);
        EXPECT_FLOAT_EQ(reads[slot(t, g, i)].back(), expected);
      }
    }
  }
  const IoEngineStats stats = engine.ConsumeStats();
  EXPECT_EQ(stats.read_requests,
            static_cast<uint64_t>(kThreads * kTagsPerThread * kIters));
  ::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(QueueDepths, IoEngineDepthTest, ::testing::Values(1, 4, 16));

TEST_F(AsyncPartitionBufferTest, ConsumeIoStatsReportsEngineTraffic) {
  buffer_->SetResident({0, 1, 2});
  buffer_->Prefetch({3, 4});
  buffer_->SetResident({3, 4});
  buffer_->FlushAll();
  const IoEngineStats stats = buffer_->ConsumeIoStats();
  EXPECT_GT(stats.read_requests, 0u);
  EXPECT_GT(stats.read_bytes, 0u);
  EXPECT_GE(stats.inflight_peak, 1);
  // Counters are consumed: a second call starts from zero.
  EXPECT_EQ(buffer_->ConsumeIoStats().read_requests, 0u);
}

TEST_F(AsyncPartitionBufferTest, OutOfOrderStagingInstallsCorrectData) {
  // Delay each staged read by a per-partition amount so completions land in
  // reverse submission order; SetResident must still install every partition's
  // own bytes (installation is keyed by tag, not by completion order).
  const std::string path = TempPath("pb_ooo_test");
  IoEngineOptions io = AsyncIo(4);
  io.before_io = [](const IoRequest& req) {
    if (req.kind == IoRequest::Kind::kRead) {
      std::this_thread::sleep_for(std::chrono::milliseconds((5 - req.tag % 6) * 8));
    }
  };
  PartitionBuffer buffer(partitioning_.get(), 4, 3, path, DiskModel(),
                         /*learnable=*/true, &init_, io);
  buffer.SetResident({6, 7});
  buffer.Prefetch({0, 1, 2});  // tag 0 slowest, tag 2 fastest
  buffer.SetResident({0, 1, 2});
  for (int32_t part : {0, 1, 2}) {
    for (int64_t v : partitioning_->NodesIn(part)) {
      const float* row = buffer.ValueRow(v);
      for (int64_t d = 0; d < 4; ++d) {
        ASSERT_FLOAT_EQ(row[d], init_(v, d));
      }
    }
  }
  ::remove(path.c_str());
}

TEST_F(AsyncPartitionBufferTest, QueueDepthOneMatchesDeeperEngineData) {
  // The engine at depth 1 is the legacy-equivalent serial path; a depth-16
  // twin driven through the same schedule must produce identical tables.
  const std::string p1 = TempPath("pb_qd1");
  const std::string p16 = TempPath("pb_qd16");
  PartitionBuffer b1(partitioning_.get(), 4, 3, p1, DiskModel(),
                     /*learnable=*/true, &init_, AsyncIo(1));
  PartitionBuffer b16(partitioning_.get(), 4, 3, p16, DiskModel(),
                      /*learnable=*/true, &init_, AsyncIo(16));
  const std::vector<std::vector<int32_t>> schedule = {
      {0, 1, 2}, {2, 3, 4}, {5, 6, 7}, {0, 3, 6}};
  for (PartitionBuffer* b : {&b1, &b16}) {
    for (const auto& set : schedule) {
      b->SetResident(set);
      for (int32_t part : set) {
        const int64_t node = partitioning_->NodesIn(part).front();
        b->ValueRow(node)[0] += 2.0f;
        b->MarkDirty(node);
      }
      b->Prefetch({(set.back() + 1) % 8});
    }
  }
  Tensor t1 = b1.ExportAll();
  Tensor t16 = b16.ExportAll();
  ASSERT_EQ(t1.rows(), t16.rows());
  for (int64_t i = 0; i < t1.size(); ++i) {
    ASSERT_EQ(t1.data()[i], t16.data()[i]);
  }
  ::remove(p1.c_str());
  ::remove(p16.c_str());
}

}  // namespace
}  // namespace mariusgnn
