// Checkpoint/restore tests: format round-trip, rejection of every corruption
// class (truncation, bad checksums, version mismatch including the retired v1
// layout, mid-save crash debris), and a real kill-and-resume run (fork + _exit
// between epochs) that must continue bitwise-identically to an uninterrupted run.
//
// The kill-and-resume test forks, so every trainer in this file runs without
// pipeline workers or parallel compute, and no trainer (with its IO-engine
// workers) is alive across the fork: the child must not inherit a
// half-initialised thread pool. Determinism makes the serial trajectories
// identical to the pipelined ones anyway.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "src/core/checkpoint.h"
#include "src/core/link_prediction_trainer.h"
#include "src/core/node_classification_trainer.h"
#include "src/data/datasets.h"
#include "src/util/binary_io.h"
#include "tests/checkpoint_test_util.h"

namespace mariusgnn {
namespace {

Checkpoint SampleCheckpoint() {
  Checkpoint ck;
  ck.kind = "link_prediction";
  ck.run_seed = 7;
  ck.epoch = 3;
  for (int i = 0; i < 4; ++i) {
    ck.rng_state[i] = 0x1111111111111111ULL * (i + 1);
  }
  ck.scalars.emplace_back("controller_workers", 2);
  Tensor a(3, 4);
  for (int64_t i = 0; i < a.size(); ++i) {
    a.data()[i] = static_cast<float>(i) * 0.5f;
  }
  ck.tensors.emplace_back("param0.value", a);
  ck.tensors.emplace_back("param0.state", Tensor(3, 4));
  ck.tensors.emplace_back("empty.state", Tensor());  // never-stepped accumulator
  return ck;
}

std::vector<char> Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
}

void Dump(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(Checkpoint, RoundTripPreservesEverything) {
  const std::string path = TempPath("mgnn_ckpt_roundtrip");
  const Checkpoint saved = SampleCheckpoint();
  SaveCheckpoint(saved, path);

  Checkpoint loaded;
  std::string error;
  ASSERT_TRUE(LoadCheckpoint(path, &loaded, &error)) << error;
  EXPECT_EQ(loaded.kind, saved.kind);
  EXPECT_EQ(loaded.run_seed, saved.run_seed);
  EXPECT_EQ(loaded.epoch, saved.epoch);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(loaded.rng_state[i], saved.rng_state[i]);
  }
  EXPECT_EQ(loaded.scalar("controller_workers", -1), 2);
  EXPECT_EQ(loaded.scalar("absent", -1), -1);
  ASSERT_EQ(loaded.tensors.size(), saved.tensors.size());
  const Tensor& a = loaded.tensor("param0.value");
  ASSERT_EQ(a.rows(), 3);
  ASSERT_EQ(a.cols(), 4);
  for (int64_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.data()[i], saved.tensor("param0.value").data()[i]);
  }
  EXPECT_TRUE(loaded.tensor("empty.state").empty());
  std::remove(path.c_str());
}

TEST(Checkpoint, MissingFileRejectedWithClearError) {
  Checkpoint ck;
  std::string error;
  EXPECT_FALSE(LoadCheckpoint(TempPath("mgnn_ckpt_nonexistent"), &ck, &error));
  EXPECT_NE(error.find("cannot open checkpoint"), std::string::npos) << error;
}

TEST(Checkpoint, TruncatedPreambleRejected) {
  const std::string path = TempPath("mgnn_ckpt_trunc_preamble");
  SaveCheckpoint(SampleCheckpoint(), path);
  std::vector<char> bytes = Slurp(path);
  bytes.resize(20);  // mid-preamble
  Dump(path, bytes);
  Checkpoint ck;
  std::string error;
  EXPECT_FALSE(LoadCheckpoint(path, &ck, &error));
  EXPECT_NE(error.find("shorter than the preamble"), std::string::npos) << error;
  std::remove(path.c_str());
}

TEST(Checkpoint, TruncatedManifestRejected) {
  const std::string path = TempPath("mgnn_ckpt_trunc_manifest");
  SaveCheckpoint(SampleCheckpoint(), path);
  std::vector<char> bytes = Slurp(path);
  bytes.resize(48 + 10);  // preamble plus a sliver of manifest
  Dump(path, bytes);
  Checkpoint ck;
  std::string error;
  EXPECT_FALSE(LoadCheckpoint(path, &ck, &error));
  EXPECT_NE(error.find("truncated"), std::string::npos) << error;
  std::remove(path.c_str());
}

TEST(Checkpoint, ManifestChecksumMismatchRejected) {
  const std::string path = TempPath("mgnn_ckpt_bad_manifest");
  SaveCheckpoint(SampleCheckpoint(), path);
  std::vector<char> bytes = Slurp(path);
  bytes[50] ^= 0x40;  // inside the manifest blob
  Dump(path, bytes);
  Checkpoint ck;
  std::string error;
  EXPECT_FALSE(LoadCheckpoint(path, &ck, &error));
  EXPECT_NE(error.find("manifest checksum"), std::string::npos) << error;
  std::remove(path.c_str());
}

TEST(Checkpoint, DataChecksumMismatchRejected) {
  const std::string path = TempPath("mgnn_ckpt_bad_data");
  SaveCheckpoint(SampleCheckpoint(), path);
  std::vector<char> bytes = Slurp(path);
  bytes[bytes.size() - 3] ^= 0x01;  // inside the tensor payload
  Dump(path, bytes);
  Checkpoint ck;
  std::string error;
  EXPECT_FALSE(LoadCheckpoint(path, &ck, &error));
  EXPECT_NE(error.find("data checksum"), std::string::npos) << error;
  std::remove(path.c_str());
}

TEST(Checkpoint, VersionMismatchRejected) {
  const std::string path = TempPath("mgnn_ckpt_bad_version");
  SaveCheckpoint(SampleCheckpoint(), path);
  std::vector<char> bytes = Slurp(path);
  bytes[8] = static_cast<char>(kCheckpointFormatVersion + 1);  // version u32
  Dump(path, bytes);
  Checkpoint ck;
  std::string error;
  EXPECT_FALSE(LoadCheckpoint(path, &ck, &error));
  EXPECT_NE(error.find("unsupported checkpoint format version"), std::string::npos)
      << error;
  std::remove(path.c_str());
}

TEST(Checkpoint, NotACheckpointFileRejected) {
  const std::string path = TempPath("mgnn_ckpt_garbage");
  Dump(path, std::vector<char>(256, 'x'));
  Checkpoint ck;
  std::string error;
  EXPECT_FALSE(LoadCheckpoint(path, &ck, &error));
  EXPECT_NE(error.find("bad magic"), std::string::npos) << error;
  std::remove(path.c_str());
}

TEST(Checkpoint, OverflowingTensorShapeRejected) {
  // A section header claiming rows*cols so large the byte count wraps to match
  // section_bytes must be rejected by the overflow-guarded geometry check, not
  // turned into a bogus Tensor. Craft the file from scratch with consistent
  // checksums so only the geometry check can catch it.
  auto fnv = [](const std::vector<char>& b) {
    uint64_t h = 0xCBF29CE484222325ULL;
    for (char c : b) {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001B3ULL;
    }
    return h;
  };
  auto put = [](std::vector<char>& b, const void* src, size_t len) {
    const char* p = static_cast<const char*>(src);
    b.insert(b.end(), p, p + len);
  };
  auto put_u32 = [&](std::vector<char>& b, uint32_t v) { put(b, &v, 4); };
  auto put_u64 = [&](std::vector<char>& b, uint64_t v) { put(b, &v, 8); };
  auto put_i64 = [&](std::vector<char>& b, int64_t v) { put(b, &v, 8); };

  const std::string kind = "link_prediction";
  std::vector<char> manifest;
  put(manifest, kind.data(), kind.size());
  put_u64(manifest, 7);   // run_seed
  put_u64(manifest, 1);   // epoch
  for (int i = 0; i < 4; ++i) {
    put_u64(manifest, 0);  // rng words
  }
  put_u32(manifest, 0);  // num_scalars
  put_u32(manifest, 1);  // num_sections
  const std::string name = "param0.value";
  put_u32(manifest, static_cast<uint32_t>(name.size()));
  put(manifest, name.data(), name.size());
  put_i64(manifest, int64_t{1} << 62);  // rows: 2^62
  put_i64(manifest, 4);                 // cols: 2^62 * 4 * 4 bytes wraps to 0
  put_u64(manifest, 0);                 // data_offset
  put_u64(manifest, 0);                 // data_bytes (matches the wrapped product)

  std::vector<char> file;
  put_u64(file, kTestCheckpointMagic);
  put_u32(file, kCheckpointFormatVersion);
  put_u32(file, static_cast<uint32_t>(kind.size()));
  put_u64(file, manifest.size());
  put_u64(file, fnv(manifest));
  put_u64(file, 0);  // data_bytes
  put_u64(file, fnv({}));
  file.insert(file.end(), manifest.begin(), manifest.end());

  const std::string path = TempPath("mgnn_ckpt_overflow");
  Dump(path, file);
  Checkpoint ck;
  std::string error;
  EXPECT_FALSE(LoadCheckpoint(path, &ck, &error));
  EXPECT_NE(error.find("out of bounds"), std::string::npos) << error;
  std::remove(path.c_str());
}

TEST(Checkpoint, V2SectionsAre4KiBAlignedInFile) {
  // Format v2 contract: every tensor payload sits on a 4 KiB file boundary so
  // the serving tier can mmap the checkpoint and hand out page-aligned views.
  const std::string path = TempPath("mgnn_ckpt_aligned");
  SaveCheckpoint(SampleCheckpoint(), path);
  CheckpointReader reader;
  std::string error;
  ASSERT_TRUE(reader.Open(path, &error)) << error;
  const CheckpointManifest& m = reader.manifest();
  EXPECT_EQ(m.version, kCheckpointFormatVersion);
  EXPECT_EQ(m.kind, "link_prediction");
  EXPECT_EQ(m.epoch, 3u);
  EXPECT_EQ(m.data_start % 4096, 0u);
  ASSERT_EQ(m.sections.size(), 3u);
  for (const CheckpointSectionInfo& s : m.sections) {
    EXPECT_EQ(s.file_offset % 4096, 0u) << s.name;
  }
  const CheckpointSectionInfo* value = m.FindSection("param0.value");
  ASSERT_NE(value, nullptr);
  EXPECT_EQ(value->rows, 3);
  EXPECT_EQ(value->cols, 4);
  EXPECT_EQ(value->bytes, 3u * 4u * sizeof(float));
  std::remove(path.c_str());
}

TEST(Checkpoint, V1FilesRejectedWithVersionError) {
  // The retired v1 layout (sections packed flush, no alignment) is not read:
  // the reader, which trainer restores and snapshot loads both open, fails
  // cleanly with the version message.
  const std::string path = TempPath("mgnn_ckpt_v1");
  WriteReferenceCheckpoint(SampleCheckpoint(), path, /*version=*/1);
  std::string error;
  CheckpointReader reader;
  EXPECT_FALSE(reader.Open(path, &error));
  EXPECT_NE(error.find("unsupported checkpoint format version 1"), std::string::npos)
      << error;
  std::remove(path.c_str());
}

TEST(Checkpoint, MidSaveCrashLeavesPreviousCheckpointIntact) {
  // A crash between the tmp-file write and the rename leaves a stale
  // `<path>.tmp`; the committed checkpoint must be untouched by it, and the
  // stale tmp must never be picked up by a load.
  const std::string path = TempPath("mgnn_ckpt_midsave");
  Checkpoint first = SampleCheckpoint();
  first.epoch = 1;
  SaveCheckpoint(first, path);

  // Simulate the interrupted second save: a complete (even valid!) image parked
  // at the tmp path that never got renamed.
  Checkpoint second = SampleCheckpoint();
  second.epoch = 2;
  const std::string scratch = TempPath("mgnn_ckpt_midsave_scratch");
  SaveCheckpoint(second, scratch);
  Dump(path + ".tmp", Slurp(scratch));
  std::remove(scratch.c_str());

  Checkpoint loaded;
  std::string error;
  ASSERT_TRUE(LoadCheckpoint(path, &loaded, &error)) << error;
  EXPECT_EQ(loaded.epoch, 1u);  // the crash never surfaced a partial save

  // The next successful save replaces both the checkpoint and the stale tmp.
  second.epoch = 3;
  SaveCheckpoint(second, path);
  ASSERT_TRUE(LoadCheckpoint(path, &loaded, &error)) << error;
  EXPECT_EQ(loaded.epoch, 3u);
  std::remove(path.c_str());
}

TEST(Checkpoint, StaleTmpAloneIsNotACheckpoint) {
  // Crash on the very first save: only `<path>.tmp` exists. Resume must fail
  // cleanly (there never was a durable checkpoint), not read the tmp file.
  const std::string path = TempPath("mgnn_ckpt_firstsave");
  const std::string scratch = TempPath("mgnn_ckpt_firstsave_scratch");
  SaveCheckpoint(SampleCheckpoint(), scratch);
  Dump(path + ".tmp", Slurp(scratch));
  std::remove(scratch.c_str());
  Checkpoint ck;
  std::string error;
  EXPECT_FALSE(LoadCheckpoint(path, &ck, &error));
  EXPECT_NE(error.find("cannot open checkpoint"), std::string::npos) << error;
  std::remove((path + ".tmp").c_str());
}

// Fully serial disk-mode LP config (fork-safe: no threads anywhere) that
// exercises the deepest save path — the PartitionBuffer flush of embedding
// values + Adagrad state.
TrainingConfig SerialDiskLpConfig() {
  TrainingConfig config;
  config.fanouts = {5};
  config.dims = {16, 16};
  config.batch_size = 512;
  config.num_negatives = 32;
  config.pipeline.enabled = false;
  config.pipeline.parallel_compute = false;
  config.pipeline.adaptive_workers = false;
  config.storage.use_disk = true;
  config.storage.num_physical = 8;
  config.storage.num_logical = 4;
  config.storage.buffer_capacity = 4;
  config.storage.prefetch = false;
  return config;
}

TEST(CheckpointCrash, KillAndResumeProducesIdenticalTrajectory) {
  Graph g = Fb15k237Like(0.03);
  const TrainingConfig config = SerialDiskLpConfig();

  // Uninterrupted reference: 3 epochs + MRR.
  std::vector<double> want_losses;
  double want_mrr = 0.0;
  {
    LinkPredictionTrainer trainer(&g, config);
    for (int e = 0; e < 3; ++e) {
      want_losses.push_back(trainer.TrainEpoch().loss);
    }
    want_mrr = trainer.EvaluateMrr(50, 100);
  }

  // Child process: auto-checkpoint every epoch, die hard (_exit, no destructors,
  // no flushes beyond the checkpoint's own fsync) after epoch 2 — i.e. mid-run.
  const std::string ckpt = TempPath("mgnn_kill_resume_ckpt");
  const pid_t pid = fork();
  ASSERT_NE(pid, -1);
  if (pid == 0) {
    TrainingConfig child_config = config;
    child_config.checkpoint.every_n_epochs = 1;
    child_config.checkpoint.path = ckpt;
    LinkPredictionTrainer trainer(&g, child_config);
    trainer.TrainEpoch();
    trainer.TrainEpoch();
    _exit(0);  // simulated crash: the trainer is never torn down
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), 0);

  // Survivor: resume from the epoch-2 snapshot and finish the run. Epoch 3 and
  // the final MRR must be bitwise-identical to the uninterrupted run.
  LinkPredictionTrainer resumed(&g, config);
  resumed.ResumeFrom(ckpt);
  EXPECT_EQ(resumed.epochs_completed(), 2);
  const double resumed_epoch3 = resumed.TrainEpoch().loss;
  EXPECT_EQ(resumed_epoch3, want_losses[2]);
  EXPECT_EQ(resumed.EvaluateMrr(50, 100), want_mrr);
  std::remove(ckpt.c_str());
}

// Saves through the trainer's streaming writer, then re-derives the same
// logical checkpoint and rewrites it with the reference materializing writer
// (the pre-streaming save algorithm): the two files must match byte for byte.
void ExpectStreamedSaveMatchesReference(TrainerBase& trainer,
                                        const std::string& tag) {
  const std::string path = TempPath("mgnn_golden_" + tag);
  trainer.SaveCheckpoint(path);
  Checkpoint ck;
  std::string error;
  ASSERT_TRUE(LoadCheckpoint(path, &ck, &error)) << tag << ": " << error;
  const std::string ref = path + ".ref";
  WriteReferenceCheckpoint(ck, ref, kCheckpointFormatVersion);
  const std::vector<char> streamed = Slurp(path);
  const std::vector<char> reference = Slurp(ref);
  ASSERT_FALSE(streamed.empty()) << tag;
  EXPECT_TRUE(streamed == reference)
      << tag << ": streamed file (" << streamed.size()
      << " bytes) differs from the materialized reference (" << reference.size()
      << " bytes)";
  std::remove(path.c_str());
  std::remove(ref.c_str());
}

TrainingConfig SerialNcConfig(bool use_disk) {
  TrainingConfig config;
  config.fanouts = {10, 5};
  config.dims = {64, 32, 32};
  config.batch_size = 256;
  config.num_negatives = 0;
  config.weight_lr = 0.05f;
  config.pipeline.enabled = false;
  config.pipeline.parallel_compute = false;
  config.pipeline.adaptive_workers = false;
  if (use_disk) {
    config.storage.use_disk = true;
    config.storage.num_physical = 16;
    config.storage.buffer_capacity = 8;
    config.storage.prefetch = false;
  }
  return config;
}

TEST(CheckpointStreaming, LpMemorySaveMatchesMaterializedReference) {
  Graph g = Fb15k237Like(0.03);
  TrainingConfig config = SerialDiskLpConfig();
  config.storage.use_disk = false;
  LinkPredictionTrainer trainer(&g, config);
  trainer.TrainEpoch();
  ExpectStreamedSaveMatchesReference(trainer, "lp_mem");
}

TEST(CheckpointStreaming, LpDiskSaveMatchesMaterializedReference) {
  // The deepest path: embedding values + Adagrad state stream partition by
  // partition (a random node permutation, so rows scatter) and the checksum is
  // re-folded from the file. The bytes must still match the reference exactly.
  Graph g = Fb15k237Like(0.03);
  LinkPredictionTrainer trainer(&g, SerialDiskLpConfig());
  trainer.TrainEpoch();
  ExpectStreamedSaveMatchesReference(trainer, "lp_disk");
}

TEST(CheckpointStreaming, NcMemorySaveMatchesMaterializedReference) {
  Graph g = PapersMini(0.05);
  NodeClassificationTrainer trainer(&g, SerialNcConfig(false));
  trainer.TrainEpoch();
  ExpectStreamedSaveMatchesReference(trainer, "nc_mem");
}

TEST(CheckpointStreaming, NcDiskSaveMatchesMaterializedReference) {
  Graph g = PapersMini(0.05);
  NodeClassificationTrainer trainer(&g, SerialNcConfig(true));
  trainer.TrainEpoch();
  ExpectStreamedSaveMatchesReference(trainer, "nc_disk");
}

TEST(CheckpointStreaming, TruncationRaceFailsCleanlyWithoutAborting) {
  // A file that shrinks under an already-open reader (concurrent prune, admin
  // mistake) must surface as a clean error from the TryReadAt layer — never a
  // process abort. This test IS the death-test-negative: an abort fails it.
  const std::string path = TempPath("mgnn_ckpt_trunc_race");
  SaveCheckpoint(SampleCheckpoint(), path);
  CheckpointReader reader;
  std::string error;
  ASSERT_TRUE(reader.Open(path, &error)) << error;
  ASSERT_EQ(::truncate(path.c_str(), 64), 0);  // cut mid-manifest, data gone
  EXPECT_FALSE(reader.VerifyDataChecksum(&error));
  EXPECT_NE(error.find("unexpected end of file"), std::string::npos) << error;
  // A fresh whole-file load of the truncated file also fails cleanly.
  Checkpoint ck;
  EXPECT_FALSE(LoadCheckpoint(path, &ck, &error));
  std::remove(path.c_str());
}

TEST(CheckpointStreaming, DiskSavePeakMemoryStaysBelowOnePartitionSet) {
  // The point of the streaming writer: auto-saving a disk-mode embedding table
  // must not materialize it. Peak transient memory has to stay under even one
  // resident partition set, which is itself well under the full table.
  Graph g = Fb15k237Like(0.25);
  TrainingConfig config = SerialDiskLpConfig();
  config.dims = {64, 64};
  config.checkpoint.every_n_epochs = 1;
  config.checkpoint.path = TempPath("mgnn_ckpt_peak");
  LinkPredictionTrainer trainer(&g, config);
  const EpochStats stats = trainer.TrainEpoch();

  int64_t max_rows = 0;
  for (int32_t p = 0; p < config.storage.num_physical; ++p) {
    max_rows = std::max(max_rows, trainer.partitioning()->PartitionSize(p));
  }
  const uint64_t dim = static_cast<uint64_t>(config.dims.front());
  const uint64_t set_bytes = static_cast<uint64_t>(config.storage.buffer_capacity) *
                             max_rows * dim * sizeof(float) * 2;  // values + state
  const uint64_t table_bytes =
      static_cast<uint64_t>(g.num_nodes()) * dim * sizeof(float) * 2;
  ASSERT_LT(set_bytes, table_bytes);

  EXPECT_GT(stats.checkpoint_peak_bytes, 0u);
  EXPECT_LT(stats.checkpoint_peak_bytes, set_bytes);
  EXPECT_GT(stats.checkpoint_save_seconds, 0.0);
  // The file itself still holds the full table (plus model params + manifest).
  EXPECT_GT(trainer.last_checkpoint_stats().bytes_written, table_bytes);
  std::remove(config.checkpoint.path.c_str());
}

TEST(CheckpointRetention, AutoSaveKeepsLastKAndSweepsStaleTmp) {
  Graph g = Fb15k237Like(0.03);
  TrainingConfig config = SerialDiskLpConfig();
  config.storage.use_disk = false;
  config.checkpoint.every_n_epochs = 1;
  config.checkpoint.keep_last_k = 2;
  config.checkpoint.path = TempPath("mgnn_ckpt_keep");
  const std::string& base = config.checkpoint.path;
  auto exists = [](const std::string& p) {
    return std::ifstream(p, std::ios::binary).good();
  };
  // Debris from hypothetical earlier crashed saves: both the legacy tmp name
  // and a per-epoch tmp. Retention must sweep them, not trip over them.
  Dump(base + ".tmp", std::vector<char>(32, 'x'));
  Dump(base + ".epoch1.tmp", std::vector<char>(32, 'x'));

  LinkPredictionTrainer trainer(&g, config);
  for (int e = 0; e < 5; ++e) {
    trainer.TrainEpoch();
  }
  // Exactly the newest k=2 per-epoch files survive; older ones and all stale
  // tmp debris are gone; nothing was ever written to the bare base path.
  EXPECT_FALSE(exists(CheckpointEpochPath(base, 1)));
  EXPECT_FALSE(exists(CheckpointEpochPath(base, 2)));
  EXPECT_FALSE(exists(CheckpointEpochPath(base, 3)));
  EXPECT_TRUE(exists(CheckpointEpochPath(base, 4)));
  EXPECT_TRUE(exists(CheckpointEpochPath(base, 5)));
  EXPECT_FALSE(exists(base + ".tmp"));
  EXPECT_FALSE(exists(base + ".epoch1.tmp"));
  EXPECT_FALSE(exists(base));
  EXPECT_EQ(LatestCheckpointPath(base), CheckpointEpochPath(base, 5));

  // The retained snapshots are real checkpoints: resume from the latest.
  TrainingConfig resume_config = config;
  resume_config.checkpoint.every_n_epochs = 0;
  resume_config.checkpoint.path.clear();
  LinkPredictionTrainer resumed(&g, resume_config);
  resumed.ResumeFrom(LatestCheckpointPath(base));
  EXPECT_EQ(resumed.epochs_completed(), 5);
  std::remove(CheckpointEpochPath(base, 4).c_str());
  std::remove(CheckpointEpochPath(base, 5).c_str());
}

TEST(CheckpointRetention, PruneNeverDeletesTheFileBeingWritten) {
  const std::string base = TempPath("mgnn_ckpt_prune");
  auto exists = [](const std::string& p) {
    return std::ifstream(p, std::ios::binary).good();
  };
  Dump(CheckpointEpochPath(base, 1), std::vector<char>(8, 'a'));
  Dump(CheckpointEpochPath(base, 2), std::vector<char>(8, 'b'));
  Dump(CheckpointEpochPath(base, 3), std::vector<char>(8, 'c'));
  // keep_last_k=1 would normally leave only epoch3, but epoch1 is the file the
  // caller just wrote (e.g. a re-run over old debris) — it must survive.
  PruneCheckpoints(base, 1, CheckpointEpochPath(base, 1));
  EXPECT_TRUE(exists(CheckpointEpochPath(base, 1)));
  EXPECT_FALSE(exists(CheckpointEpochPath(base, 2)));
  EXPECT_TRUE(exists(CheckpointEpochPath(base, 3)));
  std::remove(CheckpointEpochPath(base, 1).c_str());
  std::remove(CheckpointEpochPath(base, 3).c_str());
}

TEST(CheckpointRetention, EpochNumberPastInt64IsIgnored) {
  // A stray "<stem>.epoch<N>" whose N does not fit in int64_t is not
  // retention-managed: lookup skips it and pruning leaves it alone.
  const std::string base = TempPath("mgnn_ckpt_overflow");
  const std::string huge = base + ".epoch99999999999999999999";
  auto exists = [](const std::string& p) {
    return std::ifstream(p, std::ios::binary).good();
  };
  Dump(CheckpointEpochPath(base, 3), std::vector<char>(8, 'a'));
  Dump(CheckpointEpochPath(base, 4), std::vector<char>(8, 'b'));
  Dump(huge, std::vector<char>(8, 'z'));
  EXPECT_EQ(LatestCheckpointPath(base), CheckpointEpochPath(base, 4));
  PruneCheckpoints(base, 1, CheckpointEpochPath(base, 4));
  EXPECT_FALSE(exists(CheckpointEpochPath(base, 3)));
  EXPECT_TRUE(exists(CheckpointEpochPath(base, 4)));
  EXPECT_TRUE(exists(huge));
  std::remove(CheckpointEpochPath(base, 4).c_str());
  std::remove(huge.c_str());
}

TEST(CheckpointCrash, ResumeRefusesWrongKindAndSeed) {
  Graph g = Fb15k237Like(0.03);
  TrainingConfig config = SerialDiskLpConfig();
  config.storage.use_disk = false;  // in-memory is enough for the refusal paths
  const std::string ckpt = TempPath("mgnn_ckpt_refusal");
  {
    LinkPredictionTrainer trainer(&g, config);
    trainer.TrainEpoch();
    trainer.SaveCheckpoint(ckpt);
  }
  // Wrong seed: the batch stream would silently diverge — must abort.
  TrainingConfig other_seed = config;
  other_seed.seed = config.seed + 1;
  LinkPredictionTrainer wrong(&g, other_seed);
  EXPECT_DEATH(wrong.ResumeFrom(ckpt), "different run seed");
  std::remove(ckpt.c_str());
}

TEST(CheckpointCrash, ResumeFromV1FileDiesWithVersionError) {
  Graph g = Fb15k237Like(0.03);
  TrainingConfig config = SerialDiskLpConfig();
  config.storage.use_disk = false;
  const std::string v2_path = TempPath("mgnn_ckpt_resume_v2");
  {
    LinkPredictionTrainer trainer(&g, config);
    trainer.TrainEpoch();
    trainer.SaveCheckpoint(v2_path);
  }
  // The same snapshot in the retired v1 layout: only the version differs.
  Checkpoint ck;
  std::string error;
  ASSERT_TRUE(LoadCheckpoint(v2_path, &ck, &error)) << error;
  const std::string v1_path = TempPath("mgnn_ckpt_resume_v1");
  WriteReferenceCheckpoint(ck, v1_path, /*version=*/1);
  LinkPredictionTrainer resumed(&g, config);
  EXPECT_DEATH(resumed.ResumeFrom(v1_path), "unsupported checkpoint format version 1");
  std::remove(v2_path.c_str());
  std::remove(v1_path.c_str());
}

}  // namespace
}  // namespace mariusgnn
