#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <sstream>
#include <stdexcept>

#include "qfr/chem/molecule.hpp"
#include "qfr/common/error.hpp"
#include "qfr/engine/model_engine.hpp"
#include "qfr/frag/assembly.hpp"
#include "qfr/frag/checkpoint.hpp"
#include "qfr/frag/fragmentation.hpp"
#include "qfr/la/blas.hpp"
#include "qfr/runtime/master_runtime.hpp"

namespace qfr::frag {
namespace {

std::vector<engine::FragmentResult> sample_results() {
  engine::ModelEngine eng;
  std::vector<engine::FragmentResult> results;
  results.push_back(eng.compute(chem::make_water({0, 0, 0})));
  results.push_back(eng.compute(chem::make_water({10, 0, 0}, 1.0)));
  return results;
}

// Writes `results` as fragments 0..n-1 and scans them back.
CheckpointReport round_trip(
    const std::vector<engine::FragmentResult>& results) {
  std::stringstream ss;
  CheckpointWriter writer(ss);
  for (std::size_t i = 0; i < results.size(); ++i)
    writer.append(i, results[i]);
  return scan_checkpoint(ss);
}

// A v4 stream relabelled with another format version: the header is
// intact, only the version differs.
std::string with_version(std::uint64_t version) {
  std::stringstream ss;
  CheckpointWriter writer(ss);
  writer.append(7, sample_results()[0]);
  std::string data = ss.str();
  std::memcpy(data.data() + 8, &version, sizeof(version));
  return data;
}

// The rejection names the version found and the version expected.
void expect_version_rejected(std::uint64_t version) {
  std::stringstream old(with_version(version));
  try {
    scan_checkpoint(old);
    ADD_FAILURE() << "version " << version << " was accepted";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("got " + std::to_string(version)), std::string::npos)
        << what;
    EXPECT_NE(what.find("expected 4"), std::string::npos) << what;
  }
}

TEST(Checkpoint, RoundTripPreservesEverything) {
  const auto original = sample_results();
  const CheckpointReport report = round_trip(original);
  EXPECT_FALSE(report.truncated);
  EXPECT_EQ(report.n_corrupt, 0u);
  ASSERT_EQ(report.results.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    const auto& a = original[i];
    const auto& b = report.results[i];
    EXPECT_EQ(report.fragment_ids[i], i);
    EXPECT_DOUBLE_EQ(a.energy, b.energy);
    EXPECT_EQ(a.flops, b.flops);
    EXPECT_EQ(a.displacement_tasks, b.displacement_tasks);
    EXPECT_LT(la::max_abs_diff(a.hessian, b.hessian), 0.0 + 1e-300);
    EXPECT_LT(la::max_abs_diff(a.alpha, b.alpha), 0.0 + 1e-300);
    EXPECT_LT(la::max_abs_diff(a.dalpha, b.dalpha), 0.0 + 1e-300);
    EXPECT_LT(la::max_abs_diff(a.dmu, b.dmu), 0.0 + 1e-300);
  }
}

TEST(Checkpoint, TruncatedStreamDropsTail) {
  const auto original = sample_results();
  std::stringstream ss;
  CheckpointWriter writer(ss);
  writer.append(0, original[0]);
  writer.append(1, original[1]);
  std::string data = ss.str();
  // Chop into the middle of the second record.
  data.resize(data.size() - 100);
  std::stringstream cut(data);
  const CheckpointReport report = scan_checkpoint(cut);
  EXPECT_TRUE(report.truncated);
  ASSERT_EQ(report.results.size(), 1u);
  // The surviving record is intact.
  EXPECT_DOUBLE_EQ(report.results[0].energy, original[0].energy);
}

TEST(Checkpoint, RejectsGarbage) {
  std::stringstream ss("this is not a checkpoint");
  EXPECT_THROW(scan_checkpoint(ss), InvalidArgument);
}

TEST(Checkpoint, RejectsWrongVersion) { expect_version_rejected(99); }

TEST(Checkpoint, FileRoundTrip) {
  const auto original = sample_results();
  const std::string path = "/tmp/qfr_checkpoint_test.bin";
  {
    CheckpointWriter writer(path);
    for (std::size_t i = 0; i < original.size(); ++i)
      writer.append(i, original[i]);
  }
  const CheckpointReport report = scan_checkpoint_file(path);
  EXPECT_EQ(report.results.size(), original.size());
  EXPECT_FALSE(report.truncated);
  EXPECT_EQ(report.n_corrupt, 0u);
}

TEST(Checkpoint, RestartProducesIdenticalAssembly) {
  // Full restart cycle: run the sweep, checkpoint, reload, and verify the
  // assembled global properties are bitwise identical.
  BioSystem sys;
  sys.waters.push_back(chem::make_water({0, 0, 0}));
  sys.waters.push_back(chem::make_water({6.0, 0, 0}));  // within lambda
  const Fragmentation fr = fragment_biosystem(sys);
  engine::ModelEngine eng;
  std::vector<engine::FragmentResult> results;
  for (const auto& f : fr.fragments)
    results.push_back(eng.compute_with_topology(f.mol, f.bonds));

  const CheckpointReport loaded = round_trip(results);
  ASSERT_FALSE(loaded.truncated);
  ASSERT_EQ(loaded.results.size(), results.size());

  const auto direct =
      assemble_global_properties(sys, fr.fragments, results);
  const auto restored =
      assemble_global_properties(sys, fr.fragments, loaded.results);
  EXPECT_LT(la::max_abs_diff(direct.hessian_mw.to_dense(),
                             restored.hessian_mw.to_dense()),
            0.0 + 1e-300);
  EXPECT_LT(la::max_abs_diff(direct.dalpha_mw, restored.dalpha_mw),
            0.0 + 1e-300);
}

TEST(Checkpoint, EmptyResultSetRoundTrips) {
  const CheckpointReport report = round_trip({});
  EXPECT_TRUE(report.results.empty());
  EXPECT_TRUE(report.fragment_ids.empty());
  EXPECT_FALSE(report.truncated);
  EXPECT_EQ(report.n_corrupt, 0u);
}

TEST(IncrementalCheckpoint, AppendScanRoundTrip) {
  const auto original = sample_results();
  std::stringstream ss;
  CheckpointWriter writer(ss);
  writer.append(4, original[0]);
  writer.append(1, original[1]);
  EXPECT_EQ(writer.n_written(), 2u);

  const CheckpointReport scan = scan_checkpoint(ss);
  EXPECT_FALSE(scan.truncated);
  ASSERT_EQ(scan.fragment_ids.size(), 2u);
  EXPECT_EQ(scan.fragment_ids[0], 4u);  // append order, ids out of order OK
  EXPECT_EQ(scan.fragment_ids[1], 1u);
  EXPECT_DOUBLE_EQ(scan.results[0].energy, original[0].energy);
  EXPECT_LT(la::max_abs_diff(scan.results[1].hessian, original[1].hessian),
            1e-300);
}

TEST(IncrementalCheckpoint, TruncatedTailDroppedAndFlagged) {
  const auto original = sample_results();
  std::stringstream ss;
  CheckpointWriter writer(ss);
  writer.append(0, original[0]);
  writer.append(1, original[1]);
  std::string data = ss.str();
  data.resize(data.size() - 37);  // kill the run mid-record
  std::stringstream cut(data);
  const CheckpointReport scan = scan_checkpoint(cut);
  EXPECT_TRUE(scan.truncated);
  ASSERT_EQ(scan.fragment_ids.size(), 1u);  // completed prefix survives
  EXPECT_EQ(scan.fragment_ids[0], 0u);
  EXPECT_DOUBLE_EQ(scan.results[0].energy, original[0].energy);
}

// The v4 frame layout this file's surgical tests rely on:
//   header: [magic u64][version u64]
//   frame:  [fragment id u64][payload len u64][payload][crc u64]
constexpr std::size_t kHeaderBytes = 16;

std::uint64_t read_u64(const std::string& data, std::size_t offset) {
  std::uint64_t v = 0;
  std::memcpy(&v, data.data() + offset, sizeof(v));
  return v;
}

TEST(IncrementalCheckpoint, SingleBitFlipLosesOnlyThatRecord) {
  const auto original = sample_results();
  std::stringstream ss;
  CheckpointWriter writer(ss);
  writer.append(0, original[0]);
  writer.append(1, original[1]);
  std::string data = ss.str();

  // Flip one bit in the middle of record 0's payload.
  const std::uint64_t len0 = read_u64(data, kHeaderBytes + 8);
  data[kHeaderBytes + 16 + len0 / 2] ^= 0x10;

  std::stringstream damaged(data);
  const CheckpointReport scan = scan_checkpoint(damaged);
  EXPECT_FALSE(scan.truncated);
  EXPECT_EQ(scan.n_corrupt, 1u);
  ASSERT_EQ(scan.corrupt_ids.size(), 1u);
  EXPECT_EQ(scan.corrupt_ids[0], 0u);
  // The record after the damage is still read in full.
  ASSERT_EQ(scan.fragment_ids.size(), 1u);
  EXPECT_EQ(scan.fragment_ids[0], 1u);
  EXPECT_DOUBLE_EQ(scan.results[0].energy, original[1].energy);
  EXPECT_LT(la::max_abs_diff(scan.results[0].hessian, original[1].hessian),
            1e-300);
}

TEST(IncrementalCheckpoint, CorruptLengthFieldStopsScanAsTruncated) {
  const auto original = sample_results();
  std::stringstream ss;
  CheckpointWriter writer(ss);
  writer.append(0, original[0]);
  writer.append(1, original[1]);
  std::string data = ss.str();
  // Clobber record 0's length: the frame boundary is lost, so the scan
  // cannot safely reach record 1.
  data[kHeaderBytes + 8 + 6] = static_cast<char>(0xFF);
  std::stringstream damaged(data);
  const CheckpointReport scan = scan_checkpoint(damaged);
  EXPECT_TRUE(scan.truncated);
  EXPECT_TRUE(scan.fragment_ids.empty());
}

TEST(IncrementalCheckpoint, InBoundLyingLengthStopsScanAsTruncated) {
  // A length just under the 4 GiB frame bound on a stream holding a few
  // kilobytes: the body is read as its bytes arrive, so the scan reports
  // a torn tail without first allocating the claimed 4 GiB.
  const auto original = sample_results();
  std::stringstream ss;
  CheckpointWriter writer(ss);
  writer.append(0, original[0]);
  std::string data = ss.str();
  const std::uint64_t lying = (1ull << 32) - 1;
  std::memcpy(&data[kHeaderBytes + 8], &lying, sizeof(lying));
  std::stringstream damaged(data);
  const CheckpointReport scan = scan_checkpoint(damaged);
  EXPECT_TRUE(scan.truncated);
  EXPECT_TRUE(scan.fragment_ids.empty());

  // The frame reader itself stops at the first short chunk: its body
  // never grows anywhere near the claimed length.
  std::stringstream frames(data.substr(kHeaderBytes));
  std::uint64_t id = 0;
  std::string body;
  EXPECT_EQ(read_frame(frames, &id, &body), FrameStatus::kTruncated);
  EXPECT_LT(body.capacity(), std::size_t{16} << 20);
}

TEST(IncrementalCheckpoint, HostileMatrixShapeCountsCorrupt) {
  // A CRC-valid frame whose record claims a 2^20 x 2^20 Hessian (8 TiB):
  // the record reader checks the shape against the body's bytes before
  // allocating, so the scan counts the record corrupt instead of throwing.
  const auto original = sample_results();
  std::string body;
  write_result_record(body, original[0]);
  const std::uint64_t huge = 1ull << 20;
  std::memcpy(&body[8], &huge, sizeof(huge));   // rows, after the energy
  std::memcpy(&body[16], &huge, sizeof(huge));  // cols
  std::stringstream ss;
  CheckpointWriter writer(ss);
  std::string frame;
  append_frame(frame, 7, body);
  ss.write(frame.data(), static_cast<std::streamsize>(frame.size()));
  writer.append(1, original[1]);

  const CheckpointReport scan = scan_checkpoint(ss);
  EXPECT_FALSE(scan.truncated);
  EXPECT_EQ(scan.n_corrupt, 1u);
  ASSERT_EQ(scan.corrupt_ids.size(), 1u);
  EXPECT_EQ(scan.corrupt_ids[0], 7u);
  ASSERT_EQ(scan.fragment_ids.size(), 1u);
  EXPECT_EQ(scan.fragment_ids[0], 1u);
}

TEST(IncrementalCheckpoint, LegacyUnframedVersionIsRejected) {
  expect_version_rejected(3);  // pre-CRC append-only stream
}

TEST(IncrementalCheckpoint, ScanRejectsWholeVectorFormat) {
  expect_version_rejected(2);  // whole-vector snapshot
}

TEST(IncrementalCheckpoint, RuntimeCrashThenResumeRecomputesOnlyMissing) {
  // The acceptance cycle: a sweep dies on fragment k, the checkpoint
  // holds the completed prefix, and the resumed sweep recomputes only
  // what is missing.
  BioSystem sys;
  for (int i = 0; i < 6; ++i)
    sys.waters.push_back(
        chem::make_water({static_cast<double>(20 * i), 0, 0}));
  const Fragmentation fr = fragment_biosystem(sys);
  const std::string path = "/tmp/qfr_incremental_resume_test.bin";
  engine::ModelEngine eng;

  // First run: fragment 4 fails persistently; the rest complete and
  // stream to the checkpoint.
  std::atomic<int> first_run_computes{0};
  {
    CheckpointSink sink(path);
    runtime::RuntimeOptions opts;
    opts.n_leaders = 2;
    opts.max_retries = 0;
    opts.abort_on_failure = false;
    opts.sink = &sink;
    const runtime::MasterRuntime rt(std::move(opts));
    const auto report =
        rt.run(fr.fragments, [&](const Fragment& f) {
          if (f.id == 4) throw std::runtime_error("node died");
          first_run_computes.fetch_add(1);
          return eng.compute_with_topology(f.mol, f.bonds);
        });
    EXPECT_EQ(report.n_failed(), 1u);
    EXPECT_EQ(sink.writer().n_written(), 5u);
  }

  // Resume: seed the scheduler with the checkpointed ids and count the
  // compute invocations — only fragment 4 may run.
  const CheckpointReport scan = scan_checkpoint_file(path);
  EXPECT_FALSE(scan.truncated);
  ASSERT_EQ(scan.fragment_ids.size(), 5u);

  std::atomic<int> resumed_computes{0};
  runtime::RuntimeOptions opts;
  opts.n_leaders = 2;
  opts.completed_ids = scan.fragment_ids;
  const runtime::MasterRuntime rt(std::move(opts));
  auto report = rt.run(fr.fragments, [&](const Fragment& f) {
    resumed_computes.fetch_add(1);
    EXPECT_EQ(f.id, 4u);  // everything else came from the checkpoint
    return eng.compute_with_topology(f.mol, f.bonds);
  });
  EXPECT_EQ(resumed_computes.load(), 1);
  EXPECT_EQ(report.n_resumed, 5u);
  EXPECT_TRUE(report.outcomes[4].completed);
  EXPECT_FALSE(report.outcomes[4].from_checkpoint);

  // Merge the checkpointed records and verify the assembly matches a
  // clean serial reference.
  for (std::size_t k = 0; k < scan.fragment_ids.size(); ++k)
    report.results[scan.fragment_ids[k]] = scan.results[k];
  std::vector<engine::FragmentResult> serial;
  for (const auto& f : fr.fragments)
    serial.push_back(eng.compute_with_topology(f.mol, f.bonds));
  const auto a = assemble_global_properties(sys, fr.fragments, serial);
  const auto b =
      assemble_global_properties(sys, fr.fragments, report.results);
  EXPECT_LT(la::max_abs_diff(a.hessian_mw.to_dense(),
                             b.hessian_mw.to_dense()),
            1e-300);
}

}  // namespace
}  // namespace qfr::frag
