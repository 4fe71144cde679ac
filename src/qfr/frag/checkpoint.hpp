#pragma once

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "qfr/common/bytes.hpp"
#include "qfr/engine/fragment_engine.hpp"
#include "qfr/runtime/result_sink.hpp"

namespace qfr::frag {

/// Binary checkpointing of per-fragment results.
///
/// The fragment sweep dominates a QF-RAMAN run (at the paper's scale it is
/// hours on a full supercomputer), so production runs must be resumable:
/// results are streamed to disk as they complete and a restarted run only
/// recomputes what is missing. A run killed mid-write loses at most the
/// trailing record; a bit flip at rest corrupts exactly one record — the
/// length framing lets scan_checkpoint skip it, report it, and keep every
/// other record.

/// The single-record serialization shared by every stored or shipped
/// fragment result (checkpoint frames, the qfr::cache persistent store,
/// the leader wire): energy, the four tensors, flop/task counters, and a
/// completion sentinel. read_result_record consumes one record and returns
/// false on a truncated, sentinel-less or hostile-shaped record without
/// throwing: each matrix shape is checked against the bytes present
/// before it is allocated.
void write_result_record(std::string& out, const engine::FragmentResult& r);
bool read_result_record(common::ByteReader& in, engine::FragmentResult* r);

/// The one CRC frame of every on-disk fragment-result file (the v4
/// checkpoint, the result-cache store): a [magic u64][version u64] header,
/// then append-only [id u64][body len u64][body][crc32(body) u64] records.
void append_file_header(std::string& out, std::uint64_t magic,
                        std::uint64_t version);
/// False when the stream ends inside the header (fields read stay set).
bool read_file_header(std::istream& is, std::uint64_t* magic,
                      std::uint64_t* version);
void append_frame(std::string& out, std::uint64_t id, std::string_view body);
/// Bytes a frame adds before its body (id, length) and after it (CRC).
inline constexpr std::size_t kFramePrefix = 2 * sizeof(std::uint64_t);
inline constexpr std::size_t kFrameSuffix = sizeof(std::uint64_t);

enum class FrameStatus {
  kFrame,      ///< an intact frame: `id` and `body` are set
  kCorrupt,    ///< framing intact, body fails its CRC: skip just this one
  kEnd,        ///< clean end of stream
  kTruncated,  ///< torn tail or corrupt length: the next boundary is lost
};
/// The body grows only as its bytes arrive: a torn tail or a corrupt
/// length never allocates far past the end of the stream.
FrameStatus read_frame(std::istream& is, std::uint64_t* id, std::string* body);

/// Incremental (v4) checkpoint writer: records are appended and flushed
/// one at a time as fragments complete. Not thread safe — the runtime
/// serializes sink calls.
class CheckpointWriter {
 public:
  /// Truncates `path` and writes a fresh v4 header.
  explicit CheckpointWriter(const std::string& path);
  CheckpointWriter(std::ostream& os);  ///< stream variant (tests)

  /// Append one completed fragment's result and flush.
  void append(std::size_t fragment_id, const engine::FragmentResult& result);

  std::size_t n_written() const { return n_; }

 private:
  std::ofstream file_;
  std::ostream* os_ = nullptr;
  std::size_t n_ = 0;
};

/// Result of scanning an incremental checkpoint: parallel arrays of
/// fragment id and result, in append order (ids may repeat only if the
/// writer was misused; last record wins on resume). Corrupt records are
/// skipped — the resume recomputes exactly those fragments — and counted
/// here so the workflow can log what the checkpoint lost.
struct CheckpointReport {
  std::vector<std::size_t> fragment_ids;
  std::vector<engine::FragmentResult> results;
  bool truncated = false;    ///< a partial trailing record was dropped
  std::size_t n_corrupt = 0; ///< CRC-mismatched/unparseable records skipped
  /// Fragment ids of skipped records, best effort: trustworthy when the
  /// payload (not the frame header) was corrupted.
  std::vector<std::size_t> corrupt_ids;
};
CheckpointReport scan_checkpoint(std::istream& is);
CheckpointReport scan_checkpoint_file(const std::string& path);

/// ResultSink adapter streaming every accepted fragment completion into
/// an incremental checkpoint — this is what makes a RamanWorkflow sweep
/// resumable.
class CheckpointSink final : public runtime::ResultSink {
 public:
  explicit CheckpointSink(const std::string& path) : writer_(path) {}

  void on_result(std::size_t fragment_id,
                 const engine::FragmentResult& result) override {
    writer_.append(fragment_id, result);
  }

  CheckpointWriter& writer() { return writer_; }

 private:
  CheckpointWriter writer_;
};

}  // namespace qfr::frag
