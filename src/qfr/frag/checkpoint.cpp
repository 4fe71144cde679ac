#include "qfr/frag/checkpoint.hpp"

#include <algorithm>
#include <fstream>
#include <istream>
#include <ostream>

#include "qfr/common/crc32.hpp"
#include "qfr/common/error.hpp"

namespace qfr::frag {

namespace {

using common::ByteReader;

constexpr std::uint32_t kMagic = 0x5146524Du;  // "QFRM"
// Versions 2 (whole-vector snapshot) and 3 (pre-CRC append-only) are
// retired and rejected like any other mismatch; never reuse them.
constexpr std::uint32_t kVersion = 4;  // CRC-framed append-only
constexpr std::uint64_t kSentinel = 0xC0FFEEu;
// A fragment record is a few matrices of a few thousand atoms at most; a
// frame length beyond this means the length field itself is corrupt.
constexpr std::uint64_t kMaxFrameBytes = 1ull << 32;
constexpr std::size_t kReadChunk = 1u << 20;  // frame-body read step
// Sanity bound: a fragment result never stores gigabyte matrices.
constexpr std::uint64_t kMaxDim = 1u << 20;

void put_matrix(std::string& out, const la::Matrix& m) {
  common::put_u64(out, m.rows());
  common::put_u64(out, m.cols());
  common::put_bytes(out, m.data(), m.size() * sizeof(double));
}

bool get_matrix(ByteReader& in, la::Matrix* m) {
  std::uint64_t rows = 0, cols = 0;
  if (!in.get_u64(&rows) || !in.get_u64(&cols) || rows > kMaxDim ||
      cols > kMaxDim || !in.holds(rows * cols, sizeof(double)))
    return false;
  m->resize_zero(rows, cols);
  return in.get_bytes(m->data(), m->size() * sizeof(double));
}

// Read up to `n` bytes into `buf`; the reader sees exactly what arrived.
ByteReader read_up_to(std::istream& is, char* buf, std::size_t n) {
  is.read(buf, static_cast<std::streamsize>(n));
  return ByteReader({buf, static_cast<std::size_t>(is.gcount())});
}

void put_header(std::ostream& os) {
  std::string header;
  append_file_header(header, kMagic, kVersion);
  os.write(header.data(), static_cast<std::streamsize>(header.size()));
  QFR_REQUIRE(os.good(), "checkpoint header write failed");
}

}  // namespace

void write_result_record(std::string& out, const engine::FragmentResult& r) {
  common::put_f64(out, r.energy);
  put_matrix(out, r.hessian);
  put_matrix(out, r.alpha);
  put_matrix(out, r.dalpha);
  put_matrix(out, r.dmu);
  common::put_u64(out, static_cast<std::uint64_t>(r.flops));
  common::put_u64(out, static_cast<std::uint64_t>(r.displacement_tasks));
  common::put_u64(out, kSentinel);  // record-complete sentinel
}

bool read_result_record(ByteReader& in, engine::FragmentResult* r) {
  std::uint64_t flops = 0, tasks = 0, sentinel = 0;
  const bool ok = in.get_f64(&r->energy) && get_matrix(in, &r->hessian) &&
                  get_matrix(in, &r->alpha) && get_matrix(in, &r->dalpha) &&
                  get_matrix(in, &r->dmu) && in.get_u64(&flops) &&
                  in.get_u64(&tasks) && in.get_u64(&sentinel) &&
                  sentinel == kSentinel;
  if (!ok) return false;
  r->flops = static_cast<std::int64_t>(flops);
  r->displacement_tasks = static_cast<int>(tasks);
  return true;
}

void append_file_header(std::string& out, std::uint64_t magic,
                        std::uint64_t version) {
  common::put_u64(out, magic);
  common::put_u64(out, version);
}

bool read_file_header(std::istream& is, std::uint64_t* magic,
                      std::uint64_t* version) {
  char buf[2 * sizeof(std::uint64_t)];
  ByteReader in = read_up_to(is, buf, sizeof(buf));
  return in.get_u64(magic) && in.get_u64(version);
}

void append_frame(std::string& out, std::uint64_t id, std::string_view body) {
  common::put_u64(out, id);
  common::put_u64(out, body.size());
  common::put_bytes(out, body.data(), body.size());
  common::put_u64(out, common::crc32(body.data(), body.size()));
}

FrameStatus read_frame(std::istream& is, std::uint64_t* id,
                       std::string* body) {
  char buf[kFramePrefix];
  ByteReader head = read_up_to(is, buf, sizeof(buf));
  if (head.at_end()) return FrameStatus::kEnd;
  std::uint64_t len = 0, crc = 0;
  if (!head.get_u64(id) || !head.get_u64(&len) || len > kMaxFrameBytes)
    return FrameStatus::kTruncated;
  body->clear();
  while (body->size() < len) {
    const std::size_t at = body->size();
    const std::size_t step =
        static_cast<std::size_t>(std::min<std::uint64_t>(len - at, kReadChunk));
    body->resize(at + step);
    if (!is.read(body->data() + at, static_cast<std::streamsize>(step)))
      return FrameStatus::kTruncated;
  }
  if (!read_up_to(is, buf, kFrameSuffix).get_u64(&crc))
    return FrameStatus::kTruncated;
  return crc == common::crc32(body->data(), body->size())
             ? FrameStatus::kFrame
             : FrameStatus::kCorrupt;
}

CheckpointWriter::CheckpointWriter(const std::string& path)
    : file_(path, std::ios::binary | std::ios::trunc) {
  QFR_REQUIRE(file_.good(), "cannot open '" << path << "' for writing");
  os_ = &file_;
  put_header(*os_);
  os_->flush();
}

CheckpointWriter::CheckpointWriter(std::ostream& os) : os_(&os) {
  put_header(*os_);
}

void CheckpointWriter::append(std::size_t fragment_id,
                              const engine::FragmentResult& result) {
  std::string body, frame;
  write_result_record(body, result);
  append_frame(frame, fragment_id, body);
  os_->write(frame.data(), static_cast<std::streamsize>(frame.size()));
  // Flush per record: a killed run loses at most the record in flight.
  os_->flush();
  QFR_REQUIRE(os_->good(), "checkpoint append failed");
  ++n_;
}

CheckpointReport scan_checkpoint(std::istream& is) {
  std::uint64_t magic = 0, version = 0;
  const bool whole_header = read_file_header(is, &magic, &version);
  QFR_REQUIRE(magic == kMagic, "not a QF-RAMAN checkpoint stream");
  QFR_REQUIRE(whole_header, "truncated checkpoint header");
  QFR_REQUIRE(version == kVersion, "checkpoint version mismatch (got "
                                       << version << ", expected " << kVersion
                                       << ")");
  CheckpointReport report;
  std::string body;
  for (;;) {
    std::uint64_t id = 0;
    const FrameStatus status = read_frame(is, &id, &body);
    if (status == FrameStatus::kEnd) break;
    if (status == FrameStatus::kTruncated) {
      // A corrupt length field is indistinguishable from a torn tail: we
      // cannot find the next frame boundary, so the scan stops here.
      report.truncated = true;
      break;
    }
    engine::FragmentResult r;
    ByteReader in(body);
    if (status == FrameStatus::kCorrupt || !read_result_record(in, &r) ||
        !in.at_end()) {
      // The frame is intact but the body is damaged: skip exactly this
      // record and keep scanning from the next frame.
      ++report.n_corrupt;
      report.corrupt_ids.push_back(static_cast<std::size_t>(id));
      continue;
    }
    report.fragment_ids.push_back(static_cast<std::size_t>(id));
    report.results.push_back(std::move(r));
  }
  return report;
}

CheckpointReport scan_checkpoint_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  QFR_REQUIRE(is.good(), "cannot open '" << path << "' for reading");
  return scan_checkpoint(is);
}

}  // namespace qfr::frag
