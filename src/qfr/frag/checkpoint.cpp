#include "qfr/frag/checkpoint.hpp"

#include <cstdint>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "qfr/common/crc32.hpp"
#include "qfr/common/error.hpp"

namespace qfr::frag {

namespace {

using common::crc32;

constexpr std::uint32_t kMagic = 0x5146524Du;  // "QFRM"
// Versions 2 (whole-vector snapshot) and 3 (pre-CRC append-only) are
// retired and rejected like any other mismatch; never reuse them.
constexpr std::uint32_t kVersion = 4;  // CRC-framed append-only
constexpr std::uint64_t kSentinel = 0xC0FFEEu;
// A fragment record is a few matrices of a few thousand atoms at most; a
// frame length beyond this means the length field itself is corrupt.
constexpr std::uint64_t kMaxRecordBytes = 1ull << 32;

void put_u64(std::ostream& os, std::uint64_t v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}
void put_f64(std::ostream& os, double v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}
void put_matrix(std::ostream& os, const la::Matrix& m) {
  put_u64(os, m.rows());
  put_u64(os, m.cols());
  os.write(reinterpret_cast<const char*>(m.data()),
           static_cast<std::streamsize>(m.size() * sizeof(double)));
}

bool get_u64(std::istream& is, std::uint64_t* v) {
  is.read(reinterpret_cast<char*>(v), sizeof(*v));
  return is.good();
}
bool get_f64(std::istream& is, double* v) {
  is.read(reinterpret_cast<char*>(v), sizeof(*v));
  return is.good();
}
bool get_matrix(std::istream& is, la::Matrix* m) {
  std::uint64_t rows = 0, cols = 0;
  if (!get_u64(is, &rows) || !get_u64(is, &cols)) return false;
  // Sanity bound: a fragment result never stores gigabyte matrices.
  if (rows > (1u << 20) || cols > (1u << 20)) return false;
  m->resize_zero(rows, cols);
  is.read(reinterpret_cast<char*>(m->data()),
          static_cast<std::streamsize>(m->size() * sizeof(double)));
  return is.good();
}

void put_header(std::ostream& os) {
  put_u64(os, kMagic);
  put_u64(os, kVersion);
  QFR_REQUIRE(os.good(), "checkpoint header write failed");
}

}  // namespace

void write_result_record(std::ostream& os, const engine::FragmentResult& r) {
  put_f64(os, r.energy);
  put_matrix(os, r.hessian);
  put_matrix(os, r.alpha);
  put_matrix(os, r.dalpha);
  put_matrix(os, r.dmu);
  put_u64(os, static_cast<std::uint64_t>(r.flops));
  put_u64(os, static_cast<std::uint64_t>(r.displacement_tasks));
  put_u64(os, kSentinel);  // record-complete sentinel
}

bool read_result_record(std::istream& is, engine::FragmentResult* r) {
  std::uint64_t flops = 0, tasks = 0, sentinel = 0;
  const bool ok = get_f64(is, &r->energy) && get_matrix(is, &r->hessian) &&
                  get_matrix(is, &r->alpha) && get_matrix(is, &r->dalpha) &&
                  get_matrix(is, &r->dmu) && get_u64(is, &flops) &&
                  get_u64(is, &tasks) && get_u64(is, &sentinel) &&
                  sentinel == kSentinel;
  if (!ok) return false;
  r->flops = static_cast<std::int64_t>(flops);
  r->displacement_tasks = static_cast<int>(tasks);
  return true;
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
  // Frame: [id u64][payload len u64][payload][crc32-of-payload u64]. The
  // length makes a corrupt payload skippable; the CRC makes it detectable.
  std::ostringstream payload(std::ios::binary);
  write_result_record(payload, result);
  const std::string bytes = payload.str();

  put_u64(*os_, static_cast<std::uint64_t>(fragment_id));
  put_u64(*os_, static_cast<std::uint64_t>(bytes.size()));
  os_->write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  put_u64(*os_, crc32(bytes.data(), bytes.size()));
  // Flush per record: a killed run loses at most the record in flight.
  os_->flush();
  QFR_REQUIRE(os_->good(), "checkpoint append failed");
  ++n_;
}

CheckpointReport scan_checkpoint(std::istream& is) {
  std::uint64_t magic = 0, version = 0;
  QFR_REQUIRE(get_u64(is, &magic) && magic == kMagic,
              "not a QF-RAMAN checkpoint stream");
  QFR_REQUIRE(get_u64(is, &version), "truncated checkpoint header");
  QFR_REQUIRE(version == kVersion, "checkpoint version mismatch (got "
                                       << version << ", expected " << kVersion
                                       << ")");
  CheckpointReport report;
  std::string payload;
  for (;;) {
    std::uint64_t id = 0, len = 0;
    if (!get_u64(is, &id)) break;  // clean end of stream
    if (!get_u64(is, &len) || len > kMaxRecordBytes) {
      // A corrupt length field is indistinguishable from a torn tail: we
      // cannot find the next frame boundary, so the scan stops here.
      report.truncated = true;
      break;
    }
    payload.resize(static_cast<std::size_t>(len));
    is.read(payload.data(), static_cast<std::streamsize>(len));
    std::uint64_t stored_crc = 0;
    if (!is.good() || !get_u64(is, &stored_crc)) {
      report.truncated = true;
      break;
    }
    engine::FragmentResult r;
    std::istringstream ps(payload, std::ios::binary);
    if (crc32(payload.data(), payload.size()) != stored_crc ||
        !read_result_record(ps, &r)) {
      // The frame is intact but the payload is damaged: skip exactly this
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
