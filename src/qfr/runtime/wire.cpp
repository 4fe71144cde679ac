#include "qfr/runtime/wire.hpp"

#include "qfr/common/bytes.hpp"
#include "qfr/common/crc32.hpp"
#include "qfr/frag/checkpoint.hpp"

namespace qfr::runtime::wire {

namespace {

// Every decode_* routine reads through the bounded common::ByteReader.
using common::ByteReader;
using common::put_f64;
using common::put_string;
using common::put_u32;
using common::put_u64;

bool known_type(std::uint32_t t) {
  return t >= static_cast<std::uint32_t>(MsgType::kHello) &&
         t <= static_cast<std::uint32_t>(MsgType::kStats);
}

constexpr std::size_t kHeaderBytes =
    sizeof(std::uint32_t) * 3 + sizeof(std::uint64_t);

}  // namespace

const char* to_string(DecodeStatus status) {
  switch (status) {
    case DecodeStatus::kFrame: return "frame";
    case DecodeStatus::kNeedMore: return "need-more";
    case DecodeStatus::kBadMagic: return "bad-magic";
    case DecodeStatus::kBadVersion: return "bad-version";
    case DecodeStatus::kBadType: return "bad-type";
    case DecodeStatus::kOversized: return "oversized";
    case DecodeStatus::kBadCrc: return "bad-crc";
  }
  return "unknown";
}

std::string encode_frame_versioned(std::uint32_t version, MsgType type,
                                   std::string_view payload) {
  std::string out;
  out.reserve(kHeaderBytes + payload.size() + sizeof(std::uint32_t));
  put_u32(out, kMagic);
  put_u32(out, version);
  put_u32(out, static_cast<std::uint32_t>(type));
  put_string(out, payload);
  // The CRC signs everything after the magic: version, type, length and
  // payload.
  put_u32(out, common::crc32(out.data() + sizeof(std::uint32_t),
                             out.size() - sizeof(std::uint32_t)));
  return out;
}

std::string encode_frame(MsgType type, std::string_view payload) {
  return encode_frame_versioned(kVersion, type, payload);
}

DecodeStatus FrameReader::next(Frame* out) {
  if (buf_.size() < kHeaderBytes) return DecodeStatus::kNeedMore;
  ByteReader c(buf_);
  std::uint32_t magic = 0, version = 0, type = 0;
  std::uint64_t len = 0;
  c.get_u32(&magic);
  c.get_u32(&version);
  c.get_u32(&type);
  c.get_u64(&len);
  if (magic != kMagic) return DecodeStatus::kBadMagic;
  // Reject a hostile length before buffering gigabytes for it.
  if (len > kMaxPayloadBytes) return DecodeStatus::kOversized;
  if (version != kVersion) return DecodeStatus::kBadVersion;
  if (!known_type(type)) return DecodeStatus::kBadType;
  const std::size_t total =
      kHeaderBytes + static_cast<std::size_t>(len) + sizeof(std::uint32_t);
  if (buf_.size() < total) return DecodeStatus::kNeedMore;

  std::uint32_t stored_crc = 0;
  ByteReader(std::string_view(buf_).substr(total - sizeof(stored_crc)))
      .get_u32(&stored_crc);
  // CRC covers version..payload (everything between magic and crc).
  const char* covered = buf_.data() + sizeof(std::uint32_t);
  const std::size_t covered_n = total - 2 * sizeof(std::uint32_t);
  if (common::crc32(covered, covered_n) != stored_crc)
    return DecodeStatus::kBadCrc;

  out->type = static_cast<MsgType>(type);
  out->payload.assign(buf_.data() + kHeaderBytes,
                      static_cast<std::size_t>(len));
  buf_.erase(0, total);
  return DecodeStatus::kFrame;
}

// --- message payloads -----------------------------------------------------

std::string encode_hello(const HelloMsg& m) {
  std::string out;
  put_u64(out, m.pid);
  put_u64(out, m.leader);
  return out;
}

bool decode_hello(std::string_view payload, HelloMsg* m) {
  ByteReader c(payload);
  return c.get_u64(&m->pid) && c.get_u64(&m->leader) && c.at_end();
}

std::string encode_task(const TaskMsg& m) {
  std::string out;
  put_u64(out, m.items.size());
  for (const TaskItem& it : m.items) {
    put_u64(out, it.fragment_id);
    put_u64(out, it.epoch);
    put_u64(out, it.level);
    put_u64(out, it.n_atoms);
  }
  return out;
}

bool decode_task(std::string_view payload, TaskMsg* m) {
  ByteReader c(payload);
  std::uint64_t n = 0;
  if (!c.get_u64(&n)) return false;
  // Four u64 fields per item: the count field must match the bytes that
  // actually arrived (a hostile count cannot trigger a huge allocation).
  if (!c.holds(n, 4 * sizeof(std::uint64_t))) return false;
  m->items.resize(static_cast<std::size_t>(n));
  for (TaskItem& it : m->items) {
    if (!c.get_u64(&it.fragment_id) || !c.get_u64(&it.epoch) ||
        !c.get_u64(&it.level) || !c.get_u64(&it.n_atoms))
      return false;
  }
  return c.at_end();
}

std::string encode_result(const ResultMsg& m) {
  std::string out;
  put_u64(out, m.fragment_id);
  put_u64(out, m.epoch);
  put_u64(out, m.level);
  put_f64(out, m.seconds);
  put_u64(out, static_cast<std::uint64_t>(m.reuse_tier));
  // reuse_tier and phase_times ride beside the embedded record:
  // the checkpoint record format deliberately carries neither (provenance,
  // not results), but thread-mode leaders deliver both, so the wire must
  // too for exact parity.
  put_f64(out, m.result.phase_times.p1);
  put_f64(out, m.result.phase_times.n1);
  put_f64(out, m.result.phase_times.v1);
  put_f64(out, m.result.phase_times.h1);
  std::string record;
  frag::write_result_record(record, m.result);
  put_string(out, record);
  return out;
}

bool decode_result(std::string_view payload, ResultMsg* m) {
  ByteReader c(payload);
  std::uint64_t tier = 0;
  dfpt::PhaseTimes phases;
  std::string_view record;
  if (!c.get_u64(&m->fragment_id) || !c.get_u64(&m->epoch) ||
      !c.get_u64(&m->level) || !c.get_f64(&m->seconds) || !c.get_u64(&tier) ||
      tier > static_cast<std::uint64_t>(engine::ReuseTier::kRefresh) ||
      !c.get_f64(&phases.p1) || !c.get_f64(&phases.n1) ||
      !c.get_f64(&phases.v1) || !c.get_f64(&phases.h1) ||
      !c.get_view(&record) || !c.at_end())
    return false;
  m->reuse_tier = static_cast<engine::ReuseTier>(tier);
  // read_result_record checks every matrix shape against the bytes present
  // and requires the completion sentinel, so a damaged or hostile embedded
  // record is a clean false.
  ByteReader rec(record);
  if (!frag::read_result_record(rec, &m->result) || !rec.at_end())
    return false;
  m->result.phase_times = phases;
  return true;
}

std::string encode_failure(const FailureMsg& m) {
  std::string out;
  put_u64(out, m.fragment_id);
  put_u64(out, m.epoch);
  put_u64(out, m.level);
  put_u64(out, static_cast<std::uint64_t>(m.reason));
  put_string(out, m.error);
  return out;
}

bool decode_failure(std::string_view payload, FailureMsg* m) {
  ByteReader c(payload);
  std::uint64_t reason = 0;
  if (!c.get_u64(&m->fragment_id) || !c.get_u64(&m->epoch) ||
      !c.get_u64(&m->level) || !c.get_u64(&reason) ||
      !c.get_string(&m->error) || !c.at_end())
    return false;
  if (reason > static_cast<std::uint64_t>(FailureReason::kTimeout))
    return false;
  m->reason = static_cast<FailureReason>(reason);
  return true;
}

std::string encode_cancelled(const CancelledMsg& m) {
  std::string out;
  put_u64(out, m.fragment_id);
  put_u64(out, m.epoch);
  return out;
}

bool decode_cancelled(std::string_view payload, CancelledMsg* m) {
  ByteReader c(payload);
  return c.get_u64(&m->fragment_id) && c.get_u64(&m->epoch) && c.at_end();
}

std::string encode_cancel(const CancelMsg& m) {
  std::string out;
  put_u64(out, m.fragment_id);
  put_u64(out, m.epoch);
  return out;
}

bool decode_cancel(std::string_view payload, CancelMsg* m) {
  ByteReader c(payload);
  return c.get_u64(&m->fragment_id) && c.get_u64(&m->epoch) && c.at_end();
}

std::string encode_stats(const StatsMsg& m) {
  std::string out;
  put_f64(out, m.busy_seconds);
  put_u64(out, m.tasks);
  put_u64(out, m.fragments);
  put_u64(out, m.counters.size());
  for (const auto& [name, value] : m.counters) {
    put_string(out, name);
    put_u64(out, static_cast<std::uint64_t>(value));
  }
  return out;
}

bool decode_stats(std::string_view payload, StatsMsg* m) {
  ByteReader c(payload);
  std::uint64_t n = 0;
  if (!c.get_f64(&m->busy_seconds) || !c.get_u64(&m->tasks) ||
      !c.get_u64(&m->fragments) || !c.get_u64(&n))
    return false;
  // Each counter needs at least a length and a value on the wire.
  if (!c.holds(n, 2 * sizeof(std::uint64_t))) return false;
  m->counters.clear();
  m->counters.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    std::string name;
    std::uint64_t value = 0;
    if (!c.get_string(&name) || !c.get_u64(&value)) return false;
    m->counters.emplace_back(std::move(name),
                             static_cast<std::int64_t>(value));
  }
  return c.at_end();
}

}  // namespace qfr::runtime::wire
