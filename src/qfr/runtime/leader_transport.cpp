#include "qfr/runtime/leader_transport.hpp"

#include <mutex>

#include "qfr/common/error.hpp"
#include "qfr/obs/session.hpp"
#include "qfr/runtime/master_runtime.hpp"

namespace qfr::runtime {

const char* to_string(TransportKind kind) {
  switch (kind) {
    case TransportKind::kThread: return "thread";
    case TransportKind::kProcess: return "process";
  }
  return "unknown";
}

// Defined by thread_transport.cpp / process_transport.cpp.
std::unique_ptr<LeaderTransport> make_thread_transport();
std::unique_ptr<LeaderTransport> make_process_transport();

std::unique_ptr<LeaderTransport> make_leader_transport(TransportKind kind) {
  switch (kind) {
    case TransportKind::kThread: return make_thread_transport();
    case TransportKind::kProcess: return make_process_transport();
  }
  QFR_REQUIRE(false, "unknown transport kind");
  return nullptr;
}

namespace detail {

bool deliver_result(SweepDrive& drive, const Lease& lease, std::size_t level,
                    engine::FragmentResult&& result, double seconds) {
  const std::size_t fid = lease.fragment_id;
  // The integrity gate: a rejected or stale result re-enters the
  // retry/degradation path and never reaches the results array or the
  // sink — an injected NaN Hessian cannot leak into assembly, and a
  // revoked lease cannot deliver twice.
  if (drive.scheduler.on_completion(lease, result, drive.levels[level].name) !=
      Completion::kAccepted)
    return false;
  RunReport& report = *drive.report;
  report.results[fid] = std::move(result);
  report.fragment_seconds[fid] = seconds;
  if (drive.obs != nullptr) {
    drive.obs->metrics().histogram("fragment.compute.seconds")
        .observe(seconds);
    if (level > 0)
      drive.obs->metrics().counter("sched.fallback_completions").add(1);
  }
  if (drive.options.sink) {
    std::lock_guard<std::mutex> lock(*drive.sink_mutex);
    drive.options.sink->on_result(fid, report.results[fid]);
  }
  return true;
}

}  // namespace detail

}  // namespace qfr::runtime
