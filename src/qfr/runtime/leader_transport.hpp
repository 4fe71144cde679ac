#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "qfr/common/timer.hpp"
#include "qfr/engine/fragment_engine.hpp"
#include "qfr/frag/fragmentation.hpp"
#include "qfr/runtime/fragment_attempt.hpp"
#include "qfr/runtime/sweep_scheduler.hpp"

namespace qfr::obs {
class Session;
}  // namespace qfr::obs

namespace qfr::runtime {

struct RuntimeOptions;
struct RunReport;
class Supervisor;

/// Which execution substrate carries the leaders of a sweep.
enum class TransportKind {
  /// Leaders are threads of the master process pulling tasks directly
  /// from the shared scheduler (the original in-process hierarchy).
  kThread,
  /// Leaders are forked OS processes connected to the master by
  /// socketpairs and driven over the CRC32-framed wire protocol. A leader
  /// can genuinely die (kill -9) and the sweep recovers: the master
  /// detects the pipe EOF, revokes the leases, re-queues the fragments,
  /// and forks a fresh leader.
  kProcess,
};

const char* to_string(TransportKind kind);

/// Everything a transport needs to run the leader side of one sweep. The
/// scheduler, supervisor, report, and sink plumbing all live in the
/// master; the transport only decides WHERE the fragment computes execute
/// (leader threads vs forked leader processes) and ferries work and
/// results between them and the scheduler. MasterRuntime builds one of
/// these per run() and hands it to the configured transport.
struct SweepDrive {
  const RuntimeOptions& options;
  std::span<const frag::Fragment> fragments;
  SweepScheduler& scheduler;
  /// Constructed (but not started) when supervision is enabled, else
  /// null. The transport starts it with its own respawn callback and
  /// stops it once the sweep is finished.
  Supervisor* supervisor = nullptr;
  obs::Session* obs = nullptr;
  /// The sweep clock ("now" for acquire/tick and the supervisor).
  const WallTimer* wall = nullptr;
  /// The fallback ladder (level 0 = primary engine); leaders hand a
  /// fragment's level to run_fragment together with options.cache.
  std::vector<EngineLevel> levels = {};
  RunReport* report = nullptr;
  std::mutex* sink_mutex = nullptr;
  std::atomic<std::size_t>* n_cancelled = nullptr;
  /// Leader deaths detected and recovered by the transport itself without
  /// a supervisor (process mode handles pipe EOF locally when
  /// unsupervised). Supervised crashes are counted by the supervisor, so
  /// the two never double-count.
  std::atomic<std::size_t>* n_transport_crashes = nullptr;
};

/// One leader execution substrate. run() blocks until the sweep is
/// finished (every fragment terminal) and all leader slots have been
/// joined/reaped; it is responsible for starting and stopping the
/// supervisor (when drive.supervisor is set) so respawn stays
/// transport-owned.
class LeaderTransport {
 public:
  virtual ~LeaderTransport() = default;
  virtual const char* name() const = 0;
  virtual void run(SweepDrive& drive) = 0;
};

std::unique_ptr<LeaderTransport> make_leader_transport(TransportKind kind);

namespace detail {

/// Deliver one completed fragment result through the scheduler's epoch
/// gate and, when accepted, into the report and the sink. Shared by both
/// transports so acceptance side effects (metrics, fragment_seconds,
/// sink serialization) cannot drift apart. Returns true when accepted.
bool deliver_result(SweepDrive& drive, const Lease& lease, std::size_t level,
                    engine::FragmentResult&& result, double seconds);

}  // namespace detail

}  // namespace qfr::runtime
