#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "qfr/balance/packing.hpp"
#include "qfr/engine/fragment_engine.hpp"
#include "qfr/runtime/fragment_tracker.hpp"

namespace qfr::fault {
class FragmentResultValidator;
}  // namespace qfr::fault

namespace qfr::runtime {

/// Why a fragment attempt failed — kept per fragment so the final report
/// distinguishes an engine that crashed from one that returned garbage or
/// refused to converge.
enum class FailureReason {
  kNone = 0,
  kEngineError,     ///< the engine threw (crash, internal error)
  kInvalidResult,   ///< the result failed integrity validation
  kNonConvergence,  ///< SCF/CPSCF convergence failure (NumericalError)
  kTimeout,         ///< watchdog timeout (TimeoutError)
  kCancelled,       ///< the sweep was cancelled (deadline, client cancel)
};

const char* to_string(FailureReason reason);

/// Verdict of SweepScheduler::on_completion for one delivered result.
enum class Completion {
  kAccepted,  ///< first valid delivery under a live lease: count it, sink it
  kStale,     ///< lease revoked or fragment already completed: discard
  kRejected,  ///< failed validation: routed into the retry path, discard
};

/// Ownership token for one dispatched fragment. `acquire` issues a fresh
/// lease (a bumped per-fragment epoch) with every dispatch; deliveries
/// carry the lease back and are accepted only while it is still the live
/// one. A straggler re-queue, supervisor revocation, or completion by
/// another leader invalidates the lease, so a late delivery from a
/// presumed-dead owner is rejected by construction — the fencing-token
/// pattern of distributed lock services, making re-queues ABA-safe
/// without inferring staleness from completion order.
struct Lease {
  std::size_t fragment_id = 0;
  std::uint64_t epoch = 0;  ///< 0 = never valid (sentinel)
};

/// One dispatched task plus the lease for each of its fragments
/// (`leases[k]` fences `items[k]`).
struct LeasedTask {
  balance::Task items;
  std::vector<Lease> leases;

  bool empty() const { return items.empty(); }
  std::size_t size() const { return items.size(); }
};

/// Terminal record for one fragment of a sweep.
struct FragmentOutcome {
  std::size_t fragment_id = 0;
  /// Times the fragment was dispatched to a leader (0 when resumed from a
  /// checkpoint).
  std::size_t attempts = 0;
  bool completed = false;
  /// Seeded as already-done from a checkpoint (resume path).
  bool from_checkpoint = false;
  /// Last failure message when the fragment exhausted its retries.
  std::string error;
  /// Why the last failure happened (kNone for clean completions).
  FailureReason reason = FailureReason::kNone;
  /// Fallback-chain level the fragment ended on (0 = primary engine).
  std::size_t engine_level = 0;
  /// Name of the engine whose result was accepted (empty if none was).
  std::string engine;
  /// Which reuse tier produced the accepted result: computed, exact cache
  /// transport (served by the qfr::cache result cache), or perturbative
  /// refresh (trajectory streaming).
  engine::ReuseTier reuse_tier = engine::ReuseTier::kComputed;
  /// Validator rejections this fragment suffered (bad physics).
  std::size_t rejections = 0;
  /// Fault/crash/timeout failures this fragment suffered (bad hardware).
  std::size_t fault_failures = 0;

  bool degraded() const { return completed && engine_level > 0; }
};

/// Tuning of the master-side sweep state machine.
struct SweepOptions {
  /// Fragments processing longer than this (in the caller's clock) are
  /// flipped back to unprocessed and re-dispatched (paper Sec. V-B).
  double straggler_timeout = 600.0;
  /// Failure retries per fragment beyond the first attempt *per engine
  /// level*; once exhausted at the last level the fragment is reported
  /// failed instead of aborting the sweep.
  std::size_t max_retries = 2;
  /// Fragment ids already completed by a previous run (checkpoint
  /// resume); they are marked completed up front and never dispatched.
  std::vector<std::size_t> completed_ids;
  /// Engine-degradation ladder depth: level 0 is the primary engine,
  /// levels 1..n-1 the fallback chain. A fragment that exhausts its
  /// retries at one level is re-queued at the next instead of dying.
  std::size_t n_engine_levels = 1;
  /// Level every fragment STARTS on (must be < n_engine_levels). The
  /// serving layer sheds low-priority requests by admitting them directly
  /// at a cheaper fallback level under overload; 0 is the normal path.
  std::size_t initial_engine_level = 0;
  /// Optional result-integrity validator consulted by on_completion
  /// before a result is accepted. Non-owning; may be null.
  const fault::FragmentResultValidator* validator = nullptr;
  /// Retry backoff: a failed fragment with retry budget left becomes
  /// eligible for re-dispatch only `base * 2^(k-1)` seconds after its k-th
  /// failure at the current level (capped at `max`), with a deterministic
  /// jitter of up to `jitter` of the delay to spread storms. 0 disables
  /// (the historical immediate re-queue). Clock-agnostic: eligibility is
  /// measured on whatever clock the caller passes to acquire()/tick().
  double retry_backoff_base = 0.0;
  double retry_backoff_max = 30.0;
  double retry_backoff_jitter = 0.5;
  std::uint64_t retry_backoff_seed = 0x9e3779b97f4a7c15ull;
};

/// The paper's load balancer as one reusable state machine (Sec. V-B,
/// Fig. 4): the packing policy hands out size-sensitive tasks, the
/// fragment status table tracks unprocessed -> processing -> completed,
/// stragglers past the timeout are re-queued, failures are retried a
/// bounded number of times, and revoked/duplicate deliveries are fenced
/// out by per-fragment lease epochs.
///
/// The scheduler is clock-agnostic: callers pass "now" in seconds on any
/// monotonically nondecreasing clock. runtime::MasterRuntime drives it
/// with wall-clock time from real leader threads; cluster::simulate_cluster
/// drives the identical logic with simulated time. Thread safe.
class SweepScheduler {
 public:
  /// Non-owning policy: the caller keeps it alive for the whole sweep.
  /// `items` must carry dense unique fragment ids in [0, items.size()).
  SweepScheduler(std::vector<balance::WorkItem> items,
                 balance::PackingPolicy& policy, SweepOptions options = {});
  /// Owning variant.
  SweepScheduler(std::vector<balance::WorkItem> items,
                 std::unique_ptr<balance::PackingPolicy> policy,
                 SweepOptions options = {});

  std::size_t n_fragments() const { return items_by_id_.size(); }

  /// Pull the next task at time `now`. Runs the straggler scan first, so
  /// timed-out fragments re-enter the queue before fresh work is popped.
  /// Every dispatched fragment comes with a fresh Lease the caller must
  /// present at delivery. An empty task means "nothing dispatchable right
  /// now" — the sweep is over only when finished() is also true
  /// (in-flight fragments may still fail and need a retry).
  LeasedTask acquire(std::size_t queue_depth, double now);

  /// Run the straggler scan at time `now` without acquiring work: every
  /// fragment processing past the timeout is revoked and re-queued.
  /// Returns the number of fragments re-queued. A supervisor (or the DES
  /// clock) drives this so deadline recovery fires even when every leader
  /// is busy and nobody calls acquire().
  std::size_t tick(double now);

  /// Deliver a fragment result through the integrity gate. The lease is
  /// fenced first: a stale lease (revoked, re-queued, or completed
  /// elsewhere) returns kStale and the caller must discard the result so
  /// Eq. (1) terms are not double-counted. Then the configured validator
  /// (if any) runs, and a rejected result is routed into the same
  /// bounded-retry/degradation path as a thrown error. `engine_name` is
  /// recorded in the outcome so the report can say which engine's result
  /// was accepted.
  Completion on_completion(const Lease& lease,
                           const engine::FragmentResult& result,
                           std::string_view engine_name = {});

  /// Report a fragment failure under a lease: re-queued for retry while
  /// attempts remain at the current engine level, degraded to the next
  /// level when they run out, and recorded as a permanent FragmentOutcome
  /// failure only once the last level's retries are spent. Failures under
  /// a stale lease are ignored (the fragment is already owned elsewhere).
  void fail(const Lease& lease, const std::string& error,
            FailureReason reason = FailureReason::kEngineError);

  /// Revoke a lease without a failure report (supervisor path: the owning
  /// leader died or stopped heartbeating). The fragment goes back to
  /// unprocessed and re-enters the queue; the revoked lease can no longer
  /// deliver. Returns false when the lease was already stale. Revocation
  /// does not consume a retry: leader loss is not the fragment's fault.
  bool revoke_lease(const Lease& lease);

  /// True while `lease` is the live lease on a still-processing fragment.
  bool lease_valid(const Lease& lease) const;

  /// Current fallback-chain level of a fragment (0 = primary engine). The
  /// runtime asks this before every compute so a degraded fragment runs on
  /// its fallback engine.
  std::size_t engine_level(std::size_t fragment_id) const;

  /// True once every fragment is terminal (completed or permanently
  /// failed).
  bool finished() const;

  /// Cancel the sweep: every non-terminal fragment (queued, in backoff, or
  /// processing under a live lease) becomes a permanent kCancelled failure
  /// and its lease is revoked, so finished() turns true as soon as the
  /// call returns and every late delivery is fenced out. Completed
  /// fragments keep their results. Idempotent; returns the number of
  /// fragments cancelled by THIS call. `error` is recorded per outcome
  /// (deadline expiry vs client cancel vs shutdown).
  std::size_t cancel_pending(const std::string& error);

  /// True once cancel_pending has run.
  bool cancelled() const;

  /// Earliest time a currently-processing fragment could be re-queued as
  /// a straggler, or a backed-off retry becomes eligible; +infinity when
  /// neither applies. Simulated-time drivers sleep until here instead of
  /// polling.
  double next_deadline() const;

  std::size_t n_completed() const;
  std::size_t n_failed() const;
  std::size_t n_tasks() const;          ///< non-empty tasks dispatched
  std::size_t n_requeued() const;       ///< straggler re-queue events (fragments)
  std::size_t n_requeue_tasks() const;  ///< re-dispatch tasks queued (stragglers + retries + revocations)
  std::size_t n_retries() const;        ///< failure-driven re-dispatches
  std::size_t n_fault_retries() const;  ///< retries after crash/timeout/convergence failures
  std::size_t n_reject_retries() const; ///< retries after validator rejections
  std::size_t n_resumed() const;        ///< fragments seeded from a checkpoint
  std::size_t n_degraded() const;       ///< level-degradation events
  std::size_t n_rejected() const;       ///< results rejected by the validator
  std::size_t n_revoked() const;        ///< leases revoked via revoke_lease

  /// Terminal per-fragment records, indexed by fragment id.
  std::vector<FragmentOutcome> outcomes() const;

  /// Fragment ids of every dispatched task, in dispatch order. With a
  /// deterministic policy and no faults this sequence is identical no
  /// matter which clock or how many threads drive the scheduler — the
  /// property the DES substitution relies on.
  std::vector<std::vector<std::size_t>> task_log() const;

 private:
  void init(std::vector<balance::WorkItem> items);
  /// Locked straggler scan shared by acquire() and tick(); also releases
  /// backed-off retries whose eligibility time has passed.
  std::size_t tick_locked(double now);
  /// Locked core of fail(); on_completion calls it for rejected results.
  /// Precondition: the lease has been verified live by the caller.
  void fail_locked(const Lease& lease, const std::string& error,
                   FailureReason reason);
  /// Locked: requeue `fragment_id` for retry, either immediately or into
  /// the backoff queue with a deterministic jittered-exponential delay
  /// keyed on its failure count at the current level.
  void requeue_for_retry_locked(std::size_t fragment_id);

  mutable std::mutex mutex_;
  std::unique_ptr<balance::PackingPolicy> owned_policy_;
  balance::PackingPolicy* policy_ = nullptr;
  SweepOptions options_;
  std::unique_ptr<FragmentTracker> tracker_;
  std::vector<balance::WorkItem> items_by_id_;
  std::vector<FragmentOutcome> outcomes_;
  std::vector<char> dead_;  ///< permanently failed (retries exhausted)
  /// Attempt count at which each fragment entered its current engine
  /// level: the per-level retry budget is measured from here.
  std::vector<std::size_t> retry_base_;
  std::vector<std::vector<std::size_t>> task_log_;
  /// Backed-off retries: (eligible-at, fragment id). Scanned linearly —
  /// the set is bounded by the in-flight failure count, which is tiny.
  std::vector<std::pair<double, std::size_t>> backoff_;
  /// Latest "now" observed from acquire()/tick(): fail() carries no clock,
  /// so backoff eligibility is anchored to the last time the caller told
  /// us about (monotone by the scheduler's clock contract).
  double last_now_ = 0.0;
  bool cancelled_ = false;
  std::size_t n_failed_ = 0;
  std::size_t n_resumed_ = 0;
  std::size_t n_tasks_ = 0;
  std::size_t n_retries_ = 0;
  std::size_t n_fault_retries_ = 0;
  std::size_t n_reject_retries_ = 0;
  std::size_t n_requeue_tasks_ = 0;
  std::size_t n_degraded_ = 0;
  std::size_t n_rejected_ = 0;
  std::size_t n_revoked_ = 0;
};

}  // namespace qfr::runtime
