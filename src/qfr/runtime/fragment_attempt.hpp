#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "qfr/common/cancel.hpp"
#include "qfr/engine/fallback_chain.hpp"
#include "qfr/engine/fragment_engine.hpp"
#include "qfr/frag/fragmentation.hpp"
#include "qfr/runtime/sweep_scheduler.hpp"

namespace qfr::cache {
class ResultCache;
}  // namespace qfr::cache

namespace qfr::runtime {

/// Worker function computing one fragment. Must be thread-compatible.
/// Long-running computes should poll common::current_cancel_token() (or
/// the solver options' token) so revoked fragments stop promptly.
using FragmentCompute =
    std::function<engine::FragmentResult(const frag::Fragment&)>;

/// One rung of the fallback ladder as a leader sees it: the raw (uncached)
/// compute, and the engine name that namespaces its cache entries and
/// names its outcomes. Level 0 is the primary engine.
struct EngineLevel {
  FragmentCompute compute;
  std::string name;
};

/// The ladder [primary, chain engine 0, chain engine 1, ...]; every chain
/// level dispatches through compute_with_engine. `chain` may be null.
std::vector<EngineLevel> make_engine_levels(
    EngineLevel primary, const engine::EngineFallbackChain* chain);

/// One engine-dispatch convention shared by the primary and every
/// fallback level (and by the serving layer): the classical engine
/// exploits the fragment's explicit topology, everything else gets the
/// id-tagged geometry call (so fault decorators can key on the fragment
/// id).
engine::FragmentResult compute_with_engine(const engine::FragmentEngine& eng,
                                           const frag::Fragment& f);

/// Typed outcome of one fragment compute attempt. The leader loops differ
/// only in how they deliver it (scheduler, wire, or serving request).
struct Attempt {
  enum class Status {
    kComputed,   ///< `result` holds the compute; the lease gate decides
    kFailed,     ///< `reason` + `error` say why; consumes a retry
    kCancelled,  ///< stopped by its token: deliver nothing, no retry used
  };
  Status status = Status::kFailed;
  std::size_t level = 0;
  engine::FragmentResult result;
  FailureReason reason = FailureReason::kNone;
  std::string error;
  double seconds = 0.0;  ///< wall time of the attempt
};

/// The worker step of the paper's hierarchy (Fig. 3): compute one
/// fragment at fallback `level`, through `cache` when non-null (entries
/// namespaced by the level's engine name), under `token` as the ambient
/// cancel token, inside a `fragment.compute` span on the ambient obs
/// session. Never throws; the one place engine exceptions map to
/// outcomes:
///   CancelledError -> kCancelled
///   TimeoutError   -> kFailed, FailureReason::kTimeout
///   NumericalError -> kFailed, FailureReason::kNonConvergence
///   anything else  -> kFailed, FailureReason::kEngineError
Attempt run_fragment(const frag::Fragment& fragment, std::size_t level,
                     const EngineLevel& engine, cache::ResultCache* cache,
                     const common::CancelToken& token);

}  // namespace qfr::runtime
