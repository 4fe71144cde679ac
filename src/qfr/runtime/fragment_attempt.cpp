#include "qfr/runtime/fragment_attempt.hpp"

#include <utility>

#include "qfr/cache/store.hpp"
#include "qfr/common/error.hpp"
#include "qfr/common/timer.hpp"
#include "qfr/obs/session.hpp"
#include "qfr/obs/trace.hpp"

namespace qfr::runtime {

std::vector<EngineLevel> make_engine_levels(
    EngineLevel primary, const engine::EngineFallbackChain* chain) {
  std::vector<EngineLevel> levels;
  levels.push_back(std::move(primary));
  const std::size_t n_chain = chain != nullptr ? chain->size() : 0;
  for (std::size_t i = 0; i < n_chain; ++i) {
    const engine::FragmentEngine& eng = chain->engine(i);
    levels.push_back({[&eng](const frag::Fragment& f) {
                        return compute_with_engine(eng, f);
                      },
                      eng.name()});
  }
  return levels;
}

engine::FragmentResult compute_with_engine(const engine::FragmentEngine& eng,
                                           const frag::Fragment& f) {
  // Topology-tagged dispatch: engines that care (the model surrogate)
  // use the fragmentation's explicit bond list; everything else falls
  // back to the id-tagged compute through the default implementation.
  return eng.compute(f.id, f.mol, f.bonds);
}

Attempt run_fragment(const frag::Fragment& fragment, std::size_t level,
                     const EngineLevel& engine, cache::ResultCache* cache,
                     const common::CancelToken& token) {
  Attempt a;
  a.level = level;
  obs::SpanGuard span(obs::current(), "fragment.compute", "runtime");
  span.arg("fragment", static_cast<double>(fragment.id))
      .arg("level", static_cast<double>(level))
      .arg("n_atoms", static_cast<double>(fragment.n_atoms()));
  WallTimer timer;
  auto failed = [&a](FailureReason reason, std::string error) {
    a.status = Attempt::Status::kFailed;
    a.reason = reason;
    a.error = std::move(error);
  };
  try {
    // Cancellation-aware engines (SCF/CPSCF iterations) poll the ambient
    // token and bail out mid-solve.
    token.throw_if_cancelled();
    common::CancelScope scope(token);
    a.result = cache == nullptr
                   ? engine.compute(fragment)
                   : cache->get_or_compute(engine.name, fragment.mol, [&] {
                       return engine.compute(fragment);
                     });
    a.status = Attempt::Status::kComputed;
  } catch (const CancelledError&) {
    a.status = Attempt::Status::kCancelled;
  } catch (const TimeoutError& e) {
    failed(FailureReason::kTimeout, e.what());
  } catch (const NumericalError& e) {
    failed(FailureReason::kNonConvergence, e.what());
  } catch (const std::exception& e) {
    failed(FailureReason::kEngineError, e.what());
  } catch (...) {
    failed(FailureReason::kEngineError, "unknown error");
  }
  a.seconds = timer.seconds();
  return a;
}

}  // namespace qfr::runtime
